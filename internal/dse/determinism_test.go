package dse

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"exocore/internal/bsa"
	"exocore/internal/cli"
	"exocore/internal/cores"
	"exocore/internal/exocore"
	"exocore/internal/report"
	"exocore/internal/runner"
	"exocore/internal/sched"
	"exocore/internal/workloads"
)

func detWorkloads(t *testing.T) []*workloads.Workload {
	t.Helper()
	var ws []*workloads.Workload
	for _, name := range []string{"mm", "cjpeg", "mcf"} {
		w, err := workloads.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		ws = append(ws, w)
	}
	return ws
}

// marshal renders an exploration to canonical bytes (the same designs
// slice cmd/dse prints), for byte-identity comparison.
func marshal(t *testing.T, exp *Exploration) []byte {
	t.Helper()
	b, err := json.MarshalIndent(exp.Designs, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestSerialParallelByteIdentical asserts the exploration output is
// byte-identical between workers=1 and a heavily parallel run, so worker
// count and completion order can never leak into results.
func TestSerialParallelByteIdentical(t *testing.T) {
	ws := detWorkloads(t)
	cs := []cores.Config{cores.IO2, cores.OOO2}

	serial, err := Explore(Options{
		Workloads: ws, Cores: cs,
		Engine: runner.New(runner.Options{MaxDyn: 10_000, Workers: 1}),
	})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Explore(Options{
		Workloads: ws, Cores: cs,
		Engine: runner.New(runner.Options{MaxDyn: 10_000, Workers: 16}),
	})
	if err != nil {
		t.Fatal(err)
	}

	sb, pb := marshal(t, serial), marshal(t, parallel)
	if !bytes.Equal(sb, pb) {
		for i := range sb {
			if i >= len(pb) || sb[i] != pb[i] {
				lo := i - 80
				if lo < 0 {
					lo = 0
				}
				t.Fatalf("serial and parallel output diverge at byte %d:\nserial:   ...%s\nparallel: ...%s",
					i, sb[lo:min(i+80, len(sb))], pb[lo:min(i+80, len(pb))])
			}
		}
		t.Fatalf("serial (%d bytes) is a prefix of parallel (%d bytes)", len(sb), len(pb))
	}
}

// reportDoc renders an exploration as the exocore-result/v1 document
// cmd/dse emits with -json, without the Metrics block.
func reportDoc(t *testing.T, exp *Exploration) []byte {
	t.Helper()
	doc := report.New("dse")
	for _, d := range exp.Designs {
		doc.Add(report.Result{
			Design: d.Code, Core: d.Core.Name, BSAs: bsa.Default().SubsetNames(d.Mask),
			AreaMM2: d.AreaMM2,
			RelPerf: d.RelPerf, RelEnergyEff: d.RelEnergyEff, RelArea: d.RelArea,
		})
		for _, b := range d.PerBench {
			doc.Add(report.Result{
				Design: d.Code, Core: d.Core.Name, Bench: b.Bench,
				Category: string(b.Category),
				Cycles:   b.Cycles, EnergyNJ: b.EnergyNJ,
			})
		}
	}
	var buf bytes.Buffer
	if err := doc.Write(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// quickSweep explores the quick-set workloads on IO2 and OOO2 with a
// default engine (delta evaluation over the unit cache, the only
// evaluation path a scheduling context has).
func quickSweep(t *testing.T) (*runner.Engine, []*workloads.Workload, []cores.Config, *Exploration) {
	t.Helper()
	var ws []*workloads.Workload
	for _, name := range cli.QuickSet {
		w, err := workloads.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		ws = append(ws, w)
	}
	cs := []cores.Config{cores.IO2, cores.OOO2}
	eng := runner.New(runner.Options{MaxDyn: 10_000})
	exp, err := Explore(Options{Workloads: ws, Cores: cs, Engine: eng})
	if err != nil {
		t.Fatal(err)
	}
	return eng, ws, cs, exp
}

// uncachedRun evaluates assign on sc with a cache-less exocore.Run, which
// segmentizes and evaluates every unit from scratch: the reference every
// cached and delta-evaluated number is held to.
func uncachedRun(t *testing.T, sc *sched.Context, assign exocore.Assignment) (int64, float64) {
	t.Helper()
	res, err := exocore.Run(sc.TDG, sc.Core, sc.BSAs, sc.Plans, assign, exocore.RunOpts{})
	if err != nil {
		t.Fatal(err)
	}
	return res.Cycles, exocore.EnergyOf(res, sc.Core, sc.BSAs).TotalNJ()
}

func schedContext(t *testing.T, eng *runner.Engine, w *workloads.Workload, core cores.Config) *sched.Context {
	t.Helper()
	sc, err := eng.Context(w, core)
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

// TestCachedSweepByteIdentical is the end-to-end correctness gate for the
// evaluation-unit cache: over the quick-set workloads and every subset
// of the default registry, every design × bench row of a sweep must
// equal a cache-less exocore.Run of the same assignment (sc.Oracle of
// the design's subset). The design aggregates are rebuilt from the
// reference rows, so the rendered exocore-result/v1 documents must be
// byte-identical.
func TestCachedSweepByteIdentical(t *testing.T) {
	eng, ws, cs, exp := quickSweep(t)

	ref, err := NewShell(eng.BSAs(), nil, cs)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range exp.Designs {
		for _, w := range ws {
			sc := schedContext(t, eng, w, d.Core)
			c, e := uncachedRun(t, sc, sc.Oracle(bsa.Default().SubsetNames(d.Mask)))
			if err := ref.AddBench(d.Code, BenchResult{
				Bench: w.Name, Category: w.Category, Cycles: c, EnergyNJ: e,
			}); err != nil {
				t.Fatal(err)
			}
		}
	}
	ref.Normalize()

	got, want := reportDoc(t, exp), reportDoc(t, ref)
	if !bytes.Equal(got, want) {
		for i := range got {
			if i >= len(want) || got[i] != want[i] {
				lo := max(i-80, 0)
				t.Fatalf("sweep and uncached runs diverge at byte %d:\nsweep:    ...%s\nuncached: ...%s",
					i, got[lo:min(i+80, len(got))], want[lo:min(i+80, len(want))])
			}
		}
		t.Fatalf("sweep doc (%d bytes) is a prefix of uncached doc (%d bytes)", len(got), len(want))
	}
}

// TestFullSuiteSweepIdentity extends the quick-set gates to the whole
// grid: every workload (the graph family included) × the four cores ×
// every subset of the default registry (GS-DAE included), at a small
// budget. Two explorations on fresh engines must render byte-identical
// documents, so map-order or scheduling nondeterminism shows up as a
// diff; every design × bench row must equal a cache-less exocore.Run of
// the design's Oracle assignment, which exercises four-core shared-pool
// reuse on every offload unit; and the document's SHA-256 is pinned in
// testdata (rewrite it with -update only when the evaluation model
// itself changes).
func TestFullSuiteSweepIdentity(t *testing.T) {
	const maxDyn = 4000
	sweep := func() (*runner.Engine, *Exploration) {
		eng := runner.New(runner.Options{MaxDyn: maxDyn})
		exp, err := Explore(Options{Engine: eng})
		if err != nil {
			t.Fatal(err)
		}
		return eng, exp
	}
	eng, exp := sweep()
	got := reportDoc(t, exp)
	if _, again := sweep(); !bytes.Equal(got, reportDoc(t, again)) {
		t.Fatal("two full-suite sweeps on fresh engines render different documents")
	}

	// The reference evaluates each distinct (bench, core, assignment)
	// once: most subsets share their Oracle assignment with another.
	ref, err := NewShell(eng.BSAs(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	type refKey struct{ bench, core, assign string }
	memo := map[refKey]BenchResult{}
	ws := workloads.All()
	for _, d := range ref.Designs {
		for _, w := range ws {
			sc := schedContext(t, eng, w, d.Core)
			assign := sc.Oracle(d.BSAs)
			k := refKey{w.Name, d.Core.Name, runner.AssignmentKey(assign)}
			b, ok := memo[k]
			if !ok {
				b = BenchResult{Bench: w.Name, Category: w.Category}
				b.Cycles, b.EnergyNJ = uncachedRun(t, sc, assign)
				memo[k] = b
			}
			if err := ref.AddBench(d.Code, b); err != nil {
				t.Fatal(err)
			}
		}
	}
	ref.Normalize()
	if want := reportDoc(t, ref); !bytes.Equal(got, want) {
		for i := range got {
			if i >= len(want) || got[i] != want[i] {
				lo := max(i-80, 0)
				t.Fatalf("full-suite sweep and uncached runs diverge at byte %d:\nsweep:    ...%s\nuncached: ...%s",
					i, got[lo:min(i+80, len(got))], want[lo:min(i+80, len(want))])
			}
		}
		t.Fatalf("sweep doc (%d bytes) is a prefix of uncached doc (%d bytes)", len(got), len(want))
	}

	sum := sha256.Sum256(got)
	digest := hex.EncodeToString(sum[:]) + "\n"
	path := filepath.Join("testdata", "sweep_all_4000.sha256")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(digest), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if digest != string(want) {
		t.Fatalf("full-suite sweep document SHA-256 %s, pinned %s", strings.TrimSpace(digest), strings.TrimSpace(string(want)))
	}
}

// TestDeltaMatchesFullRun is the end-to-end correctness gate for the
// incremental delta-evaluation path (unit reuse across assignments
// through the unit-outcome cache, the cross-core shared pool):
// after a sweep over the quick-set workloads, every number the
// scheduler's choices rest on — each context's baseline and every
// candidate solo — must equal a cache-less exocore.Run of the same
// assignment.
func TestDeltaMatchesFullRun(t *testing.T) {
	eng, ws, cs, _ := quickSweep(t)

	for _, core := range cs {
		for _, w := range ws {
			sc := schedContext(t, eng, w, core)
			if c, e := uncachedRun(t, sc, nil); c != sc.BaseCycles || e != sc.BaseEnergyNJ {
				t.Errorf("%s/%s baseline: delta (%d, %v), full (%d, %v)",
					w.Name, core.Name, sc.BaseCycles, sc.BaseEnergyNJ, c, e)
			}
			for _, cand := range sc.Candidates {
				c, e := uncachedRun(t, sc, exocore.Assignment{cand.LoopID: cand.BSA})
				if c != cand.Cycles || e != cand.EnergyNJ {
					t.Errorf("%s/%s candidate %s@L%d: delta (%d, %v), full (%d, %v)",
						w.Name, core.Name, cand.BSA, cand.LoopID, cand.Cycles, cand.EnergyNJ, c, e)
				}
			}
		}
	}
}

// TestExploreReusesCache asserts the engine does strictly less redundant
// work than the naive per-design loop: across the 16 subsets per core,
// scheduling contexts are built exactly once per (bench, core) and
// repeated assignments are served from the eval cache.
func TestExploreReusesCache(t *testing.T) {
	ws := detWorkloads(t)
	cs := []cores.Config{cores.IO2, cores.OOO2}
	eng := runner.New(runner.Options{MaxDyn: 10_000})
	if _, err := Explore(Options{Workloads: ws, Cores: cs, Engine: eng}); err != nil {
		t.Fatal(err)
	}
	m := eng.Metrics()

	if got, want := m.Stage(runner.StageSched).Misses, int64(len(ws)*len(cs)); got != want {
		t.Errorf("sched contexts built = %d, want exactly %d (one per bench×core)", got, want)
	}
	ev := m.Stage(runner.StageEval)
	// 2^N subsets × benches × cores evaluations requested, but distinct
	// assignments are far fewer: the hit counter must be positive.
	if got, want := ev.Calls, int64((1<<eng.BSAs().Len())*len(ws)*len(cs)); got != want {
		t.Errorf("eval calls = %d, want %d", got, want)
	}
	if ev.Hits == 0 {
		t.Error("eval cache hits = 0: the 16 subsets did not share any work")
	}
	if ev.Misses >= ev.Calls {
		t.Error("every evaluation missed: memoization is not effective")
	}
	t.Logf("eval: %d calls, %d served from cache (%.0f%%)",
		ev.Calls, ev.Hits, 100*float64(ev.Hits)/float64(ev.Calls))
}

// TestSharedEngineAcrossExplorations asserts a second exploration on the
// same engine is served almost entirely from cache.
func TestSharedEngineAcrossExplorations(t *testing.T) {
	ws := detWorkloads(t)
	cs := []cores.Config{cores.IO2}
	eng := runner.New(runner.Options{MaxDyn: 10_000})
	first, err := Explore(Options{Workloads: ws, Cores: cs, Engine: eng})
	if err != nil {
		t.Fatal(err)
	}
	missesAfterFirst := eng.Metrics().Stage(runner.StageEval).Misses

	second, err := Explore(Options{Workloads: ws, Cores: cs, Engine: eng})
	if err != nil {
		t.Fatal(err)
	}
	if got := eng.Metrics().Stage(runner.StageEval).Misses; got != missesAfterFirst {
		t.Errorf("second exploration recomputed %d evaluations", got-missesAfterFirst)
	}
	if !bytes.Equal(marshal(t, first), marshal(t, second)) {
		t.Error("cached re-exploration produced different results")
	}
}

// TestQuickSweepMemoBytesPerEntry bounds what the unit memo holds per
// entry: keys and outcome values (exocore.CacheStats.ResidentBytes, the
// arena's and index's overhead not counted) average at most 128 bytes
// over a quick-set sweep at 10k instructions on IO2 and OOO2. Held as
// their encoded values, 2229 entries take 90 B each; as structs with a
// full energy.Counts per segment, their keys, durations and counts took
// 550. The same sweep's bound with that overhead counted is
// internal/exocore's TestQuickSweepMemoHeldBytes, which the package's
// test-only view of the arena serves.
func TestQuickSweepMemoBytesPerEntry(t *testing.T) {
	eng, _, _, _ := quickSweep(t)
	ec := eng.Metrics().EvalCache
	if ec.Entries == 0 {
		t.Fatal("the sweep memoized no unit")
	}
	perEntry := float64(ec.ResidentBytes) / float64(ec.Entries)
	if perEntry > 128 {
		t.Errorf("memo holds %.1f B per entry (%d B over %d entries), want at most 128", perEntry, ec.ResidentBytes, ec.Entries)
	}
	t.Logf("memo: %d entries, %d resident bytes, %.1f B per entry", ec.Entries, ec.ResidentBytes, perEntry)
}
