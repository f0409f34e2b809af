package serve

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"exocore/internal/bsa"
	"exocore/internal/cli"
	"exocore/internal/cores"
	"exocore/internal/exocore"
	"exocore/internal/runner"
)

// servedBenches are the benchmarks a warm daemon is typically asked
// about: the quick set plus two graph kernels.
var servedBenches = append(append([]string(nil), cli.QuickSet...), "bfs", "pagerank")

// TestReportMatchesUncachedRun holds the engine's report stage — the
// attributed run behind every /v1/evaluate — to a cache-less
// exocore.Run with region attribution on every served benchmark and
// core, under the Oracle assignment of no BSAs, of each single BSA and
// of all of them, plus the Amdahl tree of all of them. The first call
// must leave the context's unit cache as it found it (attributed runs
// ignore it), and a repeated call must be a pure memo read: the same
// result, no unit-cache traffic and one more report hit.
func TestReportMatchesUncachedRun(t *testing.T) {
	wls, err := cli.ResolveBenchSpec(strings.Join(servedBenches, ","))
	if err != nil {
		t.Fatal(err)
	}
	eng := runner.New(runner.Options{MaxDyn: testMaxDyn})
	names := eng.BSAs().Names()
	for _, w := range wls {
		for _, core := range cores.Configs {
			sc, err := eng.Context(w, core)
			if err != nil {
				t.Fatal(err)
			}
			assigns := []exocore.Assignment{sc.Oracle(nil)}
			for _, n := range names {
				assigns = append(assigns, sc.Oracle([]string{n}))
			}
			assigns = append(assigns, sc.Oracle(names), sc.AmdahlTree(names))
			seen := map[string]bool{}
			for _, a := range assigns {
				key := w.Name + "/" + core.Name + "/" + runner.AssignmentKey(a)
				if seen[key] {
					continue
				}
				seen[key] = true
				before := sc.Cache.Stats()
				got, err := eng.Report(w, core, a)
				if err != nil {
					t.Fatal(err)
				}
				if after := sc.Cache.Stats(); after != before {
					t.Errorf("%s: the first Report moved the unit cache's counters: %+v -> %+v", key, before, after)
				}
				want, err := exocore.Run(sc.TDG, core, sc.BSAs, sc.Plans, a, exocore.RunOpts{RecordRegions: true})
				if err != nil {
					t.Fatal(err)
				}
				for _, f := range []struct {
					name      string
					got, want any
				}{
					{"Cycles", got.Cycles, want.Cycles},
					{"Counts", got.Counts, want.Counts},
					{"Models", got.Models, want.Models},
					{"OffloadCycles", got.OffloadCycles, want.OffloadCycles},
					{"Regions", got.Regions, want.Regions},
				} {
					if !reflect.DeepEqual(f.got, f.want) {
						t.Errorf("%s: report %s = %v, uncached run %v", key, f.name, f.got, f.want)
					}
				}

				units := sc.Cache.Stats()
				hits := eng.Metrics().Stage(runner.StageReport).Hits
				again, err := eng.Report(w, core, a)
				if err != nil {
					t.Fatal(err)
				}
				if again != got {
					t.Errorf("%s: repeated Report returned a new result", key)
				}
				if after := sc.Cache.Stats(); after.Hits != units.Hits || after.Misses != units.Misses {
					t.Errorf("%s: repeated Report touched the unit cache: hits %d -> %d, misses %d -> %d",
						key, units.Hits, after.Hits, units.Misses, after.Misses)
				}
				if h := eng.Metrics().Stage(runner.StageReport).Hits; h != hits+1 {
					t.Errorf("%s: report hits %d -> %d, want one more", key, hits, h)
				}
			}
		}
	}
}

// TestEvaluateDocumentConcurrent renders overlapping queries from eight
// goroutines through EvaluateDocument on one fresh engine. Every
// document must equal the serial render on an engine of its own, and
// the report stage must compute each distinct (bench, core, assignment)
// exactly once however the goroutines interleave.
func TestEvaluateDocumentConcurrent(t *testing.T) {
	type query struct {
		bench string
		core  cores.Config
		bsas  []string
		sched string
	}
	var queries []query
	for _, bench := range []string{"mm", "gzip"} {
		for _, core := range []cores.Config{cores.IO2, cores.OOO2} {
			for _, bsas := range [][]string{nil, {"SIMD"}, {"NS-DF", "Trace-P"}, bsa.Default().Names()} {
				for _, sched := range []string{"oracle", "amdahl"} {
					queries = append(queries, query{bench, core, bsas, sched})
				}
			}
		}
	}
	render := func(eng *runner.Engine, q query) ([]byte, error) {
		wls, err := cli.ResolveBenchSpec(q.bench)
		if err != nil {
			return nil, err
		}
		doc, err := EvaluateDocument(context.Background(), eng, "exocored", wls, q.core, q.bsas, q.sched, nil)
		if err != nil {
			return nil, err
		}
		return doc.Render()
	}

	serial := runner.New(runner.Options{MaxDyn: testMaxDyn})
	want := make([][]byte, len(queries))
	keys := map[string]bool{}
	for i, q := range queries {
		b, err := render(serial, q)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = b
		w, err := cli.ResolveBenchSpec(q.bench)
		if err != nil {
			t.Fatal(err)
		}
		sc, err := serial.Context(w[0], q.core)
		if err != nil {
			t.Fatal(err)
		}
		assign := sc.Oracle(q.bsas)
		if q.sched == "amdahl" {
			assign = sc.AmdahlTree(q.bsas)
		}
		keys[q.bench+"/"+q.core.Name+"/"+runner.AssignmentKey(assign)] = true
	}

	const goroutines = 8
	eng := runner.New(runner.Options{MaxDyn: testMaxDyn})
	var wg sync.WaitGroup
	errs := make(chan error, goroutines*len(queries))
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// Each goroutine starts at its own offset, so every key is
			// requested by several goroutines at different moments.
			for j := range queries {
				i := (j + g*len(queries)/goroutines) % len(queries)
				got, err := render(eng, queries[i])
				if err != nil {
					errs <- err
					continue
				}
				if string(got) != string(want[i]) {
					errs <- fmt.Errorf("goroutine %d, query %+v: document differs from the serial render", g, queries[i])
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if m := eng.Metrics().Stage(runner.StageReport); m.Misses != int64(len(keys)) {
		t.Errorf("report misses = %d, want one per distinct key (%d) over %d calls", m.Misses, len(keys), m.Calls)
	}
}
