package dse

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"exocore/internal/bsa"
	"exocore/internal/cli"
	"exocore/internal/cores"
	"exocore/internal/runner"
	"exocore/internal/sched"
)

// TestColdExploreReleasesEveryBench: a cold exploration of the quick
// set leaves no bench resident, so a lookup afterwards rebuilds every
// trace, TDG and context. At one worker its unit-cache counters equal
// those of the same exploration over contexts warmed beforehand:
// dropping a bench loses none of its counts, and building contexts on
// demand changes none. BytesReused is left out: it counts the arena
// bytes pooled worker graphs served, which depends on how large they
// grew before each run, not on what the memo holds.
func TestColdExploreReleasesEveryBench(t *testing.T) {
	ws, err := cli.ResolveBenchSpec("quick")
	if err != nil {
		t.Fatal(err)
	}
	engine := func() *runner.Engine { return runner.New(runner.Options{MaxDyn: 10_000, Workers: 1}) }
	cold := engine()
	coldExp, err := Explore(Options{Workloads: ws, Engine: cold})
	if err != nil {
		t.Fatal(err)
	}
	warm := engine()
	for _, w := range ws {
		for _, core := range cores.Configs {
			schedContext(t, warm, w, core)
		}
	}
	warmExp, err := Explore(Options{Workloads: ws, Engine: warm})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(marshal(t, coldExp), marshal(t, warmExp)) {
		t.Error("cold and warmed explorations differ")
	}
	got, want := *cold.Metrics().EvalCache, *warm.Metrics().EvalCache
	got.BytesReused, want.BytesReused = 0, 0
	if got != want {
		t.Errorf("cold exploration's eval-cache counters %+v, warmed %+v", got, want)
	}

	before := cold.Metrics()
	for _, w := range ws {
		for _, core := range cores.Configs {
			schedContext(t, cold, w, core)
		}
	}
	after := cold.Metrics()
	for stage, n := range map[string]int{
		runner.StageTrace: len(ws), runner.StageTDG: len(ws), runner.StageSched: len(ws) * len(cores.Configs),
	} {
		if built := after.Stage(stage).Misses - before.Stage(stage).Misses; built != int64(n) {
			t.Errorf("%s: %d of %d artifacts rebuilt after a cold exploration, want all", stage, built, n)
		}
	}
}

// TestExploreKeepsResidentBenches: contexts warmed with Context before
// an exploration are the very contexts the engine holds after it, and
// the exploration builds only the cold bench's contexts, which it drops
// when done.
func TestExploreKeepsResidentBenches(t *testing.T) {
	ws := detWorkloads(t)
	warm, cold := ws[:2], ws[2]
	cs := []cores.Config{cores.IO2, cores.OOO2}
	eng := runner.New(runner.Options{MaxDyn: 10_000})
	held := map[string]*sched.Context{}
	for _, w := range warm {
		for _, core := range cs {
			held[w.Name+"/"+core.Name] = schedContext(t, eng, w, core)
		}
	}
	built := func() int64 { return eng.Metrics().Stage(runner.StageSched).Misses - int64(len(held)) }

	if _, err := Explore(Options{Workloads: ws, Cores: cs, Engine: eng}); err != nil {
		t.Fatal(err)
	}
	if n := built(); n != int64(len(cs)) {
		t.Errorf("the exploration built %d contexts, want %d (the cold bench's)", n, len(cs))
	}
	for _, w := range warm {
		for _, core := range cs {
			if schedContext(t, eng, w, core) != held[w.Name+"/"+core.Name] {
				t.Errorf("%s/%s: the exploration replaced a warmed context", w.Name, core.Name)
			}
		}
	}
	for _, core := range cs {
		schedContext(t, eng, cold, core)
	}
	if n := built(); n != int64(2*len(cs)) {
		t.Errorf("%d contexts built after looking the cold bench up again, want %d: its contexts outlived the exploration", n, 2*len(cs))
	}
}

// TestCancelledExploreReleasesItsBenches: a cancelled exploration
// releases the bench it cut short, though the bench's last evaluation
// never ran, so the bench is dropped like the ones it finished.
func TestCancelledExploreReleasesItsBenches(t *testing.T) {
	ws := detWorkloads(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var evals int
	eng := runner.New(runner.Options{MaxDyn: 10_000, Workers: 1, Progress: func(ev runner.Event) {
		if ev.Stage == runner.StageEval {
			if evals++; evals == 3 {
				cancel()
			}
		}
	}})
	_, err := ExploreCtx(ctx, Options{Workloads: ws, Cores: []cores.Config{cores.IO2}, Engine: eng})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled exploration returned %v", err)
	}
	if evals != 3 {
		t.Fatalf("%d evaluations ran after the cancel, want none", evals-3)
	}
	before := eng.Metrics().Stage(runner.StageTrace).Misses
	for _, w := range ws {
		if _, err := eng.Trace(w); err != nil {
			t.Fatal(err)
		}
	}
	if built := eng.Metrics().Stage(runner.StageTrace).Misses - before; built != int64(len(ws)) {
		t.Errorf("%d of %d traces rebuilt after a cancelled exploration, want all: the bench it cut short stayed resident", built, len(ws))
	}
}

// TestColdExploreRacesLookups races a cold exploration, which drops each
// bench's artifacts once its rows are in, against Context and Evaluate
// lookups of the same benches from other goroutines, some of which use
// a context after the exploration dropped it. Every number must equal a
// serial run's. make race runs it under the race detector.
func TestColdExploreRacesLookups(t *testing.T) {
	ws := detWorkloads(t)
	cs := []cores.Config{cores.IO2, cores.OOO2}
	serial := runner.New(runner.Options{MaxDyn: 10_000, Workers: 1})
	want, err := Explore(Options{Workloads: ws, Cores: cs, Engine: serial})
	if err != nil {
		t.Fatal(err)
	}
	reg := serial.BSAs()
	masks := []int{1<<reg.Len() - 1, 1, 0b110}
	type key struct {
		bench, core string
		mask        int
	}
	type point struct {
		cycles int64
		energy float64
	}
	ref := map[key]point{}
	for _, w := range ws {
		for _, core := range cs {
			sc := schedContext(t, serial, w, core)
			for _, mask := range masks {
				c, e, err := sc.Evaluate(sc.Oracle(reg.SubsetNames(mask)))
				if err != nil {
					t.Fatal(err)
				}
				ref[key{w.Name, core.Name, mask}] = point{c, e}
			}
		}
	}

	eng := runner.New(runner.Options{MaxDyn: 10_000, Workers: 4})
	var wg sync.WaitGroup
	var got *Exploration
	var exploreErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		got, exploreErr = Explore(Options{Workloads: ws, Cores: cs, Engine: eng})
	}()
	const lookups = 2
	errs := make([]error, lookups)
	for g := range lookups {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[g] = func() error {
				for i := range 2 * len(ws) {
					w := ws[(i+g)%len(ws)]
					for _, core := range cs {
						sc, err := eng.Context(w, core)
						if err != nil {
							return err
						}
						for _, mask := range masks {
							assign := sc.Oracle(reg.SubsetNames(mask))
							c, e, err := eng.Evaluate(w, core, assign)
							if err != nil {
								return err
							}
							c2, e2, err := sc.Evaluate(assign)
							if err != nil {
								return err
							}
							if p := ref[key{w.Name, core.Name, mask}]; c != p.cycles || e != p.energy || c2 != p.cycles || e2 != p.energy {
								return fmt.Errorf("%s/%s mask %b: engine (%d, %v), context (%d, %v), serial (%d, %v)",
									w.Name, core.Name, mask, c, e, c2, e2, p.cycles, p.energy)
							}
						}
					}
				}
				return nil
			}()
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
	if exploreErr != nil {
		t.Fatal(exploreErr)
	}
	if !bytes.Equal(marshal(t, got), marshal(t, want)) {
		t.Error("an exploration raced by lookups differs from the serial one")
	}
}

// TestSweepJobsLayout: every bench gets one context build per core and
// one evaluation per design, its builds come just before the previous
// bench's evaluations, and its evaluations alternate cores.
func TestSweepJobsLayout(t *testing.T) {
	designs, err := designGrid(bsa.Default(), []string{"IO2", "IO2-S", "IO2-D", "OOO2"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	jobs, perBench := sweepJobs(2, designs)
	var got []string
	for _, j := range jobs {
		if j.design == nil {
			got = append(got, fmt.Sprintf("%d:build %s", j.bench, j.core.Name))
		} else {
			got = append(got, fmt.Sprintf("%d:%s", j.bench, j.design.Code))
		}
	}
	want := []string{
		"0:build IO2", "0:build OOO2",
		"1:build IO2", "1:build OOO2",
		"0:IO2", "0:OOO2", "0:IO2-S", "0:IO2-D",
		"1:IO2", "1:OOO2", "1:IO2-S", "1:IO2-D",
	}
	if fmt.Sprint(got) != fmt.Sprint(want) || perBench != 6 {
		t.Errorf("jobs %q (%d a bench), want %q (6 a bench)", got, perBench, want)
	}
}
