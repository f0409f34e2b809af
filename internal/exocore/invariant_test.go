package exocore_test

import (
	"math/rand"
	"testing"

	"exocore/internal/cores"
	"exocore/internal/energy"
	"exocore/internal/exocore"
	"exocore/internal/runner"
	"exocore/internal/workloads"
)

// TestAttributionPartitionsEveryRun holds every attributed run to the
// per-region table's physics: over all benchmarks, every core and a
// spread of Oracle designs — no BSA, each BSA alone, all of them and
// random subsets — the regions' critical-path class latencies sum to the
// run's cycles, their dynamic instructions to the trace length, and their
// energy events to the run's. The runs go through each scheduling
// context's cache, as the daemon's report runs do.
func TestAttributionPartitionsEveryRun(t *testing.T) {
	eng := runner.New(runner.Options{MaxDyn: 10_000})
	reg := eng.BSAs()
	full := 1<<reg.Len() - 1
	masks := []int{0, full}
	for i := 0; i < reg.Len(); i++ {
		masks = append(masks, 1<<i)
	}
	rng := rand.New(rand.NewSource(16))
	for len(masks) < reg.Len()+6 {
		masks = append(masks, 1+rng.Intn(full))
	}
	runs := 0
	for _, w := range workloads.All() {
		td, err := eng.TDG(w)
		if err != nil {
			t.Fatal(err)
		}
		for _, core := range cores.Configs {
			sc, err := eng.Context(w, core)
			if err != nil {
				t.Fatal(err)
			}
			for _, mask := range masks {
				res, err := exocore.Run(td, core, sc.BSAs, sc.Plans, sc.Oracle(reg.SubsetNames(mask)),
					exocore.RunOpts{Cache: sc.Cache, RecordRegions: true})
				if err != nil {
					t.Fatal(err)
				}
				runs++
				var dyn, classes int64
				var counts energy.Counts
				for i := range res.Regions {
					rs := &res.Regions[i]
					dyn += rs.Dyn
					counts.AddCounts(&rs.Counts)
					for _, v := range rs.Classes {
						classes += v
					}
				}
				if classes != res.Cycles || dyn != int64(td.Trace.Len()) || counts != res.Counts {
					t.Errorf("%s/%s %s: regions hold %d path cycles of %d, %d of %d instructions, energy equal %v",
						w.Name, core.Name, reg.SubsetName(mask), classes, res.Cycles, dyn, td.Trace.Len(), counts == res.Counts)
				}
			}
		}
	}
	t.Logf("%d attributed runs", runs)
}
