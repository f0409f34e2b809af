package exocore

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"exocore/internal/cores"
)

// TestWindowedRunMatchesWholeTrace is the property-level gate for
// per-segment retirement: over a randomized corpus of (benchmark, core,
// assignment) triples, a lean Run, which retires every segment's µDG
// nodes when the segment ends, must agree exactly — cycles, energy
// counts, model attribution, offload cycles — with an attributed
// (RecordRegions) Run, which never retires and holds every unit's whole
// graph in memory.
func TestWindowedRunMatchesWholeTrace(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	bsas := allBSAs()
	names := make([]string, 0, len(bsas))
	for n := range bsas {
		names = append(names, n)
	}
	sort.Strings(names)

	for _, bench := range []string{"cjpeg", "mm", "vr"} {
		td := buildTDG(t, bench, 20000)
		plans := analyzeAll(td, bsas)

		var loops []int
		cands := make(map[int][]string)
		for l := range td.Nest.Loops {
			for _, n := range names {
				if plans[n].Region(l) != nil {
					cands[l] = append(cands[l], n)
				}
			}
			if len(cands[l]) > 0 {
				loops = append(loops, l)
			}
		}
		sort.Ints(loops)

		for _, core := range []cores.Config{cores.IO2, cores.OOO2, cores.OOO6} {
			for trial := 0; trial < 4; trial++ {
				assign := Assignment{}
				for _, l := range loops {
					if rng.Intn(2) == 0 {
						continue
					}
					cs := cands[l]
					assign[l] = cs[rng.Intn(len(cs))]
				}
				rng.Intn(3) // unused draw: keeps the seeded assignment corpus fixed

				whole, err := Run(td, core, bsas, plans, assign,
					RunOpts{RecordRegions: true})
				if err != nil {
					t.Fatal(err)
				}
				windowed, err := Run(td, core, bsas, plans, assign, RunOpts{})
				if err != nil {
					t.Fatal(err)
				}

				if windowed.Cycles != whole.Cycles {
					t.Errorf("%s/%s trial %d %v: cycles %d != %d",
						bench, core.Name, trial, assign, windowed.Cycles, whole.Cycles)
				}
				if windowed.Counts != whole.Counts {
					t.Errorf("%s/%s trial %d %v: energy counts diverge",
						bench, core.Name, trial, assign)
				}
				if windowed.OffloadCycles != whole.OffloadCycles {
					t.Errorf("%s/%s trial %d %v: offload cycles %d != %d",
						bench, core.Name, trial, assign, windowed.OffloadCycles, whole.OffloadCycles)
				}
				if !reflect.DeepEqual(windowed.Models, whole.Models) {
					t.Errorf("%s/%s trial %d %v: model attribution diverges",
						bench, core.Name, trial, assign)
				}
			}
		}
	}
}
