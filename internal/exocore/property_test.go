package exocore

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"exocore/internal/cores"
)

// TestArbitraryAssignmentsAreSane fuzzes the engine with random legal
// assignments drawn from the plans and checks global invariants: segments
// partition the trace, cycles are positive and bounded, energy events are
// non-negative, and per-model instruction attribution sums to the trace
// length.
func TestArbitraryAssignmentsAreSane(t *testing.T) {
	benches := []string{"cjpeg", "mm", "vr", "mcf", "h264ref"}
	rng := rand.New(rand.NewSource(7))
	for _, bench := range benches {
		td := buildTDG(t, bench, 20000)
		bsas := allBSAs()
		plans := analyzeAll(td, bsas)

		// Collect all legal (loop, bsa) pairs.
		type cand struct {
			loop int
			bsa  string
		}
		var cands []cand
		for name, plan := range plans {
			for l := range plan.Regions {
				cands = append(cands, cand{l, name})
			}
		}
		sort.Slice(cands, func(i, j int) bool {
			if cands[i].loop != cands[j].loop {
				return cands[i].loop < cands[j].loop
			}
			return cands[i].bsa < cands[j].bsa
		})
		if len(cands) == 0 {
			continue
		}

		for trial := 0; trial < 8; trial++ {
			assign := Assignment{}
			for _, c := range cands {
				if rng.Intn(3) == 0 {
					assign[c.loop] = c.bsa // later entries may overwrite: fine
				}
			}
			res, err := Run(td, cores.OOO2, bsas, plans, assign, RunOpts{RecordSegments: true})
			if err != nil {
				t.Fatalf("%s trial %d (%v): %v", bench, trial, assign, err)
			}
			if res.Cycles <= 0 || res.Cycles > int64(td.Trace.Len())*300 {
				t.Errorf("%s: implausible cycles %d for %d insts", bench, res.Cycles, td.Trace.Len())
			}
			var dyn int64
			for i := range res.Models {
				dyn += res.Models[i].Dyn
			}
			if dyn != int64(td.Trace.Len()) {
				t.Errorf("%s: attribution covers %d of %d insts", bench, dyn, td.Trace.Len())
			}
			covered := 0
			var prevEnd int64
			for _, s := range res.Segments {
				covered += s.Dyn
				if s.StartCycle < prevEnd {
					t.Errorf("%s: segment timeline not monotone", bench)
				}
				prevEnd = s.EndCycle
			}
			if covered != td.Trace.Len() {
				t.Errorf("%s: segments cover %d of %d insts", bench, covered, td.Trace.Len())
			}
			for i, v := range res.Counts {
				if v < 0 {
					t.Errorf("%s: negative energy event %d", bench, i)
				}
			}
			e := EnergyOf(res, cores.OOO2, bsas)
			if e.TotalNJ() <= 0 {
				t.Errorf("%s: non-positive energy", bench)
			}
		}
	}
}

// TestRandomizedAssignmentsDeltaEqualsFull is the property-level gate for
// the incremental delta-evaluation path: over a seeded corpus of random
// assignments, a Run through the delta machinery (shared cache, atom
// segmentation, cross-core shared pool) must agree
// exactly — cycles, energy counts, model attribution, offload cycles and
// per-region stats — with a cache-less Run, which segmentizes and
// evaluates from scratch, on the same assignment.
// The cache is shared across the whole corpus so later assignments
// exercise unit reuse against outcomes stored by earlier ones, and
// both cores draw from the same process-wide shared-pool registry the way
// a DSE sweep does.
func TestRandomizedAssignmentsDeltaEqualsFull(t *testing.T) {
	const (
		maxDyn      = 8000
		assignments = 12
	)
	rng := rand.New(rand.NewSource(7))
	bsas := allBSAs()
	names := make([]string, 0, len(bsas))
	for n := range bsas {
		names = append(names, n)
	}
	sort.Strings(names)

	for _, bench := range []string{"mm", "cjpeg"} {
		td := buildTDG(t, bench, maxDyn)
		plans := analyzeAll(td, bsas)

		// Assignable loops with their candidate BSAs, in loop order so the
		// rng consumption (and thus the corpus) is deterministic.
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
		if len(loops) == 0 {
			t.Fatalf("%s: no assignable loops", bench)
		}

		for _, core := range []cores.Config{cores.IO2, cores.OOO4} {
			cache := NewCache(core)
			for i := 0; i < assignments; i++ {
				assign := Assignment{}
				for _, l := range loops {
					if rng.Intn(2) == 0 {
						continue
					}
					cs := cands[l]
					assign[l] = cs[rng.Intn(len(cs))]
				}
				regions := i%2 == 0

				delta, err := Run(td, core, bsas, plans, assign,
					RunOpts{Cache: cache, RecordRegions: regions})
				if err != nil {
					t.Fatal(err)
				}
				full, err := Run(td, core, bsas, plans, assign,
					RunOpts{RecordRegions: regions})
				if err != nil {
					t.Fatal(err)
				}

				if delta.Cycles != full.Cycles {
					t.Errorf("%s/%s #%d %v: delta cycles %d != full %d",
						bench, core.Name, i, assign, delta.Cycles, full.Cycles)
				}
				if delta.Counts != full.Counts {
					t.Errorf("%s/%s #%d %v: energy counts diverge", bench, core.Name, i, assign)
				}
				if delta.OffloadCycles != full.OffloadCycles {
					t.Errorf("%s/%s #%d %v: offload cycles %d != %d",
						bench, core.Name, i, assign, delta.OffloadCycles, full.OffloadCycles)
				}
				if !reflect.DeepEqual(delta.Models, full.Models) {
					t.Errorf("%s/%s #%d %v: model attribution diverges:\ndelta: %+v\nfull:  %+v",
						bench, core.Name, i, assign, delta.Models, full.Models)
				}
				if !reflect.DeepEqual(delta.Regions, full.Regions) {
					t.Errorf("%s/%s #%d %v: region stats diverge:\ndelta: %+v\nfull:  %+v",
						bench, core.Name, i, assign, delta.Regions, full.Regions)
				}
			}
		}
	}
}

// TestMoreBSAsNeverWorseUnderOracle checks monotonicity of the oracle
// composition: adding an accelerator to the available set can only keep
// or improve the chosen design's energy-delay (the oracle may always
// ignore the newcomer).
func TestMoreBSAsNeverWorseUnderOracle(t *testing.T) {
	// This is an engine+scheduler integration property, checked through
	// the measured candidates in sched — here we verify the engine side:
	// the empty assignment always reproduces the baseline exactly.
	for _, bench := range []string{"mm", "gzip"} {
		td := buildTDG(t, bench, 15000)
		bsas := allBSAs()
		plans := analyzeAll(td, bsas)
		a, err := Run(td, cores.OOO4, bsas, plans, nil, RunOpts{})
		if err != nil {
			t.Fatal(err)
		}
		b, err := Run(td, cores.OOO4, bsas, plans, Assignment{}, RunOpts{})
		if err != nil {
			t.Fatal(err)
		}
		if a.Cycles != b.Cycles {
			t.Errorf("%s: nil vs empty assignment differ: %d vs %d", bench, a.Cycles, b.Cycles)
		}
		ref, _ := cores.Evaluate(cores.OOO4, td.Trace)
		if a.Cycles != ref {
			t.Errorf("%s: engine baseline %d != direct evaluation %d", bench, a.Cycles, ref)
		}
	}
}

// TestDeterminism: identical runs must produce identical results.
func TestDeterminism(t *testing.T) {
	td := buildTDG(t, "cjpeg", 20000)
	bsas := allBSAs()
	plans := analyzeAll(td, bsas)
	assign := Assignment{}
	for l := range plans["NS-DF"].Regions {
		assign[l] = "NS-DF"
	}
	a, err := Run(td, cores.OOO2, bsas, plans, assign, RunOpts{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(td, cores.OOO2, allBSAs(), plans, assign, RunOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if a.Cycles != b.Cycles || a.Counts != b.Counts {
		t.Error("engine runs are not deterministic")
	}
}
