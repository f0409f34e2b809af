package exocore

import (
	"testing"

	"exocore/internal/bsa"
	"exocore/internal/cores"
	"exocore/internal/tdg"
	"exocore/internal/workloads"
)

func buildTDG(t *testing.T, name string, maxDyn int) *tdg.TDG {
	t.Helper()
	w, err := workloads.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := w.Trace(maxDyn)
	if err != nil {
		t.Fatal(err)
	}
	td, err := tdg.Build(tr)
	if err != nil {
		t.Fatal(err)
	}
	return td
}

func allBSAs() map[string]tdg.BSA {
	return bsa.Standard().New()
}

func analyzeAll(t *tdg.TDG, bsas map[string]tdg.BSA) map[string]*tdg.Plan {
	plans := make(map[string]*tdg.Plan, len(bsas))
	for name, b := range bsas {
		plans[name] = b.Analyze(t)
	}
	return plans
}

func TestBaselineRunMatchesEvaluate(t *testing.T) {
	td := buildTDG(t, "mm", 30000)
	res, err := Run(td, cores.OOO2, allBSAs(), analyzeAll(td, allBSAs()), nil, RunOpts{})
	if err != nil {
		t.Fatal(err)
	}
	ref, _ := cores.Evaluate(cores.OOO2, td.Trace)
	if res.Cycles != ref {
		t.Errorf("engine baseline = %d cycles, direct evaluate = %d", res.Cycles, ref)
	}
	if res.UnacceleratedFraction() != 1 {
		t.Errorf("no assignment but unaccelerated = %v", res.UnacceleratedFraction())
	}
}

func TestSegmentizeCoversTrace(t *testing.T) {
	td := buildTDG(t, "mm", 30000)
	bsas := allBSAs()
	plans := analyzeAll(td, bsas)
	// Assign every SIMD-plannable loop.
	assign := Assignment{}
	for l := range plans["SIMD"].Regions {
		assign[l] = "SIMD"
	}
	if len(assign) == 0 {
		t.Fatal("SIMD found no vectorizable loop in mm")
	}
	eachSegmentizer(t, td, assign, func(t *testing.T, segs []Segment) {
		checkCoverage(t, td, segs)
	})
}

func TestEachBSASpeedsUpItsAffineWorkload(t *testing.T) {
	cases := []struct {
		workload string
		bsa      string
		core     cores.Config
		minGain  float64 // required speedup over the plain core
	}{
		{"mm", "SIMD", cores.OOO2, 1.3},
		{"mm", "NS-DF", cores.OOO2, 1.2},
		{"stencil", "SIMD", cores.OOO2, 1.3},
		{"spmv", "NS-DF", cores.OOO2, 1.0},
		{"nbody", "DP-CGRA", cores.OOO2, 1.3},
		{"nbody", "SIMD", cores.OOO2, 1.3},
		{"vr", "Trace-P", cores.OOO2, 1.0},
	}
	for _, c := range cases {
		t.Run(c.workload+"/"+c.bsa, func(t *testing.T) {
			td := buildTDG(t, c.workload, 30000)
			bsas := allBSAs()
			plans := analyzeAll(td, bsas)
			base, _ := cores.Evaluate(c.core, td.Trace)

			assign := Assignment{}
			for l := range plans[c.bsa].Regions {
				// Only assign outermost eligible loops for offload BSAs.
				assign[l] = c.bsa
			}
			if len(assign) == 0 {
				t.Fatalf("%s has no plan for %s", c.bsa, c.workload)
			}
			res, err := Run(td, c.core, bsas, plans, assign, RunOpts{})
			if err != nil {
				t.Fatal(err)
			}
			speedup := float64(base) / float64(res.Cycles)
			t.Logf("%s on %s: base=%d accel=%d speedup=%.2f offloaded=%.0f%%",
				c.bsa, c.workload, base, res.Cycles, speedup,
				100*(1-res.UnacceleratedFraction()))
			if speedup < c.minGain {
				t.Errorf("speedup %.2f < required %.2f", speedup, c.minGain)
			}
		})
	}
}

func TestEnergyOfAccountsStatics(t *testing.T) {
	td := buildTDG(t, "mm", 20000)
	bsas := allBSAs()
	plans := analyzeAll(td, bsas)
	res, err := Run(td, cores.OOO2, bsas, plans, nil, RunOpts{})
	if err != nil {
		t.Fatal(err)
	}
	e := EnergyOf(res, cores.OOO2, bsas)
	if e.DynamicNJ <= 0 || e.StaticNJ <= 0 {
		t.Errorf("energy components must be positive: %+v", e)
	}

	// NS-DF offload must gate the core and be more energy-efficient than
	// the plain core on this kernel.
	assign := Assignment{}
	for l := range plans["NS-DF"].Regions {
		if td.Nest.Loops[l].Depth == 1 {
			assign[l] = "NS-DF"
		}
	}
	res2, err := Run(td, cores.OOO2, bsas, plans, assign, RunOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if res2.OffloadCycles == 0 {
		t.Error("NS-DF run recorded no offload cycles")
	}
	e2 := EnergyOf(res2, cores.OOO2, bsas)
	if e2.TotalNJ() >= e.TotalNJ() {
		t.Errorf("NS-DF offload should save energy on mm: %.1f vs %.1f nJ",
			e2.TotalNJ(), e.TotalNJ())
	}
}

func TestRunRejectsBadAssignments(t *testing.T) {
	td := buildTDG(t, "mm", 5000)
	bsas := allBSAs()
	plans := analyzeAll(td, bsas)
	if _, err := Run(td, cores.OOO2, bsas, plans, Assignment{999: "SIMD"}, RunOpts{}); err == nil {
		t.Error("unknown loop accepted")
	}
	if _, err := Run(td, cores.OOO2, bsas, plans, Assignment{0: "BOGUS"}, RunOpts{}); err == nil {
		t.Error("unknown BSA accepted")
	}
}

func TestRecordSegments(t *testing.T) {
	td := buildTDG(t, "mm", 20000)
	bsas := allBSAs()
	plans := analyzeAll(td, bsas)
	assign := Assignment{}
	for l := range plans["SIMD"].Regions {
		assign[l] = "SIMD"
	}
	res, err := Run(td, cores.OOO2, bsas, plans, assign, RunOpts{RecordSegments: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Segments) == 0 {
		t.Fatal("no segments recorded")
	}
	var prevEnd int64
	sawBSA := false
	for _, s := range res.Segments {
		if s.StartCycle < prevEnd {
			t.Errorf("segment starts before previous ended: %+v", s)
		}
		if s.BSA == "SIMD" {
			sawBSA = true
		}
		prevEnd = s.EndCycle
	}
	if !sawBSA {
		t.Error("no SIMD segment in timeline")
	}
}

// TestAssignmentErrorIsDeterministic holds Run's assignment check to one
// answer per assignment: with an unknown loop, an unknown BSA and a
// valid entry in one assignment, every call reports the lowest invalid
// loop ID's error, whatever order the map iterates in, and checking a
// valid assignment allocates nothing.
func TestAssignmentErrorIsDeterministic(t *testing.T) {
	td := buildTDG(t, "mm", 4000)
	bsas := allBSAs()
	plans := analyzeAll(td, bsas)
	valid := Assignment{}
	for l := range plans["SIMD"].Regions {
		valid[l] = "SIMD"
	}
	if len(valid) == 0 {
		t.Fatal("SIMD plans no loop of mm")
	}
	assign := Assignment{1 << 20: "SIMD"}
	for l, name := range valid {
		assign[l] = name
	}
	assign[0] = "nope"
	want := `exocore: assignment names unknown BSA "nope"`
	for i := range 200 {
		_, err := Run(td, cores.OOO2, bsas, plans, assign, RunOpts{})
		if err == nil || err.Error() != want {
			t.Fatalf("call %d: error %v, want %s", i, err, want)
		}
	}
	if _, err := Run(td, cores.OOO2, bsas, plans, Assignment{-1: "SIMD", 1 << 20: "nope"}, RunOpts{}); err == nil ||
		err.Error() != "exocore: assignment names unknown loop -1" {
		t.Errorf("negative loop: error %v, want unknown loop -1", err)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if err := checkAssignment(td, bsas, plans, valid); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("checking a valid assignment allocates %v objects, want 0", allocs)
	}
}
