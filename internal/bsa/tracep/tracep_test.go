package tracep

import (
	"testing"

	"exocore/internal/bsa/bsautil"
	"exocore/internal/cores"
	"exocore/internal/isa"
	"exocore/internal/prog"
	"exocore/internal/sim"
	"exocore/internal/tdg"
	"exocore/internal/testutil"
)

// blocksOf returns the basic-block entry sequence of trace[start:end) —
// the iteration's path — materialized: the reference matchHotPath's fused
// walk is held to.
func blocksOf(t *tdg.TDG, start, end int) []int {
	var blocks []int
	prev, prevSI := -1, -1
	for i := start; i < end; i++ {
		si := int(t.Trace.Insts[i].SI)
		b := t.CFG.BlockOf[si]
		if b != prev || si <= prevSI {
			blocks = append(blocks, b)
			prev = b
		}
		prevSI = si
	}
	return blocks
}

// TestBlocksOf checks the reference itself on a single-block loop: an
// iteration enters its block once, and the next iteration's re-entry
// into the same block is a new entry.
func TestBlocksOf(t *testing.T) {
	b := prog.NewBuilder("count")
	b.MovI(isa.R(1), 3)
	b.Label("loop")
	b.AddI(isa.R(2), isa.R(2), 1)
	b.SubI(isa.R(1), isa.R(1), 1)
	b.Bne(isa.R(1), isa.RZ, "loop")
	tr, err := sim.Run(b.MustBuild(), sim.NewState(), sim.Config{MaxDyn: 100})
	if err != nil {
		t.Fatal(err)
	}
	td, err := tdg.Build(tr)
	if err != nil {
		t.Fatal(err)
	}
	if blocks := blocksOf(td, 1, 4); len(blocks) != 1 { // one iteration
		t.Errorf("blocks = %v, want single block", blocks)
	}
	if blocks := blocksOf(td, 1, 7); len(blocks) != 2 {
		t.Errorf("blocks over 2 iterations = %v, want re-entry", blocks)
	}
}

func TestAnalyzerRequiresHotTraces(t *testing.T) {
	// vr: biased early-exit — eligible. merge: 50/50 path split — not.
	tdVR := testutil.TDGFor(t, "vr", 25000)
	if plan := New().Analyze(tdVR); len(plan.Regions) == 0 {
		t.Error("vr has a hot trace but no Trace-P plan")
	}
	tdMerge := testutil.TDGFor(t, "merge", 25000)
	plan := New().Analyze(tdMerge)
	hot := tdMerge.Prof.SortedLoopsByShare()[0]
	if plan.Region(hot) != nil {
		t.Error("merge's 50/50 loop must not be trace-speculated")
	}
}

func TestAnalyzerThresholds(t *testing.T) {
	td := testutil.TDGFor(t, "vr", 25000)
	m := New()
	m.MinHotFrac = 1.01 // impossible
	if plan := m.Analyze(td); len(plan.Regions) != 0 {
		t.Error("MinHotFrac not enforced")
	}
	m = New()
	m.MaxStaticInsts = 1
	if plan := m.Analyze(td); len(plan.Regions) != 0 {
		t.Error("MaxStaticInsts not enforced")
	}
}

func TestSpeculationWinsOnBiasedControl(t *testing.T) {
	td := testutil.TDGFor(t, "vr", 25000)
	base, accel, baseE, accelE := testutil.SoloRun(t, td, cores.OOO2, New())
	sp := float64(base) / float64(accel)
	t.Logf("vr: %.2fx perf, %.2fx energy", sp, baseE/accelE)
	if sp < 1.2 {
		t.Errorf("Trace-P speedup %.2f < 1.2 on its target behavior", sp)
	}
	if accelE >= baseE {
		t.Error("no energy saving")
	}
}

func TestReplaysCostPerformance(t *testing.T) {
	// gsm's filter loop has occasional saturation divergences: Trace-P
	// still wins, but the replay machinery must be exercised (the model
	// records EvReplay counts via wasted work accounting).
	td := testutil.TDGFor(t, "gsmencode", 25000)
	base, accel, _, _ := testutil.SoloRun(t, td, cores.OOO2, New())
	if accel <= 0 || base <= 0 {
		t.Fatal("bad cycles")
	}
	t.Logf("gsmencode: %.2fx", float64(base)/float64(accel))
}

func TestBERETPresetIsSlowerButStillEfficient(t *testing.T) {
	// The serialized BERET preset must not beat the dataflow Trace-P on
	// performance for the same region set.
	td := testutil.TDGFor(t, "vr", 25000)
	_, tp, _, _ := testutil.SoloRun(t, td, cores.IO2, New())
	_, beret, _, beretE := testutil.SoloRun(t, td, cores.IO2, NewBERET())
	if beret < tp {
		t.Errorf("serialized BERET (%d) faster than dataflow Trace-P (%d)", beret, tp)
	}
	if beretE <= 0 {
		t.Error("missing energy")
	}
}

func TestModelMetadata(t *testing.T) {
	m := New()
	if m.Name() != "Trace-P" || !m.OffloadsCore() {
		t.Error("metadata wrong")
	}
	b := NewBERET()
	if b.Name() != "BERET" || b.MinBackProb >= m.MinBackProb {
		t.Error("BERET preset wrong")
	}
}

func TestMatchHotPathAgainstBlocksOf(t *testing.T) {
	// Differential: the fused matcher must agree with materializing the
	// block path and comparing it, on every iteration of a real region.
	td := testutil.TDGFor(t, "vr", 25000)
	plan := New().Analyze(td)
	if len(plan.Regions) == 0 {
		t.Fatal("no Trace-P region on vr")
	}
	checked := 0
	for _, r := range plan.Regions {
		tp := r.Config.(*tracePlan)
		iters := bsautil.SplitIterations(td, r.LoopID, 0, td.Trace.Len())
		for _, it := range iters {
			path := blocksOf(td, it.Start, it.End)
			wantShared := 0
			for wantShared < len(path) && wantShared < len(tp.hotPath) &&
				path[wantShared] == tp.hotPath[wantShared] {
				wantShared++
			}
			wantMatch := len(path) == len(tp.hotPath) && wantShared == len(path)
			gotMatch, gotShared := matchHotPath(td, it.Start, it.End, tp.hotPath)
			if gotMatch != wantMatch || gotShared != wantShared {
				t.Fatalf("iteration [%d,%d): match=%v shared=%d, want match=%v shared=%d",
					it.Start, it.End, gotMatch, gotShared, wantMatch, wantShared)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no iterations checked")
	}
}
