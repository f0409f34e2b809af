package dpcgra

import (
	"runtime/debug"
	"testing"

	"exocore/internal/bsa/bsautil"
	"exocore/internal/cores"
	"exocore/internal/dg"
	"exocore/internal/energy"
	"exocore/internal/exocore"
	"exocore/internal/tdg"
	"exocore/internal/testutil"
)

func TestAnalyzerRequiresSeparability(t *testing.T) {
	// nbody: ~19 compute ops per 3 loads — separable, must plan.
	td := testutil.TDGFor(t, "nbody", 25000)
	plan := New().Analyze(td)
	if len(plan.Regions) == 0 {
		t.Fatal("nbody not planned")
	}
	for _, r := range plan.Regions {
		p := r.Config.(*loopPlan)
		if p.computeN == 0 {
			t.Error("empty compute slice")
		}
		if p.computeN > New().FUs {
			t.Error("compute slice exceeds fabric")
		}
	}

	// merge: almost no offloadable compute — must not claim the hot loop.
	tdM := testutil.TDGFor(t, "merge", 25000)
	planM := New().Analyze(tdM)
	hot := tdM.Prof.SortedLoopsByShare()[0]
	if planM.Region(hot) != nil {
		t.Error("merge's comm-dominated loop planned for the CGRA")
	}
}

func TestVectorizationBoundedByFabric(t *testing.T) {
	td := testutil.TDGFor(t, "nbody", 25000)
	small := &Model{FUs: 20, RouteLatency: 1} // ~17 compute ops: no cloning
	plan := small.Analyze(td)
	for _, r := range plan.Regions {
		if p := r.Config.(*loopPlan); p.lanes != 1 {
			t.Errorf("cloned ×%d on a 20-FU fabric", p.lanes)
		}
	}
	big := New() // 64 FUs: partial cloning (×3 for ~17 ops)
	plan = big.Analyze(td)
	sawClone := false
	for _, r := range plan.Regions {
		p := r.Config.(*loopPlan)
		if p.lanes > 1 {
			sawClone = true
			if p.lanes*p.computeN > big.FUs {
				t.Errorf("clones ×%d × %d ops exceed %d FUs", p.lanes, p.computeN, big.FUs)
			}
		}
	}
	if !sawClone {
		t.Error("64-FU fabric should partially clone nbody")
	}
}

func TestComputeHeavyLoopsWin(t *testing.T) {
	td := testutil.TDGFor(t, "nbody", 25000)
	base, accel, baseE, accelE := testutil.SoloRun(t, td, cores.OOO2, New())
	sp := float64(base) / float64(accel)
	t.Logf("nbody: %.2fx perf, %.2fx energy", sp, baseE/accelE)
	if sp < 2 {
		t.Errorf("DP-CGRA speedup %.2f < 2 on its best-case behavior", sp)
	}
	if accelE >= baseE {
		t.Error("no energy saving")
	}
}

func TestRouteLatencyMatters(t *testing.T) {
	td := testutil.TDGFor(t, "nbody", 25000)
	fast := &Model{FUs: 64, RouteLatency: 0}
	slow := &Model{FUs: 64, RouteLatency: 6}
	_, aFast, _, _ := testutil.SoloRun(t, td, cores.OOO2, fast)
	_, aSlow, _, _ := testutil.SoloRun(t, td, cores.OOO2, slow)
	if aSlow < aFast {
		t.Errorf("higher routing latency got faster: %d vs %d", aSlow, aFast)
	}
}

func TestConfigCacheCharged(t *testing.T) {
	// The first region entry must charge a configuration load; repeated
	// entries of the same loop must not (config cache). We check via the
	// planned multi-loop benchmark cjpeg, which alternates regions.
	td := testutil.TDGFor(t, "nbody", 25000)
	m := New()
	base, accel, _, _ := testutil.SoloRun(t, td, cores.OOO2, m)
	if accel >= base {
		t.Skip("no acceleration to inspect")
	}
}

func TestModelMetadata(t *testing.T) {
	m := New()
	if m.Name() != "DP-CGRA" || m.OffloadsCore() || m.FUs != 64 {
		t.Error("metadata wrong")
	}
}

// TestRepeatedTransformStopsAllocating holds the per-instance scratch
// arena to the region: every instance rewinds it, so once the first
// TransformRegion call on a region has sized it, repeating the call
// allocates no more than splitting the region into iterations does.
// An arena that never rewinds takes fresh records for every instance
// and, each time it runs out, a chunk twice the size of the last.
func TestRepeatedTransformStopsAllocating(t *testing.T) {
	if raceEnabled {
		t.Skip("the scratch comes from a sync.Pool, which a -race build empties at random")
	}
	td := testutil.TDGFor(t, "nbody", 25000)
	m := New()
	plan := m.Analyze(td)
	// The longest span of any planned loop, so the region runs many
	// instances.
	var seg exocore.Segment
	var region *tdg.Region
	for l, r := range plan.Regions {
		for _, s := range exocore.Segmentize(td, exocore.Assignment{l: m.Name()}) {
			if s.LoopID == l && s.End-s.Start > seg.End-seg.Start {
				seg, region = s, r
			}
		}
	}
	if region == nil {
		t.Fatal("nbody has no DP-CGRA region")
	}

	g := dg.NewLeanGraph()
	var counts energy.Counts
	gpp := cores.NewGPP(cores.OOO2, g, &counts)
	transform := func() {
		g.Reset()
		counts = energy.Counts{}
		gpp.Reset(g, &counts)
		ctx := tdg.Ctx{TDG: td, G: g, GPP: gpp, Counts: &counts, ConfigResident: true}
		m.TransformRegion(&ctx, region, seg.Start, seg.End)
	}
	split := testing.AllocsPerRun(1, func() { bsautil.SplitIterations(td, region.LoopID, seg.Start, seg.End) })

	// The scratch comes from a sync.Pool, which a collection empties;
	// keep the collector off while measuring.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	transform()
	for i := 0; i < 20; i++ {
		if allocs := testing.AllocsPerRun(1, transform); allocs != split {
			t.Fatalf("repeat %d of TransformRegion on loop %d [%d,%d) allocated %v objects, splitting it %v",
				i, region.LoopID, seg.Start, seg.End, allocs, split)
		}
	}
}
