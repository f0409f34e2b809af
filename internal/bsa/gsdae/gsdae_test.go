package gsdae

import (
	"slices"
	"testing"

	"exocore/internal/cores"
	"exocore/internal/dg"
	"exocore/internal/energy"
	"exocore/internal/exocore"
	"exocore/internal/isa"
	"exocore/internal/prog"
	"exocore/internal/sim"
	"exocore/internal/tdg"
	"exocore/internal/testutil"
)

// TestAnalyzerPlansGathersOnly: GS-DAE abstains on a regular dense
// kernel, and on bfs it plans the loops that gather — every planned loop
// has a dependent load, which sits on the access stream.
func TestAnalyzerPlansGathersOnly(t *testing.T) {
	if plan := New().Analyze(testutil.TDGFor(t, "mm", 20000)); len(plan.Regions) != 0 {
		t.Errorf("GS-DAE planned %d loops of mm, a kernel without index chasing", len(plan.Regions))
	}
	td := testutil.TDGFor(t, "bfs", 20000)
	plan := New().Analyze(td)
	if len(plan.Regions) == 0 {
		t.Fatal("GS-DAE planned no loop of bfs")
	}
	for l, r := range plan.Regions {
		rp := r.Config.(*regionPlan)
		if rp.nGather == 0 {
			t.Errorf("loop %d planned without a gather", l)
		}
		for si := range rp.gather {
			if !td.CFG.Prog.At(int(si)).Op.IsLoad() || !rp.access[si] {
				t.Errorf("loop %d: gather %d is not a load on the access stream", l, si)
			}
		}
		if r.EstSpeedup <= 1 {
			t.Errorf("loop %d: estimated speedup %.2f, want a win", l, r.EstSpeedup)
		}
	}
}

// TestExitTiesGoToLowerRegister: two written registers whose producers
// finish in the same cycle, after every other input of the region's exit
// join, tie for the exit's critical predecessor. The lower register's
// producer must win on every repeat, as it does in the dataflow
// executor — not whichever register a Go map happens to visit first.
func TestExitTiesGoToLowerRegister(t *testing.T) {
	b := prog.NewBuilder("tie")
	b.MovI(isa.R(5), 7)
	b.MovI(isa.R(6), 3)
	b.MovI(isa.R(4), 4)
	b.Label("loop")
	b.Mul(isa.R(2), isa.R(5), isa.R(6))
	b.Mul(isa.R(1), isa.R(5), isa.R(6))
	b.SubI(isa.R(4), isa.R(4), 1)
	b.Bne(isa.R(4), isa.RZ, "loop")
	tr, err := sim.Run(b.MustBuild(), sim.NewState(), sim.Config{MaxDyn: 1000})
	if err != nil {
		t.Fatal(err)
	}
	td, err := tdg.Build(tr)
	if err != nil {
		t.Fatal(err)
	}
	if len(td.Nest.Loops) != 1 {
		t.Fatalf("%d loops, want 1", len(td.Nest.Loops))
	}
	// The whole loop runs on the compute stream; the last iteration's
	// multiplies are the last writers of r2 and r1.
	r := &tdg.Region{LoopID: 0, Config: &regionPlan{access: map[int32]bool{}, gather: map[int32]bool{}}}
	start, end := 3, tr.Len()
	wantDyn := int32(end - 3) // mul r1 of the last iteration
	for rep := 0; rep < 20; rep++ {
		g := dg.NewGraph()
		var counts energy.Counts
		ctx := tdg.Ctx{TDG: td, G: g, GPP: cores.NewGPP(cores.OOO2, g, &counts), Counts: &counts}
		exit := New().TransformRegion(&ctx, r, start, end)
		var path []dg.NodeID
		g.WalkCriticalPath(exit, func(id dg.NodeID, _ dg.EdgeClass, _ int64) { path = append(path, id) })
		if len(path) < 2 {
			t.Fatalf("exit has no critical predecessor: %v", path)
		}
		if got := g.DynIdx(path[1]); got != wantDyn {
			t.Fatalf("repeat %d: exit's critical predecessor belongs to instruction %d, want %d (the r1 producer)",
				rep, got, wantDyn)
		}
	}
}

// TestLeanTimesMatchAttribution drives bfs with GS-DAE on every loop it
// plans through a lean and an attribution graph, retiring the lean
// graph's nodes after every region as the engine does: every region's
// exit time, the core's end time after it, the final end time and the
// energy counts must be identical.
func TestLeanTimesMatchAttribution(t *testing.T) {
	td := testutil.TDGFor(t, "bfs", 20000)
	m := New()
	plan := m.Analyze(td)
	assign := exocore.Assignment{}
	for l := range plan.Regions {
		assign[l] = m.Name()
	}
	segs := exocore.Segmentize(td, assign)
	run := func(g *dg.Graph) ([]int64, energy.Counts) {
		var counts energy.Counts
		core := cores.NewGPP(cores.OOO2, g, &counts)
		resident := map[int]bool{}
		var times []int64
		for _, seg := range segs {
			if seg.LoopID < 0 {
				core.ExecTrace(td.Decoded(), td.Trace.Insts[seg.Start:seg.End], seg.Start)
				continue
			}
			ctx := tdg.Ctx{TDG: td, G: g, GPP: core, Counts: &counts, ConfigResident: resident[seg.LoopID]}
			resident[seg.LoopID] = true
			exit := m.TransformRegion(&ctx, plan.Region(seg.LoopID), seg.Start, seg.End)
			times = append(times, g.Time(exit), core.EndTime())
			core.CompactWindow()
		}
		core.Fold()
		return append(times, core.EndTime()), counts
	}
	attrib, attribCounts := run(dg.NewGraph())
	lean, leanCounts := run(dg.NewLeanGraph())
	if len(attrib) < 3 {
		t.Fatalf("no GS-DAE region ran (%d times)", len(attrib))
	}
	if !slices.Equal(attrib, lean) {
		t.Fatalf("attribution times %v, lean %v", attrib, lean)
	}
	if attribCounts != leanCounts {
		t.Fatal("energy counts diverge")
	}
}
