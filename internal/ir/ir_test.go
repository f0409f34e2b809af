package ir

import (
	"testing"

	"exocore/internal/isa"
	"exocore/internal/prog"
	"exocore/internal/sim"
	"exocore/internal/trace"
)

// simpleLoop builds: r1=N; loop: r2=ld[r3]; r3+=8; r1-=1; bne r1,r0,loop
func simpleLoop(n int64) *prog.Program {
	b := prog.NewBuilder("simple")
	b.MovI(isa.R(1), n)
	b.MovI(isa.R(3), 0x1000)
	b.Label("loop")
	b.Ld(isa.R(2), isa.R(3), 0)
	b.AddI(isa.R(3), isa.R(3), 8)
	b.SubI(isa.R(1), isa.R(1), 1)
	b.Bne(isa.R(1), isa.RZ, "loop")
	return b.MustBuild()
}

// nestedLoop builds a 2-deep nest.
func nestedLoop(outer, inner int64) *prog.Program {
	b := prog.NewBuilder("nested")
	b.MovI(isa.R(1), outer)
	b.Label("outer")
	b.MovI(isa.R(2), inner)
	b.Label("inner")
	b.AddI(isa.R(4), isa.R(4), 1)
	b.SubI(isa.R(2), isa.R(2), 1)
	b.Bne(isa.R(2), isa.RZ, "inner")
	b.SubI(isa.R(1), isa.R(1), 1)
	b.Bne(isa.R(1), isa.RZ, "outer")
	return b.MustBuild()
}

// diamondLoop has an if/else inside the loop body.
func diamondLoop(n int64) *prog.Program {
	b := prog.NewBuilder("diamond")
	b.MovI(isa.R(1), n)
	b.Label("loop")
	b.And(isa.R(2), isa.R(1), isa.R(5)) // r5 = 1 set by caller
	b.Beq(isa.R(2), isa.RZ, "else")
	b.AddI(isa.R(3), isa.R(3), 1)
	b.Jmp("join")
	b.Label("else")
	b.AddI(isa.R(4), isa.R(4), 1)
	b.Label("join")
	b.SubI(isa.R(1), isa.R(1), 1)
	b.Bne(isa.R(1), isa.RZ, "loop")
	return b.MustBuild()
}

func mustCFG(t *testing.T, p *prog.Program) *CFG {
	t.Helper()
	cfg, err := BuildCFG(p)
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

func traceOf(t *testing.T, p *prog.Program, prep func(*sim.State)) *trace.Trace {
	t.Helper()
	st := sim.NewState()
	if prep != nil {
		prep(st)
	}
	tr, err := sim.Run(p, st, sim.Config{MaxDyn: 100000})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestCFGSimpleLoop(t *testing.T) {
	cfg := mustCFG(t, simpleLoop(3))
	// Blocks: [movi,movi], [ld,addi,subi,bne]
	if len(cfg.Blocks) != 2 {
		t.Fatalf("blocks = %d, want 2:\n%s", len(cfg.Blocks), cfg)
	}
	b1 := cfg.Blocks[1]
	if len(b1.Succs) != 1 || b1.Succs[0] != 1 {
		t.Errorf("loop block succs = %v, want self-loop only (falls off end)", b1.Succs)
	}
	if !cfg.Dominates(0, 1) {
		t.Error("entry must dominate loop block")
	}
}

func TestCFGDiamond(t *testing.T) {
	cfg := mustCFG(t, diamondLoop(4))
	// entry, header(and+beq), then, else, join.
	if len(cfg.Blocks) != 5 {
		t.Fatalf("blocks = %d, want 5:\n%s", len(cfg.Blocks), cfg)
	}
	header := cfg.BlockOf[1]
	join := cfg.BlockOf[7]
	if !cfg.Dominates(header, join) {
		t.Error("header must dominate join")
	}
	thenB := cfg.BlockOf[3]
	if cfg.Dominates(thenB, join) {
		t.Error("then-branch must not dominate join")
	}
}

func TestLoopNestSimple(t *testing.T) {
	cfg := mustCFG(t, simpleLoop(3))
	nest := BuildLoopNest(cfg)
	if len(nest.Loops) != 1 {
		t.Fatalf("loops = %d, want 1\n%s", len(nest.Loops), nest)
	}
	l := &nest.Loops[0]
	if !l.Inner() || l.Depth != 1 {
		t.Errorf("loop depth/inner wrong: %+v", l)
	}
	if nest.InnermostOfInst(2) != 0 {
		t.Error("ld should be in loop 0")
	}
	if nest.InnermostOfInst(0) != -1 {
		t.Error("prologue should be outside loops")
	}
}

func TestLoopNestNested(t *testing.T) {
	cfg := mustCFG(t, nestedLoop(3, 4))
	nest := BuildLoopNest(cfg)
	if len(nest.Loops) != 2 {
		t.Fatalf("loops = %d, want 2\n%s", len(nest.Loops), nest)
	}
	var innerID, outerID = -1, -1
	for i := range nest.Loops {
		if nest.Loops[i].Inner() {
			innerID = i
		} else {
			outerID = i
		}
	}
	if innerID == -1 || outerID == -1 {
		t.Fatalf("expected one inner and one outer loop:\n%s", nest)
	}
	if nest.Loops[innerID].Parent != outerID {
		t.Error("inner loop's parent should be outer loop")
	}
	if nest.Loops[innerID].Depth != 2 || nest.Loops[outerID].Depth != 1 {
		t.Error("depths wrong")
	}
	if !nest.IsAncestor(outerID, innerID) || nest.IsAncestor(innerID, outerID) {
		t.Error("ancestry wrong")
	}
}

func TestLoopDataflowInductionsAndLiveness(t *testing.T) {
	p := simpleLoop(3)
	cfg := mustCFG(t, p)
	nest := BuildLoopNest(cfg)
	ld := AnalyzeLoopDataflow(cfg, nest, 0)

	// r3 += 8 (inst 3) and r1 -= 1 (inst 4) are inductions.
	if len(ld.Inductions) != 2 {
		t.Fatalf("inductions = %v, want 2", ld.Inductions)
	}
	if iv, ok := ld.Inductions[3]; !ok || iv.Step != 8 {
		t.Errorf("inst 3 induction = %+v", iv)
	}
	if iv, ok := ld.Inductions[4]; !ok || iv.Step != -1 {
		t.Errorf("inst 4 induction = %+v", iv)
	}
	if len(ld.CarriedRegDep) != 0 {
		t.Errorf("carried deps = %v, want none", ld.CarriedRegDep)
	}
	// r1 and r3 seeds are live-in.
	hasReg := func(rs []isa.Reg, r isa.Reg) bool {
		for _, x := range rs {
			if x == r {
				return true
			}
		}
		return false
	}
	if !hasReg(ld.LiveIns, isa.R(1)) || !hasReg(ld.LiveIns, isa.R(3)) {
		t.Errorf("live-ins = %v, want r1 and r3", ld.LiveIns)
	}
}

func TestLoopDataflowReduction(t *testing.T) {
	b := prog.NewBuilder("red")
	b.MovI(isa.R(1), 8)
	b.MovI(isa.R(2), 0x1000)
	b.Label("loop")
	b.LdF(isa.F(1), isa.R(2), 0)
	b.FAdd(isa.F(0), isa.F(0), isa.F(1)) // reduction
	b.AddI(isa.R(2), isa.R(2), 8)
	b.SubI(isa.R(1), isa.R(1), 1)
	b.Bne(isa.R(1), isa.RZ, "loop")
	p := b.MustBuild()
	cfg := mustCFG(t, p)
	nest := BuildLoopNest(cfg)
	ld := AnalyzeLoopDataflow(cfg, nest, 0)
	if !ld.Reductions[3] {
		t.Errorf("fadd at 3 should be a reduction: %v", ld.Reductions)
	}
	if len(ld.CarriedRegDep) != 0 {
		t.Errorf("reduction must not count as carried dep: %v", ld.CarriedRegDep)
	}
}

func TestLoopDataflowCarriedDep(t *testing.T) {
	b := prog.NewBuilder("carried")
	b.MovI(isa.R(1), 8)
	b.Label("loop")
	b.Mul(isa.R(3), isa.R(3), isa.R(4)) // r3 = r3*r4: carried, not a reduction? mul with dst==src1 IS reduction-eligible
	b.Shl(isa.R(5), isa.R(5), isa.R(3)) // r5 = r5 << r3: carried non-reduction
	b.SubI(isa.R(1), isa.R(1), 1)
	b.Bne(isa.R(1), isa.RZ, "loop")
	p := b.MustBuild()
	cfg := mustCFG(t, p)
	nest := BuildLoopNest(cfg)
	ld := AnalyzeLoopDataflow(cfg, nest, 0)
	found := false
	for _, r := range ld.CarriedRegDep {
		if r == isa.R(5) {
			found = true
		}
	}
	if !found {
		t.Errorf("r5 shift-accumulate should be a carried dep: %v", ld.CarriedRegDep)
	}
}

func TestAccessSliceSeparation(t *testing.T) {
	p := simpleLoop(3)
	cfg := mustCFG(t, p)
	nest := BuildLoopNest(cfg)
	ld := AnalyzeLoopDataflow(cfg, nest, 0)
	// ld (2), addi r3 (3, address), subi r1 (4, feeds branch), bne (5) are access slice.
	for _, si := range []int{2, 3, 5} {
		if !ld.AccessSlice[si] {
			t.Errorf("inst %d should be in access slice", si)
		}
	}
}

func TestProfileSimpleLoop(t *testing.T) {
	p := simpleLoop(10)
	cfg := mustCFG(t, p)
	nest := BuildLoopNest(cfg)
	tr := traceOf(t, p, nil)
	prof := BuildProfile(cfg, nest, tr)

	lp := &prof.Loops[0]
	if lp.Entries != 1 {
		t.Errorf("entries = %d, want 1", lp.Entries)
	}
	if lp.Iterations != 10 {
		t.Errorf("iterations = %d, want 10", lp.Iterations)
	}
	if lp.AvgTrip != 10 {
		t.Errorf("avg trip = %v, want 10", lp.AvgTrip)
	}
	if lp.BackProb < 0.85 || lp.BackProb > 0.95 {
		t.Errorf("back prob = %v, want ~0.9", lp.BackProb)
	}
	if prof.LoopShare(0) < 0.9 {
		t.Errorf("loop share = %v, want > 0.9", prof.LoopShare(0))
	}
}

func TestProfileStrides(t *testing.T) {
	p := simpleLoop(50)
	cfg := mustCFG(t, p)
	nest := BuildLoopNest(cfg)
	tr := traceOf(t, p, nil)
	prof := BuildProfile(cfg, nest, tr)
	info := prof.Strides[2] // the load
	if !info.Contiguous() {
		t.Errorf("load stride = %+v, want contiguous", info)
	}
}

func TestProfileNestedIterations(t *testing.T) {
	p := nestedLoop(5, 7)
	cfg := mustCFG(t, p)
	nest := BuildLoopNest(cfg)
	tr := traceOf(t, p, nil)
	prof := BuildProfile(cfg, nest, tr)

	var innerID, outerID int
	for i := range nest.Loops {
		if nest.Loops[i].Inner() {
			innerID = i
		} else {
			outerID = i
		}
	}
	if prof.Loops[outerID].Iterations != 5 {
		t.Errorf("outer iters = %d, want 5", prof.Loops[outerID].Iterations)
	}
	if prof.Loops[innerID].Iterations != 35 {
		t.Errorf("inner iters = %d, want 35", prof.Loops[innerID].Iterations)
	}
	if prof.Loops[innerID].Entries != 5 {
		t.Errorf("inner entries = %d, want 5", prof.Loops[innerID].Entries)
	}
}

func TestProfileHotPath(t *testing.T) {
	p := diamondLoop(64)
	cfg := mustCFG(t, p)
	nest := BuildLoopNest(cfg)
	// r5=1 so the branch alternates by parity of r1.
	tr := traceOf(t, p, func(st *sim.State) { st.SetInt(isa.R(5), 1) })
	prof := BuildProfile(cfg, nest, tr)
	lp := &prof.Loops[0]
	if len(lp.PathCounts) < 2 {
		t.Fatalf("path counts = %v, want >= 2 distinct paths", lp.PathCounts)
	}
	if lp.HotPathFrac < 0.4 || lp.HotPathFrac > 0.6 {
		t.Errorf("hot path frac = %v, want ~0.5 for alternating diamond", lp.HotPathFrac)
	}
}

func TestProfileCarriedMemDep(t *testing.T) {
	// for i: a[i+1] = a[i] + 1 -> loop-carried RAW through memory.
	b := prog.NewBuilder("carrymem")
	b.MovI(isa.R(1), 20)
	b.MovI(isa.R(2), 0x1000)
	b.Label("loop")
	b.Ld(isa.R(3), isa.R(2), 0)
	b.AddI(isa.R(3), isa.R(3), 1)
	b.St(isa.R(3), isa.R(2), 8)
	b.AddI(isa.R(2), isa.R(2), 8)
	b.SubI(isa.R(1), isa.R(1), 1)
	b.Bne(isa.R(1), isa.RZ, "loop")
	p := b.MustBuild()
	cfg := mustCFG(t, p)
	nest := BuildLoopNest(cfg)
	tr := traceOf(t, p, nil)
	prof := BuildProfile(cfg, nest, tr)
	if !prof.Loops[0].CarriedMemDep {
		t.Error("expected loop-carried memory dependence")
	}

	// Independent iterations: no carried dep.
	p2 := simpleLoop(20)
	cfg2 := mustCFG(t, p2)
	nest2 := BuildLoopNest(cfg2)
	tr2 := traceOf(t, p2, nil)
	prof2 := BuildProfile(cfg2, nest2, tr2)
	if prof2.Loops[0].CarriedMemDep {
		t.Error("independent loads must not report carried dep")
	}
}

func TestEncodeDecodePath(t *testing.T) {
	paths := [][]int{{0}, {1, 2, 3}, {5, 300, 7}, {}}
	for _, p := range paths {
		got := decodePath(string(appendPath(nil, p)))
		if len(got) != len(p) {
			t.Errorf("roundtrip %v -> %v", p, got)
			continue
		}
		for i := range p {
			if got[i] != p[i] {
				t.Errorf("roundtrip %v -> %v", p, got)
			}
		}
	}
}

func TestSortedLoopsByShare(t *testing.T) {
	p := nestedLoop(3, 50)
	cfg := mustCFG(t, p)
	nest := BuildLoopNest(cfg)
	tr := traceOf(t, p, nil)
	prof := BuildProfile(cfg, nest, tr)
	ids := prof.SortedLoopsByShare()
	if len(ids) != 2 {
		t.Fatalf("ids = %v", ids)
	}
	if prof.Loops[ids[0]].DynInsts < prof.Loops[ids[1]].DynInsts {
		t.Error("not sorted by share")
	}
}
