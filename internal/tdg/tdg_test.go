package tdg

import (
	"testing"

	"exocore/internal/bpred"
	"exocore/internal/cache"
	"exocore/internal/isa"
	"exocore/internal/prog"
	"exocore/internal/sim"
	"exocore/internal/trace"
)

func traceFor(t *testing.T, p *prog.Program, prep func(*sim.State)) *trace.Trace {
	t.Helper()
	st := sim.NewState()
	if prep != nil {
		prep(st)
	}
	tr, err := sim.Run(p, st, sim.Config{MaxDyn: 50000})
	if err != nil {
		t.Fatal(err)
	}
	cache.DefaultHierarchy().Annotate(tr)
	bpred.New(bpred.DefaultConfig()).Annotate(tr)
	return tr
}

// dotKernel: the Figure 4 pattern — fmul feeding an accumulating fadd.
func dotKernel(n int64) *prog.Program {
	b := prog.NewBuilder("dot")
	i, pA, pB := isa.R(1), isa.R(2), isa.R(3)
	b.MovI(pA, 0x1000)
	b.MovI(pB, 0x9000)
	b.MovI(i, n)
	b.Label("loop")
	b.LdF(isa.F(1), pA, 0)
	b.LdF(isa.F(2), pB, 0)
	b.FMul(isa.F(3), isa.F(1), isa.F(2))
	b.FAdd(isa.F(4), isa.F(4), isa.F(3))
	b.AddI(pA, pA, 8)
	b.AddI(pB, pB, 8)
	b.SubI(i, i, 1)
	b.Bne(i, isa.RZ, "loop")
	return b.MustBuild()
}

func TestBuildTDG(t *testing.T) {
	tr := traceFor(t, dotKernel(100), nil)
	td, err := Build(tr)
	if err != nil {
		t.Fatal(err)
	}
	if len(td.Nest.Loops) != 1 {
		t.Fatalf("loops = %d, want 1", len(td.Nest.Loops))
	}
	if td.Prof.Loops[0].Iterations != 100 {
		t.Errorf("iterations = %d, want 100", td.Prof.Loops[0].Iterations)
	}
	// Dataflow must be cached.
	a := td.Dataflow(0)
	b := td.Dataflow(0)
	if a != b {
		t.Error("Dataflow not cached")
	}
}

func TestBuildEmptyProgramFails(t *testing.T) {
	tr := &trace.Trace{Prog: &prog.Program{Name: "empty"}}
	if _, err := Build(tr); err == nil {
		t.Fatal("expected error for empty program")
	}
}

func TestPlanRegionNilSafety(t *testing.T) {
	var p *Plan
	if p.Region(0) != nil {
		t.Error("nil plan should return nil region")
	}
	p = &Plan{Regions: map[int]*Region{1: {LoopID: 1}}}
	if p.Region(1) == nil || p.Region(2) != nil {
		t.Error("Region lookup wrong")
	}
}
