package tdg

import (
	"testing"

	"exocore/internal/bpred"
	"exocore/internal/cache"
	"exocore/internal/cores"
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
	if td.LoopOfDyn(5) != 0 {
		t.Error("LoopOfDyn wrong")
	}
}

func TestBuildEmptyProgramFails(t *testing.T) {
	tr := &trace.Trace{Prog: &prog.Program{Name: "empty"}}
	if _, err := Build(tr); err == nil {
		t.Fatal("expected error for empty program")
	}
}

func TestAnalyzeFMAFindsAccumulatorPattern(t *testing.T) {
	tr := traceFor(t, dotKernel(10), nil)
	td, err := Build(tr)
	if err != nil {
		t.Fatal(err)
	}
	plan := AnalyzeFMA(td)
	if len(plan.MulToAdd) != 1 {
		t.Fatalf("fused pairs = %d, want 1 (plan: %v)", len(plan.MulToAdd), plan.MulToAdd)
	}
	// fmul at SI 5 feeds fadd at SI 6.
	if add, ok := plan.MulToAdd[5]; !ok || add != 6 {
		t.Errorf("MulToAdd = %v, want 5->6", plan.MulToAdd)
	}
	if !plan.AddSet[6] {
		t.Error("fadd not marked for elision")
	}
}

func TestAnalyzeFMARejectsMultiUse(t *testing.T) {
	// fmul result used twice: not fusable.
	b := prog.NewBuilder("multiuse")
	b.FMovI(isa.F(1), 2)
	b.FMovI(isa.F(2), 3)
	b.FMul(isa.F(3), isa.F(1), isa.F(2))
	b.FAdd(isa.F(4), isa.F(4), isa.F(3))
	b.FSub(isa.F(5), isa.F(3), isa.F(1)) // second use of f3
	tr := traceFor(t, b.MustBuild(), nil)
	td, err := Build(tr)
	if err != nil {
		t.Fatal(err)
	}
	if plan := AnalyzeFMA(td); len(plan.MulToAdd) != 0 {
		t.Errorf("multi-use fmul fused: %v", plan.MulToAdd)
	}
}

func TestAnalyzeFMARejectsNonAccumulator(t *testing.T) {
	// fadd whose dst differs from both sources: not the fma form.
	b := prog.NewBuilder("nonacc")
	b.FMovI(isa.F(1), 2)
	b.FMovI(isa.F(2), 3)
	b.FMul(isa.F(3), isa.F(1), isa.F(2))
	b.FAdd(isa.F(5), isa.F(1), isa.F(3))
	tr := traceFor(t, b.MustBuild(), nil)
	td, err := Build(tr)
	if err != nil {
		t.Fatal(err)
	}
	if plan := AnalyzeFMA(td); len(plan.MulToAdd) != 0 {
		t.Errorf("non-accumulator fadd fused: %v", plan.MulToAdd)
	}
}

func TestEvaluateFMASpeedsUpAndShrinks(t *testing.T) {
	tr := traceFor(t, dotKernel(500), nil)
	td, err := Build(tr)
	if err != nil {
		t.Fatal(err)
	}
	base, baseCounts := cores.Evaluate(cores.OOO2, tr)
	fused, fusedCounts := EvaluateFMA(td, cores.OOO2)
	if fused >= base {
		t.Errorf("fma transform did not help: %d vs %d cycles", fused, base)
	}
	// The elided fadds must reduce total event counts.
	if fusedCounts.Total() >= baseCounts.Total() {
		t.Error("fma transform did not reduce energy events")
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
