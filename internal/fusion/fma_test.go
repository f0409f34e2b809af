package fusion

import (
	"testing"

	"exocore/internal/bpred"
	"exocore/internal/cache"
	"exocore/internal/cores"
	"exocore/internal/isa"
	"exocore/internal/prog"
	"exocore/internal/sim"
	"exocore/internal/tdg"
	"exocore/internal/testutil"
	"exocore/internal/workloads"
)

// fmaRules is the paper's Figure 4 transform on its own.
var fmaRules = StandardRules[:1]

func tdgOf(t *testing.T, p *prog.Program) *tdg.TDG {
	t.Helper()
	tr, err := sim.Run(p, sim.NewState(), sim.Config{MaxDyn: 50000})
	if err != nil {
		t.Fatal(err)
	}
	cache.DefaultHierarchy().Annotate(tr)
	bpred.New(bpred.DefaultConfig()).Annotate(tr)
	td, err := tdg.Build(tr)
	if err != nil {
		t.Fatal(err)
	}
	return td
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

// wantOnePair fails unless the plan fuses exactly the fmul at mulSI into
// the fadd at addSI.
func wantOnePair(t *testing.T, plan *Plan, mulSI, addSI int) {
	t.Helper()
	if len(plan.Survivor) != 1 || plan.PerRule["fma"] != 1 {
		t.Fatalf("plan = %s, want one fma pair", plan.Summary())
	}
	pair := plan.Survivor[mulSI]
	if pair == nil || pair.ConsumerSI != addSI {
		t.Errorf("survivor %d: %+v, want fmul %d fused into fadd %d", mulSI, pair, mulSI, addSI)
	}
	if !plan.Elided[addSI] {
		t.Error("fadd not marked for elision")
	}
}

func TestAnalyzeFMAFindsAccumulatorPattern(t *testing.T) {
	// fmul at SI 5 feeds fadd at SI 6.
	wantOnePair(t, Analyze(tdgOf(t, dotKernel(10)), fmaRules), 5, 6)
}

func TestAnalyzeFMARejectsMultiUse(t *testing.T) {
	// fmul result used twice: not fusable.
	b := prog.NewBuilder("multiuse")
	b.FMovI(isa.F(1), 2)
	b.FMovI(isa.F(2), 3)
	b.FMul(isa.F(3), isa.F(1), isa.F(2))
	b.FAdd(isa.F(4), isa.F(4), isa.F(3))
	b.FSub(isa.F(5), isa.F(3), isa.F(1)) // second use of f3
	if plan := Analyze(tdgOf(t, b.MustBuild()), fmaRules); len(plan.Survivor) != 0 {
		t.Errorf("multi-use fmul fused: %s", plan.Summary())
	}
}

func TestAnalyzeFMARejectsNonAccumulator(t *testing.T) {
	// fadd whose dst differs from both sources: not the fma form.
	b := prog.NewBuilder("nonacc")
	b.FMovI(isa.F(1), 2)
	b.FMovI(isa.F(2), 3)
	b.FMul(isa.F(3), isa.F(1), isa.F(2))
	b.FAdd(isa.F(5), isa.F(1), isa.F(3))
	if plan := Analyze(tdgOf(t, b.MustBuild()), fmaRules); len(plan.Survivor) != 0 {
		t.Errorf("non-accumulator fadd fused: %s", plan.Summary())
	}
}

func TestAnalyzeFMAFusesProducedAccumulator(t *testing.T) {
	// lbm's shape: both fadd sources are fmul results. f6's fmul is the
	// accumulator, not the fused product, so the search must go on to
	// the second source and fuse f7's fmul.
	b := prog.NewBuilder("prodacc")
	for r := 1; r <= 4; r++ {
		b.FMovI(isa.F(r), float64(r))
	}
	b.FMul(isa.F(6), isa.F(1), isa.F(2))
	b.FMul(isa.F(7), isa.F(3), isa.F(4)) // SI 5
	b.FAdd(isa.F(6), isa.F(6), isa.F(7)) // SI 6
	wantOnePair(t, Analyze(tdgOf(t, b.MustBuild()), fmaRules), 5, 6)
}

func TestAnalyzeFMAUsesLiveness(t *testing.T) {
	// A later block reads f3 only after redefining it, so f3 is dead at
	// the loop's exit and the pair is legal. The reference analyzer,
	// which rejects any static reader outside the block, misses it.
	b := prog.NewBuilder("redefined")
	i := isa.R(1)
	b.FMovI(isa.F(1), 2)
	b.FMovI(isa.F(2), 3)
	b.MovI(i, 3)
	b.Label("loop")
	b.FMul(isa.F(3), isa.F(1), isa.F(2)) // SI 3
	b.FAdd(isa.F(4), isa.F(4), isa.F(3)) // SI 4
	b.SubI(i, i, 1)
	b.Bne(i, isa.RZ, "loop")
	b.FMovI(isa.F(3), 1)
	b.FAdd(isa.F(5), isa.F(3), isa.F(1))
	td := tdgOf(t, b.MustBuild())
	wantOnePair(t, Analyze(td, fmaRules), 3, 4)
	if ref := refAnalyzeFMA(td); len(ref) != 0 {
		t.Errorf("reference fused %v; the case no longer tells the two apart", ref)
	}
}

func TestEvaluateFMASpeedsUpAndShrinks(t *testing.T) {
	td := tdgOf(t, dotKernel(500))
	base, baseCounts := cores.Evaluate(cores.OOO2, td.Trace)
	fused, fusedCounts := Evaluate(td, cores.OOO2, Analyze(td, fmaRules))
	if fused >= base {
		t.Errorf("fma transform did not help: %d vs %d cycles", fused, base)
	}
	// The elided fadds must reduce total event counts.
	if fusedCounts.Total() >= baseCounts.Total() {
		t.Error("fma transform did not reduce energy events")
	}
}

func TestFMARuleFindsReferencePairs(t *testing.T) {
	// Every pair the hand-written Figure 4 analyzer fuses, the fma rule
	// fuses too. The rule may find more: its single-use check asks
	// liveness where the reference rejects any reader outside the block.
	for _, wl := range workloads.All() {
		td := testutil.TDGFor(t, wl.Name, 20000)
		plan := Analyze(td, fmaRules)
		for mul, add := range refAnalyzeFMA(td) {
			if pair := plan.Survivor[mul]; pair == nil || pair.ConsumerSI != add {
				t.Errorf("%s: reference fuses fmul %d into fadd %d, the fma rule does not (%s)",
					wl.Name, mul, add, plan.Summary())
			}
		}
	}
}

// refAnalyzeFMA is the hand-written analyzer of Figure 4(c), kept as the
// reference for the fma rule. It scans each basic block for an fadd whose
// one source is a single-use fmul result and whose destination equals
// its other source (an accumulator), and maps each fusable fmul's static
// index to its fadd's.
func refAnalyzeFMA(t *tdg.TDG) map[int]int {
	mulToAdd := make(map[int]int)
	p := t.CFG.Prog
	for bi := range t.CFG.Blocks {
		b := &t.CFG.Blocks[bi]
		for j := b.Start; j < b.End; j++ {
			add := &p.Insts[j]
			if add.Op != isa.FAdd {
				continue
			}
			// One source must equal the destination (accumulator form).
			var mulReg isa.Reg
			switch {
			case add.Src1 == add.Dst && add.Src2 != add.Dst:
				mulReg = add.Src2
			case add.Src2 == add.Dst && add.Src1 != add.Dst:
				mulReg = add.Src1
			default:
				continue
			}
			// Find the defining fmul earlier in the block.
			mulSI := -1
			for i := j - 1; i >= b.Start; i-- {
				in := &p.Insts[i]
				if in.HasDst() && in.Dst == mulReg {
					if in.Op == isa.FMul {
						mulSI = i
					}
					break
				}
			}
			if mulSI >= 0 && refSingleUse(p.Insts, b.Start, b.End, mulSI, j, mulReg) {
				mulToAdd[mulSI] = j
			}
		}
	}
	return mulToAdd
}

// refSingleUse: no other reader of r between the fmul and the end of the
// block (or its redefinition after the fadd), and, when not redefined,
// no static reader of r anywhere outside the block.
func refSingleUse(insts []isa.Inst, bStart, bEnd, mulSI, addSI int, r isa.Reg) bool {
	var srcs []isa.Reg
	for i := mulSI + 1; i < bEnd; i++ {
		if i == addSI {
			continue
		}
		in := &insts[i]
		srcs = srcs[:0]
		for _, s := range in.Srcs(srcs) {
			if s == r {
				return false
			}
		}
		if in.HasDst() && in.Dst == r && i > addSI {
			return true // redefined after the fadd: dead beyond
		}
	}
	for i := range insts {
		if i >= bStart && i < bEnd {
			continue
		}
		srcs = srcs[:0]
		for _, s := range insts[i].Srcs(srcs) {
			if s == r {
				return false
			}
		}
	}
	return true
}
