package tdg

import (
	"exocore/internal/cores"
	"exocore/internal/dg"
	"exocore/internal/energy"
	"exocore/internal/isa"
)

// This file implements the paper's running example (Figure 4): a TDG
// analyzer + transform that transparently fuses an fmul feeding a
// single-use fadd accumulator into one fma instruction. It is the
// smallest possible BSA model and doubles as framework documentation: an
// analysis pass over the IR produces a "plan", and the transform rewrites
// the µDG — here by retyping one node and eliding another.

// FMAPlan maps the static index of each fusable fmul to the static index
// of the fadd it fuses with.
type FMAPlan struct {
	// MulToAdd maps fmul SI -> fadd SI.
	MulToAdd map[int]int
	// AddSet marks the elided fadd SIs.
	AddSet map[int]bool
}

// AnalyzeFMA scans each basic block for the pattern of Figure 4(c): an
// fadd whose one source is a single-use fmul result and whose destination
// equals its other source (an accumulator), so the pair can execute as
// dst += a*b on a fused unit.
func AnalyzeFMA(t *TDG) *FMAPlan {
	plan := &FMAPlan{MulToAdd: make(map[int]int), AddSet: make(map[int]bool)}
	p := t.CFG.Prog

	// useCount counts static readers of each register defined at an SI,
	// within the defining block until redefinition.
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
			if mulSI < 0 {
				continue
			}
			// Single use: no other reader of mulReg between fmul and the
			// end of the block (or its redefinition), and not live-out of
			// the block (conservative: require redefinition or block end
			// without further reads).
			if !singleUseWithin(p.Insts, b.Start, b.End, mulSI, j, mulReg) {
				continue
			}
			plan.MulToAdd[mulSI] = j
			plan.AddSet[j] = true
		}
	}
	return plan
}

func singleUseWithin(insts []isa.Inst, bStart, bEnd, mulSI, addSI int, r isa.Reg) bool {
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
	// Not redefined: require that no successor block reads it — we
	// approximate with "no static reader outside [mulSI, addSI]".
	for i := 0; i < len(insts); i++ {
		if i >= bStart && i < bEnd {
			continue
		}
		in := &insts[i]
		srcs = srcs[:0]
		for _, s := range in.Srcs(srcs) {
			if s == r {
				return false
			}
		}
	}
	return true
}

// EvaluateFMA runs the whole trace through a general core with the FMA
// transform applied (TDG_GPP,fma of Figure 4e), returning cycles and
// energy counts. Fused fadds are elided; fused fmuls execute as fma with
// the accumulator dependence attached.
func EvaluateFMA(t *TDG, core cores.Config) (int64, energy.Counts) {
	plan := AnalyzeFMA(t)
	var counts energy.Counts
	m := cores.NewGPP(core, dg.NewLeanGraph(), &counts)
	p := t.Trace.Prog
	for i := range t.Trace.Insts {
		d := &t.Trace.Insts[i]
		si := int(d.SI)
		in := &p.Insts[si]
		switch {
		case plan.AddSet[si]:
			// Elided: its work happens inside the fused op.
			continue
		case hasKey(plan.MulToAdd, si):
			addSI := plan.MulToAdd[si]
			add := &p.Insts[addSI]
			u := cores.UOp{
				Op: isa.FMA, Dst: add.Dst, Src1: in.Src1, Src2: in.Src2,
			}
			m.Exec(u, int32(i))
		default:
			m.Exec(cores.FromDyn(in, d), int32(i))
		}
	}
	return m.EndTime(), counts
}

func hasKey(m map[int]int, k int) bool {
	_, ok := m[k]
	return ok
}
