// Package fusion is the declarative transform DSL the paper's §5.5 calls
// out as future work ("our TDG transforms are simply written as short
// functions in C/C++; a DSL to specify these transforms could make the
// TDG framework even more productive"). A Rule describes a producer→
// consumer instruction pair that specialized hardware executes as one
// fused operation; the engine derives the analysis pass and the µDG
// transform from the rule. The paper's running example (Figure 4), which
// fuses an fmul into the single-use fadd accumulating it, is the "fma"
// rule of StandardRules; it is the only fma transform in the framework.
package fusion

import (
	"fmt"
	"sort"

	"exocore/internal/cores"
	"exocore/internal/dg"
	"exocore/internal/energy"
	"exocore/internal/ir"
	"exocore/internal/isa"
	"exocore/internal/tdg"
	"exocore/internal/trace"
)

// Style selects which side of the pair survives as the fused operation.
type Style uint8

// Fusion styles.
const (
	// ProducerAbsorbs executes the fused op at the producer's position
	// with the consumer's destination (fma style); the consumer is elided.
	ProducerAbsorbs Style = iota
	// ConsumerAbsorbs executes the fused op at the consumer's position
	// with the producer's sources substituted (compare-and-branch style);
	// the producer is elided.
	ConsumerAbsorbs
)

// Rule declares one fusable pattern.
type Rule struct {
	// Name identifies the rule in plans and reports.
	Name string
	// Producer/Consumer opcodes of the pattern. The producer's result
	// must be consumed (single-use, same basic block) by the consumer.
	Producer isa.Op
	Consumer isa.Op
	// RequireAccumulator additionally demands the consumer's destination
	// equal its non-produced source (the fma accumulate form).
	RequireAccumulator bool
	// Style picks the surviving side.
	Style Style
	// FusedOp is the opcode modeled for the surviving operation; its
	// latency and FU class come from the ISA table. Use the consumer's
	// own opcode (with its latency) by setting FusedOp to isa.Nop.
	FusedOp isa.Op
}

// StandardRules are fusions commercial cores implement; they exercise the
// DSL and double as a cheap "BSA zero" in ablation studies.
var StandardRules = []Rule{
	// Fused multiply-add (the paper's running example).
	{Name: "fma", Producer: isa.FMul, Consumer: isa.FAdd,
		RequireAccumulator: true, Style: ProducerAbsorbs, FusedOp: isa.FMA},
	// Integer multiply-accumulate.
	{Name: "mac", Producer: isa.Mul, Consumer: isa.Add,
		RequireAccumulator: true, Style: ProducerAbsorbs, FusedOp: isa.Mul},
	// Compare-and-branch fusion (macro-op fusion).
	{Name: "cmp-beq", Producer: isa.Slt, Consumer: isa.Beq,
		Style: ConsumerAbsorbs, FusedOp: isa.Nop},
	{Name: "cmp-bne", Producer: isa.Slt, Consumer: isa.Bne,
		Style: ConsumerAbsorbs, FusedOp: isa.Nop},
	{Name: "cmpi-beq", Producer: isa.SltI, Consumer: isa.Beq,
		Style: ConsumerAbsorbs, FusedOp: isa.Nop},
	{Name: "cmpi-bne", Producer: isa.SltI, Consumer: isa.Bne,
		Style: ConsumerAbsorbs, FusedOp: isa.Nop},
	// Shift-and-add address generation (LEA-style).
	{Name: "lea", Producer: isa.ShlI, Consumer: isa.Add,
		Style: ConsumerAbsorbs, FusedOp: isa.Add},
}

// Pair is one fused static-instruction pair in a plan.
type Pair struct {
	Rule       *Rule
	ProducerSI int
	ConsumerSI int
}

// Plan maps each surviving static index to its pair, and marks elided
// static indexes.
type Plan struct {
	// Survivor maps the surviving side's SI to the pair.
	Survivor map[int]*Pair
	// Elided marks the removed side's SIs.
	Elided map[int]bool
	// PerRule counts fused pairs per rule name.
	PerRule map[string]int
}

// Analyze derives the fusion plan: for each rule, single-use producer→
// consumer pairs within one basic block. A static instruction joins at
// most one pair (first matching rule wins, in rule order).
func Analyze(t *tdg.TDG, rules []Rule) *Plan {
	plan := &Plan{
		Survivor: make(map[int]*Pair),
		Elided:   make(map[int]bool),
		PerRule:  make(map[string]int),
	}
	p := t.CFG.Prog
	taken := make(map[int]bool)
	liveness := ir.ComputeLiveness(t.CFG)

	for bi := range t.CFG.Blocks {
		b := &t.CFG.Blocks[bi]
		for ci := b.Start; ci < b.End; ci++ {
			if taken[ci] {
				continue
			}
			consumer := &p.Insts[ci]
			for ri := range rules {
				rule := &rules[ri]
				if consumer.Op != rule.Consumer {
					continue
				}
				prodSI := findProducer(p.Insts, b, ci, rule, taken, liveness)
				if prodSI < 0 {
					continue
				}
				pair := &Pair{Rule: rule, ProducerSI: prodSI, ConsumerSI: ci}
				switch rule.Style {
				case ProducerAbsorbs:
					plan.Survivor[prodSI] = pair
					plan.Elided[ci] = true
				case ConsumerAbsorbs:
					plan.Survivor[ci] = pair
					plan.Elided[prodSI] = true
				}
				taken[prodSI], taken[ci] = true, true
				plan.PerRule[rule.Name]++
				break
			}
		}
	}
	return plan
}

// findProducer tries the consumer's sources in turn: a candidate is the
// nearest earlier in-block definition of the source, with the rule's
// producer opcode, not yet in a pair, in accumulator form when the rule
// requires it and single-use. It returns the first candidate's SI, or -1.
func findProducer(insts []isa.Inst, b *ir.Block, ci int, rule *Rule, taken map[int]bool, lv *ir.Liveness) int {
	consumer := &insts[ci]
	var buf [2]isa.Reg
	for _, r := range consumer.Srcs(buf[:0]) {
		si := ci - 1
		for si >= b.Start && (!insts[si].HasDst() || insts[si].Dst != r) {
			si--
		}
		if si < b.Start || insts[si].Op != rule.Producer || taken[si] {
			continue
		}
		if rule.RequireAccumulator && !isAccumulator(consumer, r) {
			continue
		}
		if singleUse(insts, b, si, ci, r, lv) {
			return si
		}
	}
	return -1
}

func isAccumulator(consumer *isa.Inst, prodReg isa.Reg) bool {
	switch prodReg {
	case consumer.Src1:
		return consumer.Src2 == consumer.Dst
	case consumer.Src2:
		return consumer.Src1 == consumer.Dst
	}
	return false
}

// singleUse checks that the produced register has no in-block reader
// other than the consumer, and is dead at block exit (liveness), so the
// producer's architectural result can be elided.
func singleUse(insts []isa.Inst, b *ir.Block, prodSI, consSI int, r isa.Reg, lv *ir.Liveness) bool {
	var srcs []isa.Reg
	for i := prodSI + 1; i < b.End; i++ {
		if i == consSI {
			continue
		}
		in := &insts[i]
		srcs = srcs[:0]
		for _, s := range in.Srcs(srcs) {
			if s == r {
				return false
			}
		}
		if in.HasDst() && in.Dst == r && i > consSI {
			return true // redefined after the consumer: dead beyond
		}
	}
	return !lv.LiveOut[b.ID].Has(r)
}

// Evaluate runs the whole trace through a core with the fusion plan
// applied, returning cycles and energy counts (TDG_GPP,rules).
func Evaluate(t *tdg.TDG, core cores.Config, plan *Plan) (int64, energy.Counts) {
	var counts energy.Counts
	m := cores.NewGPP(core, dg.NewLeanGraph(), &counts)
	p := t.Trace.Prog
	for i := range t.Trace.Insts {
		d := &t.Trace.Insts[i]
		si := int(d.SI)
		if plan.Elided[si] {
			continue
		}
		in := &p.Insts[si]
		pair, fused := plan.Survivor[si]
		if !fused {
			m.Exec(cores.FromDyn(in, d), int32(i))
			continue
		}
		m.Exec(fusedUOp(p.Insts, pair, d), int32(i))
	}
	return m.EndTime(), counts
}

// fusedUOp builds the surviving micro-op of a pair for one dynamic
// instance.
func fusedUOp(insts []isa.Inst, pair *Pair, d *trace.DynInst) cores.UOp {
	prod := &insts[pair.ProducerSI]
	cons := &insts[pair.ConsumerSI]
	switch pair.Rule.Style {
	case ProducerAbsorbs:
		// Fused op runs at the producer site, writing the consumer's dst
		// and reading the producer's sources (+ accumulator via dst).
		return cores.UOp{
			Op: pair.Rule.FusedOp, Dst: cons.Dst,
			Src1: prod.Src1, Src2: prod.Src2,
		}
	default: // ConsumerAbsorbs
		op := pair.Rule.FusedOp
		if op == isa.Nop {
			op = cons.Op
		}
		return cores.UOp{
			Op: op, Dst: cons.Dst,
			Src1: prod.Src1, Src2: prod.Src2,
			Mispred: d.Mispredicted(), Taken: d.Taken(),
		}
	}
}

// Summary renders the plan for reports, rules in name order.
func (p *Plan) Summary() string {
	if len(p.Survivor) == 0 {
		return "no fusable pairs"
	}
	names := make([]string, 0, len(p.PerRule))
	for name := range p.PerRule {
		names = append(names, name)
	}
	sort.Strings(names)
	s := fmt.Sprintf("%d fused pairs:", len(p.Survivor))
	for _, name := range names {
		s += fmt.Sprintf(" %s=%d", name, p.PerRule[name])
	}
	return s
}
