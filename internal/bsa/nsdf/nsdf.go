// Package nsdf models a non-speculative dataflow offload engine in the
// style of SEED (paper §3.1/3.2 "Non-speculative Dataflow"): distributed
// dataflow units over a writeback bus, compound functional units, its own
// cache interface, targeting fully-inlinable (nested) loops that fit a
// 256-compound-instruction budget. Control is converted to dataflow: every
// operation waits for the branch that admitted its basic block — cheap
// issue width and a large effective window, at the cost of serialized
// control (Table 2: effective when control is off the critical path).
// While a region runs, the host core's frontend is power-gated.
package nsdf

import (
	"exocore/internal/bsa/bsautil"
	"exocore/internal/dg"
	"exocore/internal/energy"
	"exocore/internal/tdg"
)

// Model is the NS-DF BSA.
type Model struct {
	// MaxStaticInsts is the configuration budget (compound instructions).
	MaxStaticInsts int
}

// New returns the NS-DF model with the paper's 256-instruction budget.
func New() *Model { return &Model{MaxStaticInsts: 256} }

// Name implements tdg.BSA.
func (m *Model) Name() string { return "NS-DF" }

// AreaMM2 implements tdg.BSA (SEED-class dataflow array + operand storage).
func (m *Model) AreaMM2() float64 { return 1.7 }

// OffloadsCore implements tdg.BSA: the core pipeline idles during regions.
func (m *Model) OffloadsCore() bool { return true }

var dfConfig = bsautil.DataflowConfig{
	IssueBandwidth:   8,
	BusBandwidth:     2,
	BusEvery:         2, // ~half the values stay inside their CFU
	MemPorts:         2,
	SerializeControl: true,
	OpsPerCompound:   3,
	DispatchEvent:    energy.EvDFDispatch,
	OpEvent:          energy.EvCFUOp,
	StorageEvent:     energy.EvDFOpStorage,
	MemEvent:         energy.EvLSQ,
}

// ConfigLatency is the cycles to load a dataflow configuration on a
// config-cache miss.
const ConfigLatency = 32

// Analyze implements tdg.BSA: every loop (at any nesting depth) whose
// static body fits the hardware budget is eligible; the scheduler decides
// the granularity (paper §3.3: "target an entire loop nest, or just the
// inner loop?").
func (m *Model) Analyze(t *tdg.TDG) *tdg.Plan {
	plan := &tdg.Plan{BSA: m.Name(), Regions: make(map[int]*tdg.Region)}
	for l := range t.Nest.Loops {
		if t.Prof.Loops[l].Iterations == 0 {
			continue
		}
		size := t.Nest.InstsOf(l)
		if size > m.MaxStaticInsts {
			continue
		}
		plan.Regions[l] = &tdg.Region{LoopID: l, EstSpeedup: m.estimate(t, l)}
	}
	return plan
}

// estimate is the profile-based speedup heuristic the Amdahl-tree
// scheduler consumes: dataflow wins when control is sparse (its
// serialization stays off the critical path) and parallelism is high;
// dense control drags it below the core.
func (m *Model) estimate(t *tdg.TDG, l int) float64 {
	loop := &t.Nest.Loops[l]
	var insts, branches, mem int
	for _, b := range loop.Blocks {
		blk := &t.CFG.Blocks[b]
		for si := blk.Start; si < blk.End; si++ {
			insts++
			op := t.CFG.Prog.At(si).Op
			if op.IsCtrl() {
				branches++
			}
			if op.IsMem() {
				mem++
			}
		}
	}
	if insts == 0 {
		return 1
	}
	ctrlFrac := float64(branches) / float64(insts)
	est := 2.1 - 3.5*ctrlFrac + 0.5*float64(mem)/float64(insts)
	if est < 0.6 {
		est = 0.6
	}
	if est > 2.4 {
		est = 2.4
	}
	return est
}

// TransformRegion implements tdg.BSA: control dependences become dataflow
// edges (each op waits for the branch admitting its block), compound-FU
// and writeback-bus bandwidth is enforced, and live values transfer at
// region boundaries (paper §3.2 NS-DF transform).
func (m *Model) TransformRegion(ctx *tdg.Ctx, r *tdg.Region, start, end int) dg.NodeID {
	ld := ctx.TDG.Dataflow(r.LoopID)
	if ctx.Span.Active() {
		ctx.Span.ArgInt("live_ins", int64(len(ld.LiveIns))).
			ArgInt("live_outs", int64(len(ld.LiveOuts))).
			ArgInt("insts", int64(end-start))
	}
	df := bsautil.NewDataflow(dfConfig, ctx.G, ctx.Counts, bsautil.Enter(ctx, ld.LiveIns, start, ConfigLatency))
	defer df.Release()
	df.ExecRange(ctx.TDG.Trace, start, end)
	return df.Exit(ctx.GPP, len(ld.LiveOuts))
}
