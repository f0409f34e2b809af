// Package ccores models Conservation Cores: automatically generated,
// simple hardware implementations of application code meant as offload
// engines for in-order cores (Venkatesh et al., ASPLOS 2010; validated by
// the paper in §2.5). Each targeted region becomes hardwired datapath
// logic — no fetch, decode or configuration cost, modest parallelism
// (block-level dataflow over a narrow issue), large energy savings. The
// model exists chiefly for the Table 1 / Figure 5 validation experiment,
// where its host is the IO2 core, but it is a full tdg.BSA and can be
// composed into ExoCores like any other.
package ccores

import (
	"exocore/internal/bsa/bsautil"
	"exocore/internal/dg"
	"exocore/internal/energy"
	"exocore/internal/tdg"
)

// Model is the Conservation-Cores BSA.
type Model struct {
	// MaxStaticInsts bounds the synthesized region size.
	MaxStaticInsts int
}

// New returns the C-Cores model.
func New() *Model { return &Model{MaxStaticInsts: 512} }

// Name implements tdg.BSA.
func (m *Model) Name() string { return "C-Cores" }

// AreaMM2 implements tdg.BSA: synthesized datapaths for the hot regions.
func (m *Model) AreaMM2() float64 { return 1.2 }

// OffloadsCore implements tdg.BSA: the host core sleeps during regions.
func (m *Model) OffloadsCore() bool { return true }

var dfConfig = bsautil.DataflowConfig{
	IssueBandwidth:   2,
	BusBandwidth:     2,
	BusEvery:         1,
	MemPorts:         1,
	SerializeControl: true, // simple hardware follows the control flow
	ChainOps:         true, // sequential datapath, not dataflow
	OpsPerCompound:   2,    // fused datapath operators
	DispatchEvent:    energy.EvDFDispatch,
	OpEvent:          energy.EvCFUOp,
	StorageEvent:     energy.EvDFOpStorage,
	MemEvent:         energy.EvLSQ,
}

// Analyze implements tdg.BSA: any loop that fits the synthesis budget is
// a candidate (c-cores are generated from profiling the hot code).
func (m *Model) Analyze(t *tdg.TDG) *tdg.Plan {
	plan := &tdg.Plan{BSA: m.Name(), Regions: make(map[int]*tdg.Region)}
	for l := range t.Nest.Loops {
		if t.Prof.Loops[l].Iterations == 0 || t.Nest.InstsOf(l) > m.MaxStaticInsts {
			continue
		}
		plan.Regions[l] = &tdg.Region{LoopID: l, EstSpeedup: 1.1}
	}
	return plan
}

// TransformRegion implements tdg.BSA: block-serialized dataflow on the
// synthesized datapath — no fetch/decode/rename events, no configuration
// load (the hardware is fixed-function).
func (m *Model) TransformRegion(ctx *tdg.Ctx, r *tdg.Region, start, end int) dg.NodeID {
	ld := ctx.TDG.Dataflow(r.LoopID)
	df := bsautil.NewDataflow(dfConfig, ctx.G, ctx.Counts, bsautil.Enter(ctx, ld.LiveIns, start, 0))
	defer df.Release()
	df.ExecRange(ctx.TDG.Trace, start, end)
	return df.Exit(ctx.GPP, len(ld.LiveOuts))
}
