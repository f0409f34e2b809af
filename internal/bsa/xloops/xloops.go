// Package xloops models a loop-dependence-pattern accelerator in the
// style of XLOOPS (Srinath et al., MICRO 2014 — reference [49] of the
// paper): an array of simple lanes executes consecutive loop iterations
// concurrently, with cross-iteration (ordered) register dependences
// forwarded lane-to-lane through queues. Control inside an iteration is
// resolved by its own lane, so — unlike NS-DF — branches do not serialize
// across iterations; throughput is instead bounded by the loop's carried
// dependence chain (the initiation interval) and the lane count.
//
// XLOOPS is not part of the paper's four-BSA ExoCore design space; it is
// provided as the "other proposed accelerators" extension §5.5 invites,
// and it deliberately complements the others: it targets exactly the
// carried-recurrence loops SIMD and DP-CGRA must reject.
package xloops

import (
	"exocore/internal/bsa/bsautil"
	"exocore/internal/dg"
	"exocore/internal/energy"
	"exocore/internal/isa"
	"exocore/internal/tdg"
)

// Model is the XLOOPS-style BSA.
type Model struct {
	// Lanes is the number of iteration-executing lanes.
	Lanes int
	// MaxStaticInsts bounds the loop body size.
	MaxStaticInsts int
	// MinAvgTrip rejects loops with too few iterations to fill the lanes.
	MinAvgTrip float64
}

// New returns the model at the XLOOPS-like design point.
func New() *Model { return &Model{Lanes: 4, MaxStaticInsts: 128, MinAvgTrip: 8} }

// Name implements tdg.BSA.
func (m *Model) Name() string { return "XLoops" }

// AreaMM2 implements tdg.BSA (four simple lanes + forwarding queues).
func (m *Model) AreaMM2() float64 { return 1.4 }

// OffloadsCore implements tdg.BSA.
func (m *Model) OffloadsCore() bool { return true }

var dfConfig = bsautil.DataflowConfig{
	IssueBandwidth:   8, // 2 per lane
	BusBandwidth:     2, // inter-lane forwarding queues
	BusEvery:         3, // only carried values cross lanes
	MemPorts:         2,
	SerializeControl: true, // per-iteration; reset at each lane dispatch
	OpsPerCompound:   2,
	DispatchEvent:    energy.EvDFDispatch,
	OpEvent:          energy.EvCFUOp,
	StorageEvent:     energy.EvDFOpStorage,
	MemEvent:         energy.EvLSQ,
}

// ConfigLatency is the loop-configuration load cost on a miss.
const ConfigLatency = 24

type loopPlan struct {
	ii int64 // estimated carried-dependence chain per iteration
}

// Analyze implements tdg.BSA: inner loops that fit the lanes, with a
// per-iteration speedup estimate of min(lanes, body/II) — the classic
// ordered-loop pipelining bound.
func (m *Model) Analyze(t *tdg.TDG) *tdg.Plan {
	plan := &tdg.Plan{BSA: m.Name(), Regions: make(map[int]*tdg.Region)}
	for l := range t.Nest.Loops {
		loop := &t.Nest.Loops[l]
		lp := &t.Prof.Loops[l]
		if !loop.Inner() || lp.Iterations == 0 || lp.AvgTrip < m.MinAvgTrip {
			continue
		}
		if t.Nest.InstsOf(l) > m.MaxStaticInsts {
			continue
		}
		ii := m.carriedChain(t, l)
		body := float64(lp.DynInsts) / float64(lp.Iterations)
		perIterOnCore := body / 1.5 // rough core IPC on loop bodies
		est := perIterOnCore / float64(ii)
		if est > float64(m.Lanes) {
			est = float64(m.Lanes)
		}
		if est <= 1.05 {
			continue
		}
		plan.Regions[l] = &tdg.Region{
			LoopID: l, EstSpeedup: est, Config: &loopPlan{ii: ii},
		}
	}
	return plan
}

// carriedChain estimates the initiation interval: the longest latency
// chain from a loop-carried value's use to its next-iteration definition.
func (m *Model) carriedChain(t *tdg.TDG, l int) int64 {
	ld := t.Dataflow(l)
	loop := &t.Nest.Loops[l]
	carried := make(map[isa.Reg]bool)
	for _, r := range ld.CarriedRegDep {
		carried[r] = true
	}
	for si := range ld.Reductions {
		if in := t.CFG.Prog.At(si); in.HasDst() {
			carried[in.Dst] = true
		}
	}
	for _, iv := range ld.Inductions {
		carried[iv.Reg] = true
	}

	depth := make(map[isa.Reg]int64)
	var ii int64 = 1
	var srcs []isa.Reg
	for _, b := range loop.Blocks {
		blk := &t.CFG.Blocks[b]
		for si := blk.Start; si < blk.End; si++ {
			in := t.CFG.Prog.At(si)
			var d int64
			srcs = srcs[:0]
			for _, r := range in.Srcs(srcs) {
				if depth[r] > d {
					d = depth[r]
				}
			}
			d += int64(in.Op.Latency())
			if in.HasDst() {
				depth[in.Dst] = d
				if carried[in.Dst] && d > ii {
					ii = d
				}
			}
		}
	}
	return ii
}

// TransformRegion implements tdg.BSA: iterations dispatch round-robin to
// lanes (an iteration waits for its lane's previous occupant), carried
// register values flow through the shared dataflow state, and each
// iteration's control anchors to its own dispatch — cross-iteration
// control independence.
func (m *Model) TransformRegion(ctx *tdg.Ctx, r *tdg.Region, start, end int) dg.NodeID {
	g := ctx.G
	ld := ctx.TDG.Dataflow(r.LoopID)
	entry := bsautil.Enter(ctx, ld.LiveIns, start, ConfigLatency)
	df := bsautil.NewDataflow(dfConfig, g, ctx.Counts, entry)
	defer df.Release()
	iters := bsautil.SplitIterations(ctx.TDG, r.LoopID, start, end)
	laneEnd := make([]dg.NodeID, m.Lanes)
	for i := range laneEnd {
		laneEnd[i] = entry
	}
	for k, it := range iters {
		lane := k % m.Lanes
		dispatch := g.NewNode(int32(it.Start))
		g.AddEdge(laneEnd[lane], dispatch, 1, dg.EdgeAccelPipe) // lane reuse
		g.AddEdge(entry, dispatch, 0, dg.EdgeProgram)
		df.ResetControl(dispatch) // lane-local control
		df.ExecRange(ctx.TDG.Trace, it.Start, it.End)
		laneEnd[lane] = df.CtrlNode() // the iteration's final branch
	}
	return df.Exit(ctx.GPP, len(ld.LiveOuts))
}
