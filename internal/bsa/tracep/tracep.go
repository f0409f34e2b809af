// Package tracep models a trace-speculative offload processor in the
// style of BERET, extended with dataflow execution as in the paper
// (§3.1 "Trace-Speculative Core"): hot loop traces found by path
// profiling execute speculatively on compound functional units that may
// cross control boundaries, with an iteration-versioned store buffer
// holding speculative state. Iterations that diverge from the hot trace
// are squashed and re-executed on the host core (misspeculation replay).
package tracep

import (
	"exocore/internal/bsa/bsautil"
	"exocore/internal/dg"
	"exocore/internal/energy"
	"exocore/internal/tdg"
)

// Model is the Trace-P BSA. The default (New) adds dataflow execution to
// the BERET concept as the paper does (§3.1); NewBERET reproduces the
// original serialized-compound-FU BERET for the §2.5 validation.
type Model struct {
	// MinBackProb is the loop-back probability threshold for eligibility
	// (paper: 80%).
	MinBackProb float64
	// MinHotFrac is the minimum fraction of iterations following the hot
	// path for the trace to be profitable.
	MinHotFrac float64
	// MaxStaticInsts bounds the hot trace's configuration size. Trace-P
	// has half the operand storage of NS-DF but larger CFUs (§3.1).
	MaxStaticInsts int

	name string
	df   bsautil.DataflowConfig
}

var dfDefault = bsautil.DataflowConfig{
	IssueBandwidth:   8,
	BusBandwidth:     2,
	BusEvery:         3, // larger CFUs keep more values internal (§3.1)
	MemPorts:         2,
	SerializeControl: false, // speculative: control is assumed, then checked
	OpsPerCompound:   4,     // compound insts cross control boundaries
	DispatchEvent:    energy.EvTraceFetch,
	OpEvent:          energy.EvCFUOp,
	StorageEvent:     energy.EvDFOpStorage,
	MemEvent:         energy.EvSBAccess, // iteration-versioned store buffer
}

// New returns the Trace-P model with the paper's thresholds.
func New() *Model {
	return &Model{
		MinBackProb: 0.8, MinHotFrac: 0.55, MaxStaticInsts: 128,
		name: "Trace-P", df: dfDefault,
	}
}

// NewBERET returns the original BERET design point: serialized execution
// of compound functional units instead of dataflow (used to validate the
// framework against BERET's published results, §2.5).
func NewBERET() *Model {
	m := New()
	m.name = "BERET"
	m.df.ChainOps = true
	m.df.IssueBandwidth = 2
	m.df.BusEvery = 2
	m.df.OpsPerCompound = 3
	// BERET tolerates lower trace bias than the dataflow Trace-P: its
	// energy win survives more replays, matching its published use on
	// SPECint (§2.5).
	m.MinBackProb = 0.7
	m.MinHotFrac = 0.35
	return m
}

// Name implements tdg.BSA.
func (m *Model) Name() string { return m.name }

// AreaMM2 implements tdg.BSA (BERET-class CFUs + versioned store buffer).
func (m *Model) AreaMM2() float64 { return 0.9 }

// OffloadsCore implements tdg.BSA.
func (m *Model) OffloadsCore() bool { return true }

// Latency constants.
const (
	// ConfigLatency is the trace-configuration load cost on a miss.
	ConfigLatency = 24
	// ReplayPenalty is the squash/flush latency before a misspeculated
	// iteration restarts on the host core.
	ReplayPenalty = 8
)

type tracePlan struct {
	hotPath []int // block IDs of the speculated trace
}

// Analyze implements tdg.BSA: eligible loops have hot traces (loop-back
// probability > MinBackProb, found via path profiling — Ball-Larus [4]),
// a dominant iteration path, and a configuration that fits.
func (m *Model) Analyze(t *tdg.TDG) *tdg.Plan {
	plan := &tdg.Plan{BSA: m.Name(), Regions: make(map[int]*tdg.Region)}
	for l := range t.Nest.Loops {
		loop := &t.Nest.Loops[l]
		lp := &t.Prof.Loops[l]
		if !loop.Inner() || lp.Iterations == 0 {
			continue
		}
		if lp.BackProb < m.MinBackProb || lp.HotPathFrac < m.MinHotFrac || len(lp.HotPath) == 0 {
			continue
		}
		// Configuration size: static instructions on the hot path only.
		size := 0
		for _, b := range lp.HotPath {
			size += t.CFG.Blocks[b].Len()
		}
		if size > m.MaxStaticInsts {
			continue
		}
		// Speedup estimate: dataflow with no control serialization, paid
		// back by replays of diverging iterations.
		est := 2.0*lp.HotPathFrac - 0.9*(1-lp.HotPathFrac)*2
		if est < 0.5 {
			est = 0.5
		}
		plan.Regions[l] = &tdg.Region{
			LoopID: l, EstSpeedup: est,
			Config: &tracePlan{hotPath: lp.HotPath},
		}
	}
	return plan
}

// TransformRegion implements tdg.BSA. Iterations matching the hot path
// execute as speculative dataflow (control dependences dropped); a
// diverging iteration charges the partially executed trace, pays the
// squash penalty, and replays entirely on the host core
// (TDG_GPP-Orig,∅ → TDG_GPP-New,∅ per §3.2).
func (m *Model) TransformRegion(ctx *tdg.Ctx, r *tdg.Region, start, end int) dg.NodeID {
	plan := r.Config.(*tracePlan)
	g := ctx.G
	gpp := ctx.GPP
	ld := ctx.TDG.Dataflow(r.LoopID)
	df := bsautil.NewDataflow(m.df, g, ctx.Counts, bsautil.Enter(ctx, ld.LiveIns, start, ConfigLatency))
	defer df.Release()
	iters := bsautil.SplitIterations(ctx.TDG, r.LoopID, start, end)
	for _, it := range iters {
		matched, shared := matchHotPath(ctx.TDG, it.Start, it.End, plan.hotPath)
		if matched {
			df.ExecRange(ctx.TDG.Trace, it.Start, it.End)
			continue
		}
		// Misspeculation: the trace engine ran the iteration up to the
		// diverging block before detecting the wrong path; that partial
		// work is wasted (charged), then the whole iteration replays on
		// the host core.
		m.chargeWastedWork(ctx, plan, shared)
		squash := g.NewNode(int32(it.Start))
		g.AddEdge(df.LastNode(), squash, ReplayPenalty, dg.EdgeAccelReplay)
		// Hand current speculative state to the core for the replay.
		for _, reg := range df.WrittenRegs() {
			gpp.SetRegDef(reg, squash)
		}
		gpp.Barrier(squash)
		ctx.ExecCore(it.Start, it.End)
		// Resume the trace engine with the core's architectural state.
		resume := g.NewNode(int32(it.End - 1))
		g.AddEdge(gpp.LastComplete(), resume, 2, dg.EdgeAccelComm)
		df.Resume(resume, gpp)
	}
	return df.Exit(gpp, len(ld.LiveOuts))
}

// chargeWastedWork accounts the energy of trace operations executed
// before divergence was detected: the first sharedBlocks blocks of the
// hot path ran speculatively before the wrong-path check fired.
func (m *Model) chargeWastedWork(ctx *tdg.Ctx, plan *tracePlan, sharedBlocks int) {
	shared := 0
	for _, b := range plan.hotPath[:sharedBlocks] {
		shared += ctx.TDG.CFG.Blocks[b].Len()
	}
	ctx.Counts.Add(energy.EvCFUOp, int64(shared))
	ctx.Counts.Add(energy.EvReplay, 1)
}

// matchHotPath compares one iteration's dynamic block-entry sequence
// against the planned hot path without materializing it, returning
// whether the whole path matched and how many leading blocks did (the
// shared speculative prefix charged on divergence).
func matchHotPath(t *tdg.TDG, start, end int, hot []int) (bool, int) {
	k := 0
	prev, prevSI := -1, -1
	for i := start; i < end; i++ {
		si := int(t.Trace.Insts[i].SI)
		b := t.CFG.BlockOf[si]
		if b != prev || si <= prevSI {
			if k >= len(hot) || hot[k] != b {
				return false, k
			}
			k++
			prev = b
		}
		prevSI = si
	}
	return k == len(hot), k
}
