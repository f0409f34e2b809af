// Package gsdae models a decoupled gather-scatter / prefetch-ahead
// engine (GS-DAE) for irregular index-chasing regions: the A[B[i]]
// access patterns of graph analytics (CSR traversals, edge-centric
// gathers) that defeat the paper's four BSAs. The analyzer finds loops
// whose static body contains dependent-load pairs — a load whose address
// derives from another load's value — and splits the body into an
// *access stream* (address computation, index loads, gathers, scatters)
// and a *compute stream* (everything else, including control).
//
// The transform runs the access stream on a decoupled address-generator
// array: access-slice ops fire dataflow-style as their inputs arrive,
// not serialized behind the compute stream's control, so index loads for
// future iterations issue while earlier gathers are still in flight —
// the memory-level parallelism a speculative core can only reach within
// its issue window. Run-ahead is bounded by a prefetch queue of
// QueueDepth in-flight loads (the decoupling FIFO) and the generator's
// issue ports. The compute stream executes non-speculatively, each op
// waiting for the branch that admitted its block — cheap control, but
// serialized: on regular dense regions the engine has no gathers to hide
// and loses to SIMD/DP-CGRA, which is the behavior-specialization
// tradeoff that earns it a seat in the registry.
package gsdae

import (
	"sync"

	"exocore/internal/bsa/bsautil"
	"exocore/internal/dg"
	"exocore/internal/energy"
	"exocore/internal/isa"
	"exocore/internal/tdg"
	"exocore/internal/trace"
)

// Model is the GS-DAE BSA.
type Model struct {
	// MaxStaticInsts is the configuration budget (descriptor slots).
	MaxStaticInsts int
	// QueueDepth bounds in-flight decoupled loads (the prefetch FIFO).
	QueueDepth int
}

// New returns the GS-DAE model with default structure sizes.
func New() *Model { return &Model{MaxStaticInsts: 192, QueueDepth: 16} }

// Name implements tdg.BSA.
func (m *Model) Name() string { return "GS-DAE" }

// AreaMM2 implements tdg.BSA: an address-generator array, the prefetch
// FIFO and a small non-speculative compute array — between C-Cores and
// NS-DF in size.
func (m *Model) AreaMM2() float64 { return 0.9 }

// OffloadsCore implements tdg.BSA: the host pipeline is power-gated
// while a region runs.
func (m *Model) OffloadsCore() bool { return true }

// ConfigLatency is the cycles to load the stream descriptors and the
// compute configuration on a config-cache miss.
const ConfigLatency = 24

// Stream structure sizes.
const (
	accessIssueBW  = 2 // address-generator ops begun per cycle
	accessMemPorts = 2 // decoupled cache ports
	computeIssueBW = 4
	computeMemPort = 1 // residual compute-side memory ops
)

// regionPlan is the analyzer's per-loop classification, carried in
// Region.Config: which static instructions belong to the access stream,
// and which loads are gathers (dependent loads).
type regionPlan struct {
	access  map[int32]bool
	gather  map[int32]bool
	nInsts  int
	nMem    int
	nGather int
}

// Analyze implements tdg.BSA: plan every profiled loop that fits the
// descriptor budget and contains at least one dependent-load pair.
// Loops without index-chasing are not planned at all — GS-DAE abstains
// on regular regions rather than modeling a transform it cannot win.
func (m *Model) Analyze(t *tdg.TDG) *tdg.Plan {
	plan := &tdg.Plan{BSA: m.Name(), Regions: make(map[int]*tdg.Region)}
	for l := range t.Nest.Loops {
		if t.Prof.Loops[l].Iterations == 0 {
			continue
		}
		if t.Nest.InstsOf(l) > m.MaxStaticInsts {
			continue
		}
		rp := m.classify(t, l)
		if rp.nGather == 0 {
			continue
		}
		plan.Regions[l] = &tdg.Region{
			LoopID:     l,
			EstSpeedup: m.estimate(t, l, rp),
			Config:     rp,
		}
	}
	return plan
}

// loopInsts returns the static instruction indices of a loop's blocks in
// ascending order.
func loopInsts(t *tdg.TDG, l int) []int {
	var sis []int
	for _, b := range t.Nest.Loops[l].Blocks {
		blk := &t.CFG.Blocks[b]
		for si := blk.Start; si < blk.End; si++ {
			sis = append(sis, si)
		}
	}
	// Loop blocks are discovered in CFG order but keep the slice sorted
	// so classification passes are deterministic.
	for i := 1; i < len(sis); i++ {
		for j := i; j > 0 && sis[j] < sis[j-1]; j-- {
			sis[j], sis[j-1] = sis[j-1], sis[j]
		}
	}
	return sis
}

// classify splits a loop body into access and compute streams. Two
// forward passes mark load-derived registers (the second catches
// loop-carried derivations) and flag gathers: loads whose address
// register holds a load-derived value. Two backward passes then collect
// the address slice — every op whose result feeds a memory op's address
// — which joins the loads and scatters on the access stream.
func (m *Model) classify(t *tdg.TDG, l int) *regionPlan {
	sis := loopInsts(t, l)
	rp := &regionPlan{
		access: make(map[int32]bool),
		gather: make(map[int32]bool),
		nInsts: len(sis),
	}

	var derived [isa.NumRegs]bool
	for pass := 0; pass < 2; pass++ {
		for _, si := range sis {
			in := t.CFG.Prog.At(si)
			switch {
			case in.Op.IsLoad():
				if in.Src1.Valid() && in.Src1 != isa.RZ && derived[in.Src1] {
					rp.gather[int32(si)] = true
				}
				if in.HasDst() {
					derived[in.Dst] = true
				}
			case in.Op.IsStore() || in.Op.IsCtrl():
				// No register result.
			case in.HasDst():
				d := false
				if in.Src1.Valid() && in.Src1 != isa.RZ && derived[in.Src1] {
					d = true
				}
				if in.Src2.Valid() && in.Src2 != isa.RZ && derived[in.Src2] {
					d = true
				}
				derived[in.Dst] = d
			}
		}
	}

	// Address slice: registers consumed as memory-op address bases.
	var addr [isa.NumRegs]bool
	for _, si := range sis {
		in := t.CFG.Prog.At(si)
		if in.Op.IsMem() && in.Src1.Valid() && in.Src1 != isa.RZ {
			addr[in.Src1] = true
		}
	}
	for pass := 0; pass < 2; pass++ {
		for i := len(sis) - 1; i >= 0; i-- {
			si := sis[i]
			in := t.CFG.Prog.At(si)
			if in.Op.IsMem() {
				rp.access[int32(si)] = true
				continue
			}
			if in.HasDst() && addr[in.Dst] && !in.Op.IsCtrl() {
				rp.access[int32(si)] = true
				if in.Src1.Valid() && in.Src1 != isa.RZ {
					addr[in.Src1] = true
				}
				if in.Src2.Valid() && in.Src2 != isa.RZ {
					addr[in.Src2] = true
				}
			}
		}
	}

	for _, si := range sis {
		if t.CFG.Prog.At(si).Op.IsMem() {
			rp.nMem++
		}
	}
	rp.nGather = len(rp.gather)
	return rp
}

// estimate is the profile-based speedup heuristic for the Amdahl-tree
// scheduler: decoupling pays in proportion to how much of the loop is
// gather-style memory work, and loses it back when control is dense but
// gathers are sparse (the serialized compute stream dominates).
func (m *Model) estimate(t *tdg.TDG, l int, rp *regionPlan) float64 {
	if rp.nInsts == 0 {
		return 1
	}
	var branches int
	for _, b := range t.Nest.Loops[l].Blocks {
		blk := &t.CFG.Blocks[b]
		for si := blk.Start; si < blk.End; si++ {
			if t.CFG.Prog.At(si).Op.IsCtrl() {
				branches++
			}
		}
	}
	memFrac := float64(rp.nMem) / float64(rp.nInsts)
	gatherFrac := float64(rp.nGather) / float64(rp.nMem)
	ctrlFrac := float64(branches) / float64(rp.nInsts)
	est := 1.0 + 4.5*memFrac*gatherFrac - 1.8*ctrlFrac*(1-gatherFrac)
	if est < 0.5 {
		est = 0.5
	}
	if est > 2.6 {
		est = 2.6
	}
	return est
}

// TransformRegion implements tdg.BSA: the access stream issues in order
// on its own ports, bounded by the prefetch queue; the compute stream
// executes non-speculatively, consuming gathered values through the
// decoupling FIFO. Both streams share one register scoreboard, so a
// compute-produced address honestly blocks run-ahead.
func (m *Model) TransformRegion(ctx *tdg.Ctx, r *tdg.Region, start, end int) dg.NodeID {
	rp := r.Config.(*regionPlan)
	ld := ctx.TDG.Dataflow(r.LoopID)
	if ctx.Span.Active() {
		ctx.Span.ArgInt("gathers", int64(rp.nGather)).
			ArgInt("access_insts", int64(len(rp.access))).
			ArgInt("insts", int64(end-start))
	}

	// Region entry loads the stream descriptors on a configuration miss.
	st := newStreams(m, ctx.G, bsautil.Enter(ctx, ld.LiveIns, start, ConfigLatency))
	defer st.release()
	tr := ctx.TDG.Trace
	for i := start; i < end; i++ {
		d := &tr.Insts[i]
		st.exec(ctx.Counts, &tr.Prog.Insts[d.SI], d, int32(i), rp.access[d.SI])
	}
	exit := st.exitNode(bsautil.TransferLatency(len(ld.LiveOuts)))
	return bsautil.HandBack(ctx.GPP, exit, &st.written, &st.stores)
}

// streams is the two-stream executor state for one region occurrence.
type streams struct {
	g *dg.Graph

	regNode  [isa.NumRegs]dg.NodeID
	ctrlNode dg.NodeID // compute-stream control chain
	lastAcc  dg.NodeID // last access-stream completion (exit join)
	lastNode dg.NodeID

	queue []dg.NodeID // decoupling FIFO of in-flight load completions
	qi    int

	accIssueRT *dg.ResourceTable
	accMemRT   *dg.ResourceTable
	cmpIssueRT *dg.ResourceTable
	cmpMemRT   *dg.ResourceTable

	ops     int64
	written [isa.NumRegs]bool
	stores  dg.StoreTable[dg.NodeID]
}

// streamsPool recycles executors, and with them their store tables,
// across region occurrences.
var streamsPool = sync.Pool{New: func() any { return new(streams) }}

// newStreams returns a pooled executor whose inputs become available at
// entry; pair with release.
func newStreams(m *Model, g *dg.Graph, entry dg.NodeID) *streams {
	s := streamsPool.Get().(*streams)
	s.g = g
	s.ctrlNode, s.lastAcc, s.lastNode = entry, dg.None, entry
	for i := range s.regNode {
		s.regNode[i] = entry
	}
	if cap(s.queue) < m.QueueDepth {
		s.queue = make([]dg.NodeID, m.QueueDepth)
	}
	s.queue = s.queue[:m.QueueDepth]
	for i := range s.queue {
		s.queue[i] = dg.None
	}
	s.qi, s.ops = 0, 0
	s.accIssueRT = g.BorrowRT(accessIssueBW)
	s.accMemRT = g.BorrowRT(accessMemPorts)
	s.cmpIssueRT = g.BorrowRT(computeIssueBW)
	s.cmpMemRT = g.BorrowRT(computeMemPort)
	clear(s.written[:])
	s.stores.Clear()
	return s
}

// release returns the resource tables to the graph and the executor to
// its pool.
func (s *streams) release() {
	s.g.ReturnRT(s.accIssueRT, s.accMemRT, s.cmpIssueRT, s.cmpMemRT)
	s.accIssueRT, s.accMemRT, s.cmpIssueRT, s.cmpMemRT = nil, nil, nil, nil
	s.g = nil
	streamsPool.Put(s)
}

// exec models one dynamic instruction on its stream.
func (s *streams) exec(counts *energy.Counts, in *isa.Inst, dyn *trace.DynInst, dynIdx int32, access bool) dg.NodeID {
	g := s.g
	e := g.NewNode(dynIdx)

	// Data dependences through the shared scoreboard.
	if in.Src1.Valid() && in.Src1 != isa.RZ {
		g.AddEdge(s.regNode[in.Src1], e, 0, dg.EdgeData)
	}
	if in.Src2.Valid() && in.Src2 != isa.RZ {
		g.AddEdge(s.regNode[in.Src2], e, 0, dg.EdgeData)
	}
	if in.Op == isa.FMA && in.Dst.Valid() {
		g.AddEdge(s.regNode[in.Dst], e, 0, dg.EdgeData)
	}

	if access {
		// Decoupled address generator: dataflow issue, run-ahead bounded
		// by the prefetch FIFO — a load waits for the load QueueDepth
		// positions earlier to complete before its slot frees.
		if in.Op.IsLoad() {
			g.AddEdge(s.queue[s.qi%len(s.queue)], e, 0, dg.EdgeAccelPipe)
		}
		g.PushTime(e, s.accIssueRT.Book(g.Time(e)), dg.EdgeFU)
		if in.Op.IsMem() {
			g.PushTime(e, s.accMemRT.Book(g.Time(e)), dg.EdgeCachePort)
		}
	} else {
		// Non-speculative compute: wait for the admitting branch.
		g.AddEdge(s.ctrlNode, e, 1, dg.EdgeAccelCompute)
		g.PushTime(e, s.cmpIssueRT.Book(g.Time(e)), dg.EdgeFU)
		if in.Op.IsMem() {
			g.PushTime(e, s.cmpMemRT.Book(g.Time(e)), dg.EdgeCachePort)
		}
	}

	// Store-to-load forwarding through the decoupling buffer, after the
	// stream's resource booking.
	if in.Op.IsLoad() {
		if dep, ok := s.stores.Get(dyn.Addr); ok {
			g.AddEdge(dep, e, 1, dg.EdgeMemDep)
		}
	}

	// Completion.
	p := g.NewNode(dynIdx)
	g.AddEdge(e, p, bsautil.OpLatency(in, dyn), dg.EdgeExec)

	if access {
		s.lastAcc = p
		if in.Op.IsLoad() {
			s.queue[s.qi%len(s.queue)] = p
			s.qi++
		}
	}
	if in.HasDst() {
		s.regNode[in.Dst] = p
		s.written[in.Dst] = true
		counts.Add(energy.EvDFOpStorage, 1)
	}
	if in.Op.IsStore() {
		s.stores.Set(dyn.Addr, p)
	}
	if in.Op.IsCtrl() && !access {
		s.ctrlNode = p
	}

	// Energy: descriptor-amortized dispatch + per-op firing + memory.
	s.ops++
	if s.ops%4 == 0 {
		counts.Add(energy.EvDFDispatch, 1)
	}
	counts.Add(energy.EvCFUOp, 1)
	if in.Op.IsMem() {
		counts.Add(energy.EvLSQ, 1)
		bsautil.ChargeMemAccess(counts, dyn.Level)
	}

	s.lastNode = p
	return p
}

// exitNode joins both streams: all written registers (in ascending
// register order), the last control decision and the last access-stream
// op are available.
func (s *streams) exitNode(extraLat int64) dg.NodeID {
	g := s.g
	exit := g.NewNode(-1)
	g.AddEdge(s.ctrlNode, exit, extraLat, dg.EdgeAccelComm)
	g.AddEdge(s.lastNode, exit, extraLat, dg.EdgeAccelComm)
	g.AddEdge(s.lastAcc, exit, extraLat, dg.EdgeAccelComm)
	for r, w := range s.written {
		if w {
			g.AddEdge(s.regNode[r], exit, extraLat, dg.EdgeAccelComm)
		}
	}
	return exit
}
