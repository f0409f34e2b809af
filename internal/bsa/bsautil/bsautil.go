// Package bsautil holds machinery shared by the BSA transform models:
// splitting a region occurrence into loop iterations, the offload
// handshake with the general core (Enter at region entry, HandBack at
// exit), and a configurable dataflow executor used by the offload models
// (NS-DF, Trace-P/BERET, XLoops, C-Cores), which differ mainly in control
// handling and structure sizes (paper §3.1, Table 2).
package bsautil

import (
	"sort"
	"sync"

	"exocore/internal/dg"
	"exocore/internal/energy"
	"exocore/internal/isa"
	"exocore/internal/tdg"
	"exocore/internal/trace"
)

// Iteration is a half-open dynamic-index range covering one loop
// iteration within a region occurrence.
type Iteration struct {
	Start, End int
}

// SplitIterations splits trace[start:end) into iterations of the given
// loop, detecting iteration boundaries at header-block entry. Any prefix
// before the first header entry is folded into the first iteration.
func SplitIterations(t *tdg.TDG, loopID, start, end int) []Iteration {
	if end <= start {
		return nil
	}
	// The TDG memoizes every loop's header-entry positions, so locating
	// this occurrence's boundaries is a binary search, not a trace scan.
	entries := t.HeaderEntries(loopID)
	lo := sort.Search(len(entries), func(k int) bool { return int(entries[k]) >= start })
	hi := lo + sort.Search(len(entries)-lo, func(k int) bool { return int(entries[lo+k]) >= end })
	bounds := entries[lo:hi]
	if len(bounds) > 0 {
		// The first header entry never splits: any prefix before it folds
		// into the first iteration.
		bounds = bounds[1:]
	}
	iters := make([]Iteration, 0, len(bounds)+1)
	cur := start
	for _, b := range bounds {
		iters = append(iters, Iteration{Start: cur, End: int(b)})
		cur = int(b)
	}
	return append(iters, Iteration{Start: cur, End: end})
}

// Enter builds an offload region's entry: the accelerator starts once the
// core's in-flight work has committed and the live-ins have transferred
// (TransferLatency), then, on a configuration miss (!ctx.ConfigResident),
// loads its configuration for cfgLat cycles, charged as one EvCGRAConfig.
// A model with nothing to load (cfgLat 0) gets no configuration node. It
// returns the node at which the region's inputs are available.
func Enter(ctx *tdg.Ctx, liveIns []isa.Reg, start int, cfgLat int64) dg.NodeID {
	g, gpp := ctx.G, ctx.GPP
	entry := g.NewNode(int32(start))
	inLat := TransferLatency(len(liveIns))
	g.AddEdge(gpp.LastCommit(), entry, inLat, dg.EdgeAccelComm)
	for _, reg := range liveIns {
		g.AddEdge(gpp.RegDef(reg), entry, inLat, dg.EdgeAccelComm)
	}
	if cfgLat == 0 || ctx.ConfigResident {
		return entry
	}
	cfg := g.NewNode(int32(start))
	g.AddEdge(entry, cfg, cfgLat, dg.EdgeAccelConfig)
	ctx.Counts.Add(energy.EvCGRAConfig, 1)
	return cfg
}

// HandBack returns an offload region's architectural state to the core at
// the region's exit node: exit becomes the producer of every written
// register, in ascending register order, the region's stores are noted
// for forwarding into later core loads, and the core's fetch waits for
// exit. It returns exit.
func HandBack(gpp tdg.Core, exit dg.NodeID, written *[isa.NumRegs]bool, stores *dg.StoreTable[dg.NodeID]) dg.NodeID {
	for r, w := range written {
		if w {
			gpp.SetRegDef(isa.Reg(r), exit)
		}
	}
	stores.ForEach(gpp.NoteStore)
	gpp.Barrier(exit)
	return exit
}

// DataflowConfig parameterizes the dataflow executor.
type DataflowConfig struct {
	// IssueBandwidth is ops the CFU array can begin per cycle.
	IssueBandwidth int
	// BusBandwidth is result transfers per cycle on the writeback bus.
	BusBandwidth int
	// BusEvery books the bus for one of every N produced values: only
	// values consumed by a *different* compound unit traverse the bus,
	// approximated as a fixed fraction of results.
	BusEvery int
	// MemPorts is the accelerator's own cache interface width.
	MemPorts int
	// SerializeControl makes every op additionally depend on the last
	// resolved branch (non-speculative dataflow). When false the executor
	// runs the trace's resolved path speculatively (Trace-P).
	SerializeControl bool
	// ChainOps issues operations strictly in order (each op waits for the
	// previous op's issue): the serialized compound-FU execution style of
	// BERET and C-Cores, trading parallelism for energy.
	ChainOps bool
	// OpsPerCompound is the average compound-FU grouping, amortizing
	// dispatch energy.
	OpsPerCompound int
	// DispatchEvent/OpEvent/StorageEvent configure energy accounting.
	DispatchEvent energy.Event
	OpEvent       energy.Event
	StorageEvent  energy.Event
	MemEvent      energy.Event // charged per memory op (SB or LSQ analog)
}

// Dataflow models dataflow execution of dynamic instructions on an
// offload accelerator sharing the cache hierarchy. It tracks register and
// memory dependences locally and exposes entry/exit state for region
// handoff.
type Dataflow struct {
	Cfg    DataflowConfig
	G      *dg.Graph
	Counts *energy.Counts

	regNode  [isa.NumRegs]dg.NodeID
	ctrlNode dg.NodeID
	// stores maps each stored word to its completion node. It holds every
	// store of the region, up to a reset after 8192 words (Exec).
	stores dg.StoreTable[dg.NodeID]

	issueRT *dg.ResourceTable
	busRT   *dg.ResourceTable
	memRT   *dg.ResourceTable

	lastNode dg.NodeID
	lastExec dg.NodeID
	// toBus and toDispatch count down the values to the next bus booking
	// and the ops to the next compound dispatch. toDispatch starts below
	// one when OpsPerCompound is, and then never reaches zero.
	toBus      int
	toDispatch int
	// written flags registers written during execution; a fixed array
	// instead of a map keeps the per-op write branchless, and iteration
	// (WrittenRegs, Exit) deterministic in ascending register order —
	// map iteration could pick either predecessor on exit-edge time ties.
	written [isa.NumRegs]bool
	wrList  [isa.NumRegs]isa.Reg // WrittenRegs scratch
}

// dfPool recycles Dataflow executors (and their store table) across
// regions; every offload model creates one per region occurrence.
var dfPool = sync.Pool{New: func() any {
	return &Dataflow{}
}}

// NewDataflow returns an executor whose inputs become available at the
// entry node (live-in transfer complete). The executor is pooled: pair
// with Release.
func NewDataflow(cfg DataflowConfig, g *dg.Graph, counts *energy.Counts, entry dg.NodeID) *Dataflow {
	d := dfPool.Get().(*Dataflow)
	d.Cfg, d.G, d.Counts = cfg, g, counts
	d.stores.Clear()
	clear(d.written[:])
	d.issueRT = g.BorrowRT(cfg.IssueBandwidth)
	d.busRT = g.BorrowRT(cfg.BusBandwidth)
	d.memRT = g.BorrowRT(cfg.MemPorts)
	for i := range d.regNode {
		d.regNode[i] = entry
	}
	d.ctrlNode = entry
	d.lastNode = entry
	d.lastExec = dg.None
	d.toBus, d.toDispatch = cfg.BusEvery, cfg.OpsPerCompound
	return d
}

// Release recycles the dataflow's resource tables into the graph's pool
// and the executor itself into the package pool. Call (usually defer)
// once the Dataflow is no longer used; it must not be touched afterwards.
func (d *Dataflow) Release() {
	d.G.ReturnRT(d.issueRT, d.busRT, d.memRT)
	d.issueRT, d.busRT, d.memRT = nil, nil, nil
	d.G, d.Counts = nil, nil
	dfPool.Put(d)
}

// Exec models one dynamic instruction on the accelerator and returns its
// completion node.
func (d *Dataflow) Exec(in *isa.Inst, dyn *trace.DynInst, dynIdx int32) dg.NodeID {
	g := d.G
	e := g.NewNode(dynIdx)

	// Data dependences.
	if in.Src1.Valid() && in.Src1 != isa.RZ {
		g.AddEdge(d.regNode[in.Src1], e, 0, dg.EdgeData)
	}
	if in.Src2.Valid() && in.Src2 != isa.RZ {
		g.AddEdge(d.regNode[in.Src2], e, 0, dg.EdgeData)
	}
	if in.Op == isa.FMA && in.Dst.Valid() {
		g.AddEdge(d.regNode[in.Dst], e, 0, dg.EdgeData)
	}
	// Non-speculative control: wait for the branch that admitted this op.
	if d.Cfg.SerializeControl {
		g.AddEdge(d.ctrlNode, e, 1, dg.EdgeAccelCompute)
	}
	// Serialized compound execution: in-order issue.
	if d.Cfg.ChainOps {
		g.AddEdge(d.lastExec, e, 0, dg.EdgeInOrder)
	}
	// Memory dependence through the (store buffer / cache) interface.
	if in.Op.IsLoad() {
		if dep, ok := d.stores.Get(dyn.Addr); ok {
			g.AddEdge(dep, e, 1, dg.EdgeMemDep)
		}
	}

	// Resources.
	g.PushTime(e, d.issueRT.Book(g.Time(e)), dg.EdgeFU)
	if in.Op.IsMem() {
		g.PushTime(e, d.memRT.Book(g.Time(e)), dg.EdgeCachePort)
	}

	// Completion.
	p := g.NewNode(dynIdx)
	g.AddEdge(e, p, OpLatency(in, dyn), dg.EdgeExec)
	if in.HasDst() {
		// Cross-CFU results traverse the writeback bus (a fixed fraction
		// of values stay local to their compound unit): every BusEvery-th
		// value, or every value when BusEvery ≤ 1.
		if d.toBus--; d.toBus <= 0 {
			d.toBus = d.Cfg.BusEvery
			g.PushTime(p, d.busRT.Book(g.Time(p)), dg.EdgeFU)
			d.Counts.Add(energy.EvDFBus, 1)
		}
		d.regNode[in.Dst] = p
		d.written[in.Dst] = true
		d.Counts.Add(d.Cfg.StorageEvent, 1)
	}
	if in.Op.IsStore() {
		d.stores.Set(dyn.Addr, p)
		if d.stores.Len() > 8192 {
			d.stores.Clear()
			d.stores.Set(dyn.Addr, p)
		}
	}
	if in.Op.IsCtrl() {
		d.ctrlNode = p
	}

	// Energy: compound-amortized dispatch + per-op firing + memory.
	if d.toDispatch--; d.toDispatch == 0 {
		d.toDispatch = d.Cfg.OpsPerCompound
		d.Counts.Add(d.Cfg.DispatchEvent, 1)
	}
	d.Counts.Add(d.Cfg.OpEvent, 1)
	if in.Op.IsMem() {
		d.Counts.Add(d.Cfg.MemEvent, 1)
		ChargeMemAccess(d.Counts, dyn.Level)
	}

	d.lastNode = p
	d.lastExec = e
	return p
}

// ExecRange runs trace instructions [start, end) on the accelerator.
func (d *Dataflow) ExecRange(tr *trace.Trace, start, end int) {
	for i := start; i < end; i++ {
		di := &tr.Insts[i]
		d.Exec(&tr.Prog.Insts[di.SI], di, int32(i))
	}
}

// OpLatency is an op's execute-to-complete latency on an offload engine:
// the op's own latency, a load's memory latency, one cycle for a store,
// and never less than one.
func OpLatency(in *isa.Inst, dyn *trace.DynInst) int64 {
	lat := int64(in.Op.Latency())
	if in.Op.IsMem() {
		lat = int64(dyn.MemLat)
		if in.Op.IsStore() {
			lat = 1
		}
	}
	return max(lat, 1)
}

// ChargeMemAccess charges the cache-hierarchy events of one memory access
// served at the given level.
func ChargeMemAccess(c *energy.Counts, level trace.MemLevel) {
	c.Add(energy.EvL1Access, 1)
	switch level {
	case trace.LevelL2:
		c.Add(energy.EvL2Access, 1)
	case trace.LevelMem:
		c.Add(energy.EvL2Access, 1)
		c.Add(energy.EvMemAccess, 1)
	}
}

// CtrlNode returns the last resolved-control node.
func (d *Dataflow) CtrlNode() dg.NodeID { return d.ctrlNode }

// LastNode returns the most recent completion node.
func (d *Dataflow) LastNode() dg.NodeID { return d.lastNode }

// WrittenRegs returns the registers written during execution, in
// ascending order. The slice is scratch owned by the executor — iterate
// it immediately, don't retain it across Exec or Release.
func (d *Dataflow) WrittenRegs() []isa.Reg {
	out := d.wrList[:0]
	for r := 0; r < isa.NumRegs; r++ {
		if d.written[r] {
			out = append(out, isa.Reg(r))
		}
	}
	return out
}

// ResetControl re-anchors the control chain (lane-local control: each
// loop iteration resolves its own branches independently, as in
// XLOOPS-style lane execution).
func (d *Dataflow) ResetControl(node dg.NodeID) { d.ctrlNode = node }

// RegSource lets Resume read the core's architectural dependence state
// without importing the cores package.
type RegSource interface {
	RegDef(r isa.Reg) dg.NodeID
}

// Resume re-synchronizes the executor after a misspeculation replay on
// the host core: every register's producer becomes the core's current
// producer (at earliest the resume node), and control restarts at resume.
func (d *Dataflow) Resume(resume dg.NodeID, regs RegSource) {
	rt := d.G.Time(resume)
	for r := range d.regNode {
		n := regs.RegDef(isa.Reg(r))
		// Take whichever producer is later: the replay's register writer
		// or the resume handshake itself.
		if n == dg.None || d.G.Time(n) < rt {
			n = resume
		}
		d.regNode[r] = n
	}
	d.ctrlNode = resume
	d.lastNode = resume
	d.lastExec = resume
}

// Exit ends the region: an exit node joins the last control decision,
// the last op and every written register's producer, each after the
// live-outs' transfer latency, and the region hands back to the core
// there (HandBack). It returns the exit node.
func (d *Dataflow) Exit(gpp tdg.Core, liveOuts int) dg.NodeID {
	return HandBack(gpp, d.exitNode(TransferLatency(liveOuts)), &d.written, &d.stores)
}

// exitNode builds a join node at which all written registers and the last
// control decision are available (region completion).
func (d *Dataflow) exitNode(extraLat int64) dg.NodeID {
	g := d.G
	exit := g.NewNode(-1)
	g.AddEdge(d.ctrlNode, exit, extraLat, dg.EdgeAccelComm)
	g.AddEdge(d.lastNode, exit, extraLat, dg.EdgeAccelComm)
	for r, w := range d.written {
		if w {
			g.AddEdge(d.regNode[r], exit, extraLat, dg.EdgeAccelComm)
		}
	}
	return exit
}

// TransferLatency models live-value transfer time between core and
// accelerator: a fixed handshake plus bus-width-limited register moves.
func TransferLatency(nregs int) int64 {
	lat := int64(2 + (nregs+1)/2)
	return lat
}

// ConfigCache is a small LRU of accelerator configurations keyed by loop
// ID; a miss costs a configuration load (paper §3.2, DP-CGRA keeps "a
// small configuration cache"; NS-DF and Trace-P behave likewise).
type ConfigCache struct {
	cap   int
	order []int
}

// NewConfigCache returns an LRU config cache with the given capacity.
func NewConfigCache(capacity int) *ConfigCache {
	return &ConfigCache{cap: capacity}
}

// Lookup touches loopID, returning true on hit; on miss the entry is
// installed (evicting LRU).
func (c *ConfigCache) Lookup(loopID int) bool {
	for i, id := range c.order {
		if id == loopID {
			// Move to MRU position in place.
			copy(c.order[i:], c.order[i+1:])
			c.order[len(c.order)-1] = loopID
			return true
		}
	}
	if len(c.order) < c.cap {
		c.order = append(c.order, loopID)
	} else {
		copy(c.order, c.order[1:])
		c.order[len(c.order)-1] = loopID
	}
	return false
}
