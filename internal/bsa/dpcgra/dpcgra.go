// Package dpcgra models a data-parallel coarse-grain reconfigurable array
// in the style of DySER/Morphosys (paper §3.1/3.2 "Data-Parallel CGRA"):
// the loop's computation subgraph is sliced out of the core and mapped
// onto a 64-FU CGRA pipelined at one loop instance per cycle, while the
// core runs the access slice and communicates live values through a
// flexible vector interface. Vectorizable loops clone the computation
// across lanes (the SIMD transform composes first, per the paper). Loops
// with more communication than offloaded computation are disregarded.
package dpcgra

import (
	"sort"
	"sync"

	"exocore/internal/bsa/bsautil"
	"exocore/internal/cores"
	"exocore/internal/dg"
	"exocore/internal/energy"
	"exocore/internal/ir"
	"exocore/internal/isa"
	"exocore/internal/tdg"
	"exocore/internal/trace"
)

// Model is the DP-CGRA BSA.
type Model struct {
	// FUs is the fabric size (paper: 64 functional units).
	FUs int
	// RouteLatency is the estimated per-hop switch latency — the paper
	// notes the spatial scheduler is abstracted and inter-FU latency
	// estimated (§2.7).
	RouteLatency int
}

// New returns the DP-CGRA model at the paper's design point.
func New() *Model { return &Model{FUs: 64, RouteLatency: 1} }

// Name implements tdg.BSA.
func (m *Model) Name() string { return "DP-CGRA" }

// AreaMM2 implements tdg.BSA (DySER-class 64-FU fabric + interface).
func (m *Model) AreaMM2() float64 { return 1.0 }

// OffloadsCore implements tdg.BSA: access-execute — the core keeps
// running the access slice, so no frontend power gating.
func (m *Model) OffloadsCore() bool { return false }

// ConfigLatency is the configuration-load cost on a config-cache miss.
const ConfigLatency = 64

type loopPlan struct {
	computeSIs map[int]bool // offloaded static instructions
	// computeSet mirrors computeSIs as an SI-indexed slice for the
	// per-dynamic-instruction membership test in instance pass 1.
	computeSet []bool
	inputs     []isa.Reg // regs sent core → CGRA each instance
	outputs    []isa.Reg // regs received CGRA → core each instance
	depth      int64     // compute-subgraph critical path in cycles
	ii         int64     // initiation interval between instances
	vectorize  bool      // clone computation across lanes
	lanes      int       // clone count (1 = scalar instances)
	inductions map[int]bool
	memKinds   map[int]byte // 0 contig, 1 scalar, 2 strided (access slice)
	latchSIs   map[int]bool
	computeN   int
	// Emission orders for the induction/latch map entries: op emission
	// books FU slots, so it must not follow Go's randomized map order.
	inductionOrder []int
	latchOrder     []int
}

// Analyze implements tdg.BSA: the plan is the set of legal and profitable
// loops with their computation subgraphs, borrowing vectorization
// analysis from SIMD and using a slicing algorithm to separate core and
// CGRA instructions (paper §3.2).
func (m *Model) Analyze(t *tdg.TDG) *tdg.Plan {
	plan := &tdg.Plan{BSA: m.Name(), Regions: make(map[int]*tdg.Region)}
	for l := range t.Nest.Loops {
		if r := m.analyzeLoop(t, l); r != nil {
			plan.Regions[l] = r
		}
	}
	return plan
}

func (m *Model) analyzeLoop(t *tdg.TDG, l int) *tdg.Region {
	loop := &t.Nest.Loops[l]
	lp := &t.Prof.Loops[l]
	if !loop.Inner() || lp.Iterations == 0 || lp.AvgTrip < 2 {
		return nil
	}
	ld := t.Dataflow(l)
	p := m.buildPlan(t, l, ld)
	if p == nil {
		return nil
	}
	// Vectorization legality borrowed from SIMD (§3.2). The computation
	// is "cloned until its size fills the available resources, or until
	// the maximum vector length is reached" — partial cloning when the
	// fabric cannot hold VecLanes copies.
	p.lanes = 1
	if !lp.CarriedMemDep && len(ld.CarriedRegDep) == 0 && lp.AvgTrip >= isa.VecLanes*0.95 {
		maxClones := m.FUs / p.computeN
		if maxClones > isa.VecLanes {
			maxClones = isa.VecLanes
		}
		if maxClones >= 2 {
			p.lanes = maxClones
			p.vectorize = true
		}
	}
	// Profitability: communication must not dominate computation. The
	// vector interface amortizes communication across lanes (one wide
	// transfer per input per instance).
	comm := float64(len(p.inputs)+len(p.outputs)) / float64(p.lanes)
	if comm >= float64(p.computeN) {
		return nil
	}
	origPerIter := float64(lp.DynInsts) / float64(lp.Iterations)
	est := origPerIter / m.corePerIter(p)
	if est <= 1.05 {
		return nil
	}
	return &tdg.Region{LoopID: l, EstSpeedup: est, Config: p}
}

// corePerIter estimates remaining core uops per original iteration.
func (m *Model) corePerIter(p *loopPlan) float64 {
	vl := float64(p.lanes)
	access := 0.0
	for si := range p.memKinds {
		switch p.memKinds[si] {
		case 0:
			access += 1 / vl
		case 1:
			access += 2 / vl
		default:
			access += 1 + 1/vl
		}
	}
	// Non-offloaded non-mem access-slice work + inductions + latch.
	access += float64(len(p.inductions)+len(p.latchSIs)) / vl
	comm := float64(len(p.inputs)+len(p.outputs)) / vl
	per := access + comm
	if floor := float64(p.ii) / vl; per < floor {
		per = floor // fabric throughput bound
	}
	if per < 1/vl {
		per = 1 / vl
	}
	return per
}

func (m *Model) buildPlan(t *tdg.TDG, l int, ld *ir.LoopDataflow) *loopPlan {
	loop := &t.Nest.Loops[l]
	prog := t.CFG.Prog
	p := &loopPlan{
		computeSIs: make(map[int]bool),
		inductions: make(map[int]bool),
		memKinds:   make(map[int]byte),
		latchSIs:   make(map[int]bool),
	}
	for si := range ld.Inductions {
		p.inductions[si] = true
	}
	header := loop.Header

	var bodySIs []int
	for _, b := range loop.Blocks {
		blk := &t.CFG.Blocks[b]
		for si := blk.Start; si < blk.End; si++ {
			bodySIs = append(bodySIs, si)
		}
	}
	for _, si := range bodySIs {
		in := prog.At(si)
		switch {
		case in.Op.IsCtrl():
			if tb := int(in.Imm); tb >= 0 && tb < len(t.CFG.BlockOf) && t.CFG.BlockOf[tb] == header {
				p.latchSIs[si] = true
			}
		case in.Op.IsMem():
			info := t.Prof.Strides[si]
			switch {
			case info.Contiguous():
				p.memKinds[si] = 0
			case info.Scalar():
				p.memKinds[si] = 1
			default:
				p.memKinds[si] = 2
			}
		case !ld.AddrSlice[si] && !p.inductions[si]:
			// Predicate computation may live in the fabric; only memory
			// addressing stays on the core (paper: control instructions
			// without forward memory dependences are offloaded).
			p.computeSIs[si] = true
		}
	}
	p.computeN = len(p.computeSIs)
	if p.computeN == 0 || p.computeN > m.FUs {
		return nil
	}
	p.computeSet = make([]bool, len(prog.Insts))
	for si := range p.computeSIs {
		p.computeSet[si] = true
	}

	// Interface registers: inputs are compute-slice reads produced
	// outside the compute slice; outputs are compute-slice writes read
	// outside it.
	computeReads := make(map[isa.Reg]bool)
	computeWrites := make(map[isa.Reg]bool)
	var srcs []isa.Reg
	for si := range p.computeSIs {
		in := prog.At(si)
		srcs = srcs[:0]
		for _, r := range in.Srcs(srcs) {
			computeReads[r] = true
		}
		if in.HasDst() {
			computeWrites[r0(in.Dst)] = true
		}
	}
	p.inputs = make([]isa.Reg, 0, len(computeReads))
	for r := range computeReads {
		if !computeWrites[r] {
			p.inputs = append(p.inputs, r)
		}
	}
	outsideReads := make(map[isa.Reg]bool)
	for _, si := range bodySIs {
		if p.computeSIs[si] {
			continue
		}
		in := prog.At(si)
		srcs = srcs[:0]
		for _, r := range in.Srcs(srcs) {
			outsideReads[r] = true
		}
	}
	for _, r := range ld.LiveOuts {
		outsideReads[r] = true
	}
	p.outputs = make([]isa.Reg, 0, len(computeWrites))
	for r := range computeWrites {
		if outsideReads[r] {
			p.outputs = append(p.outputs, r)
		}
	}
	ir.SortRegs(p.inputs)
	ir.SortRegs(p.outputs)

	// Compute-subgraph critical path: longest dependence chain through
	// the offloaded ops, each paying FU latency plus routing.
	depth := make(map[isa.Reg]int64)
	var maxDepth int64
	for _, si := range bodySIs {
		if !p.computeSIs[si] {
			continue
		}
		in := prog.At(si)
		var d int64
		srcs = srcs[:0]
		for _, r := range in.Srcs(srcs) {
			if depth[r] > d {
				d = depth[r]
			}
		}
		d += int64(in.Op.Latency() + m.RouteLatency)
		if in.HasDst() {
			depth[r0(in.Dst)] = d
		}
		if d > maxDepth {
			maxDepth = d
		}
	}
	p.depth = maxDepth
	// Initiation interval: the fabric's simple FUs are unpipelined for
	// long-latency operations, so back-to-back instances reusing a
	// divider wait out its occupancy.
	p.ii = 1
	for si := range p.computeSIs {
		op := prog.At(si).Op
		if c := op.ClassOf(); c == isa.ClassIntDiv || c == isa.ClassFpDiv {
			if l := int64(op.Latency()); l > p.ii {
				p.ii = l
			}
		}
	}
	for si := range p.inductions {
		p.inductionOrder = append(p.inductionOrder, si)
	}
	sort.Ints(p.inductionOrder)
	for si := range p.latchSIs {
		p.latchOrder = append(p.latchOrder, si)
	}
	sort.Ints(p.latchOrder)
	return p
}

func r0(r isa.Reg) isa.Reg { return r }

// TransformRegion implements tdg.BSA: per (possibly vectorized) loop
// instance, the core executes the access slice, sends inputs through the
// vector interface, the CGRA computes the subgraph pipelined across
// instances, and outputs return to core registers (paper §3.2, with the
// two extra pipelining edges — instance pipelining and in-order
// completion — modeled via the instance chain).
func (m *Model) TransformRegion(ctx *tdg.Ctx, r *tdg.Region, start, end int) dg.NodeID {
	p := r.Config.(*loopPlan)
	g := ctx.G
	gpp := ctx.GPP

	if !ctx.ConfigResident {
		cfgNode := g.NewNode(int32(start))
		g.AddEdge(gpp.LastCommit(), cfgNode, ConfigLatency, dg.EdgeAccelConfig)
		gpp.Barrier(cfgNode)
		ctx.Counts.Add(energy.EvCGRAConfig, 1)
	}

	iters := bsautil.SplitIterations(ctx.TDG, r.LoopID, start, end)
	groupSize := p.lanes
	scratch := scratchPool.Get().(*instScratch)
	defer scratchPool.Put(scratch)
	var instances, scalarIters int64
	var prevStart dg.NodeID = dg.None
	for gi := 0; gi < len(iters); gi += groupSize {
		hi := gi + groupSize
		if hi > len(iters) {
			hi = len(iters)
		}
		group := iters[gi:hi]
		if len(group) < groupSize {
			// Remainder below the vector length: scalar on the core.
			scalarIters += int64(len(group))
			for _, it := range group {
				ctx.ExecCore(it.Start, it.End)
			}
			continue
		}
		instances++
		prevStart = m.instance(ctx, p, group, prevStart, scratch)
	}
	if ctx.Span.Active() {
		ctx.Span.ArgInt("iterations", int64(len(iters))).
			ArgInt("instances", instances).
			ArgInt("scalar_iters", scalarIters).
			ArgInt("lanes", int64(groupSize))
	}
	return dg.None // completion flows through core receives
}

// scratchPool recycles instScratch records across regions (TransformRegion
// runs concurrently from independent evaluation workers).
var scratchPool = sync.Pool{New: func() any {
	return &instScratch{}
}}

// instScratch recycles per-instance aggregation state across the
// invocations of one region: the SI-indexed lookup slice, its memInfo
// records and the sorted-key slice are reused instead of reallocated per
// instance. byS entries are non-nil only while one instance call runs —
// every call clears the entries it touched before returning, so the
// slice comes back empty regardless of which TDG the pooled scratch
// served last.
type instScratch struct {
	byS   []*memInfo
	arena []memInfo
	used  int
	order []int
}

func (s *instScratch) get() *memInfo {
	if s.used == len(s.arena) {
		// Records already in the map keep pointing into the old chunk; a
		// fresh chunk serves subsequent records.
		n := len(s.arena) * 2
		if n < 32 {
			n = 32
		}
		s.arena = make([]memInfo, n)
		s.used = 0
	}
	mi := &s.arena[s.used]
	s.used++
	return mi
}

// instance models one CGRA invocation covering a group of iterations.
func (m *Model) instance(ctx *tdg.Ctx, p *loopPlan, group []bsautil.Iteration, prev dg.NodeID, scratch *instScratch) dg.NodeID {
	g := ctx.G
	gpp := ctx.GPP
	tr := ctx.TDG.Trace
	lanes := len(group)

	// Pass 1: aggregate per-SI memory behavior across the group, and
	// count offloaded dynamic ops for energy.
	if len(scratch.byS) < len(tr.Prog.Insts) {
		scratch.byS = make([]*memInfo, len(tr.Prog.Insts))
	}
	mems := scratch.byS
	bodyOrder := scratch.order[:0]
	var offloadedOps int64
	firstDyn := int32(group[0].Start)
	for _, it := range group {
		for i := it.Start; i < it.End; i++ {
			d := &tr.Insts[i]
			si := int(d.SI)
			in := &tr.Prog.Insts[si]
			if p.computeSet[si] {
				offloadedOps++
				continue
			}
			if in.Op.IsMem() {
				mi := mems[si]
				if mi == nil {
					mi = scratch.get()
					*mi = memInfo{addr: d.Addr, firstDyn: int32(i),
						isStore: in.Op.IsStore(), valueReg: in.Src2,
						baseReg: in.Src1, dstReg: in.Dst, op: in.Op}
					mems[si] = mi
					bodyOrder = append(bodyOrder, si)
				}
				mi.count++
				if d.MemLat > mi.maxLat {
					mi.maxLat = d.MemLat
					mi.level = d.Level
				}
			}
		}
	}

	// Pass 2: loads + induction updates on the core.
	sort.Ints(bodyOrder)
	scratch.order = bodyOrder
	for _, si := range bodyOrder {
		mi := mems[si]
		if mi.isStore {
			continue
		}
		m.emitMem(ctx, p, si, mi.op, mi.dstReg, mi.baseReg, mi.valueReg, mi.maxLat, mi.level, mi.addr, mi.firstDyn, lanes)
	}
	for _, si := range p.inductionOrder {
		in := tr.Prog.At(si)
		gpp.Exec(cores.UOp{Op: in.Op, Dst: in.Dst, Src1: in.Src1, Src2: in.Src2}, firstDyn)
	}

	// Pass 3: sends core → CGRA.
	instance := g.NewNode(firstDyn)
	for _, reg := range p.inputs {
		gpp.Exec(cores.UOp{Op: sendOpFor(reg), Src1: reg, Dst: isa.NoReg}, firstDyn)
		g.AddEdge(gpp.LastComplete(), instance, 1, dg.EdgeAccelComm)
		ctx.Counts.Add(energy.EvCGRAInput, 1)
	}
	// Pipelining: an instance may *start* II cycles after the previous
	// one started; it need not wait for completion. II exceeds 1 only
	// when the subgraph holds an unpipelined long-latency unit.
	g.AddEdge(prev, instance, p.ii, dg.EdgeAccelPipe)

	done := g.NewNode(firstDyn)
	g.AddEdge(instance, done, p.depth, dg.EdgeAccelCompute)
	ctx.Counts.Add(energy.EvCGRAOp, offloadedOps)
	ctx.Counts.Add(energy.EvCGRARoute, offloadedOps*int64(m.RouteLatency+1))

	// Pass 4: receives CGRA → core.
	for _, reg := range p.outputs {
		gpp.Exec(cores.UOp{Op: sendOpFor(reg), Dst: reg, Src1: isa.NoReg, Elide: true}, firstDyn)
		join := g.NewNode(firstDyn)
		g.AddEdge(gpp.LastComplete(), join, 0, dg.EdgeAccelComm)
		g.AddEdge(done, join, 1, dg.EdgeAccelComm)
		gpp.SetRegDef(reg, join)
		ctx.Counts.Add(energy.EvCGRAOutput, 1)
	}

	// Pass 5: stores and the group's loop-back branch on the core.
	for _, si := range bodyOrder {
		mi := mems[si]
		if !mi.isStore {
			continue
		}
		m.emitMem(ctx, p, si, mi.op, mi.dstReg, mi.baseReg, mi.valueReg, mi.maxLat, mi.level, mi.addr, mi.firstDyn, lanes)
	}
	for _, si := range p.latchOrder {
		in := tr.Prog.At(si)
		lastIdx := group[len(group)-1].End - 1
		mispred := lastIdx >= 0 && tr.Insts[lastIdx].Mispredicted()
		gpp.Exec(cores.UOp{Op: in.Op, Src1: in.Src1, Src2: in.Src2,
			Dst: isa.NoReg, Mispred: mispred, Taken: true}, firstDyn)
	}
	// Restore the instance-call invariant: byS holds no stale entries.
	for _, si := range bodyOrder {
		mems[si] = nil
	}
	return instance // pipelining chains on instance *start*
}

// emitMem issues one access-slice memory reference, vectorized when the
// group is a vector instance (contiguous → one wide op; strided →
// per-lane scalar ops + shuffle through the flexible interface).
func (m *Model) emitMem(ctx *tdg.Ctx, p *loopPlan, si int, op isa.Op,
	dst, base, val isa.Reg, lat uint16, lvl trace.MemLevel, addr uint64, dynIdx int32, lanes int) {
	gpp := ctx.GPP
	u := cores.UOp{Op: op, Dst: dst, Src1: base, Src2: val,
		Addr: addr, MemLat: lat, Level: lvl}
	if lanes == 1 {
		gpp.Exec(u, dynIdx)
		return
	}
	switch p.memKinds[si] {
	case 0: // contiguous → single vector access
		if op.IsLoad() {
			u.Op = isa.VLd
		} else {
			u.Op = isa.VSt
		}
		gpp.Exec(u, dynIdx)
	case 1: // loop-invariant → scalar access (interface broadcasts)
		gpp.Exec(u, dynIdx)
	default: // strided/irregular → per-lane scalars + interface shuffle
		for i := 0; i < lanes; i++ {
			gpp.Exec(u, dynIdx)
		}
		gpp.Exec(cores.UOp{Op: isa.VPack, Dst: dst, Src1: dst}, dynIdx)
	}
}

func sendOpFor(r isa.Reg) isa.Op {
	if r.IsFp() {
		return isa.FMov
	}
	return isa.Mov
}

// memInfo aggregates one access-slice memory instruction over the lanes
// of a vector instance.
type memInfo struct {
	maxLat   uint16
	level    trace.MemLevel
	addr     uint64
	firstDyn int32
	count    int
	isStore  bool
	valueReg isa.Reg
	baseReg  isa.Reg
	dstReg   isa.Reg
	op       isa.Op
}
