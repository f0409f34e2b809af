// Package simd models short-vector SIMD as a transparent BSA via TDG
// transformation (paper §3.2 "SIMD (Loop Auto-vectorization) TDG"). The
// analyzer finds inner loops with vectorizable memory and register
// dependences (optimistically, from observed addresses — §2.7); the
// transform buffers VecLanes loop iterations, if-converts the body
// (branches become predicate-setting ops, merge points get masks),
// vectorizes contiguous memory accesses, and inserts pack/unpack for
// non-contiguous ones. Alignment is assumed handled by unaligned memory
// ops, and scatter/gather hardware is absent, matching the paper.
package simd

import (
	"sort"
	"sync"

	"exocore/internal/cores"
	"exocore/internal/dg"
	"exocore/internal/ir"
	"exocore/internal/isa"
	"exocore/internal/tdg"
	"exocore/internal/trace"

	"exocore/internal/bsa/bsautil"
)

type memKind uint8

const (
	memContig memKind = iota
	memScalar
	memStrided
)

type loopPlan struct {
	bodySIs    []int
	siIndex    map[int]int
	memKinds   map[int]memKind
	inductions map[int]bool
	reductions map[int]bool
	latchSIs   map[int]bool // loop-back branches kept scalar
	// SI-indexed mirrors of memKinds/inductions/latchSIs for the
	// per-dynamic-instruction tests in vectorGroup (the zero memKind is
	// memContig, matching a missing map entry).
	memKindOf    []memKind
	inductionSet []bool
	latchSet     []bool
	maskBlocks   int
	costPerIt    float64
}

// Model is the SIMD BSA.
type Model struct {
	// MaxBloat rejects loops whose if-converted body exceeds this factor
	// of the average executed path (paper: 2×).
	MaxBloat float64
	// MinAvgTrip rejects loops iterating fewer than this on average.
	MinAvgTrip float64
}

// New returns the SIMD model with the paper's thresholds. MinAvgTrip is
// slightly under the vector length so exact-trip loops (whose average
// lands just below VecLanes from the final partial occurrence) qualify.
func New() *Model { return &Model{MaxBloat: 2.0, MinAvgTrip: isa.VecLanes * 0.95} }

// Name implements tdg.BSA.
func (m *Model) Name() string { return "SIMD" }

// AreaMM2 implements tdg.BSA: a 256-bit vector datapath extension.
func (m *Model) AreaMM2() float64 { return 0.6 }

// OffloadsCore implements tdg.BSA: SIMD executes in the core pipeline.
func (m *Model) OffloadsCore() bool { return false }

// Analyze implements tdg.BSA.
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
	if !loop.Inner() || lp.Iterations == 0 || lp.AvgTrip < m.MinAvgTrip {
		return nil
	}
	if lp.CarriedMemDep {
		return nil // observed inter-iteration memory dependence
	}
	ld := t.Dataflow(l)
	if len(ld.CarriedRegDep) > 0 {
		return nil // non-induction, non-reduction recurrence
	}

	p := buildLoopPlan(t, l, ld)
	origPerIter := float64(lp.DynInsts) / float64(lp.Iterations)
	ifConverted := float64(len(p.bodySIs) + p.maskBlocks)
	if origPerIter == 0 || ifConverted > m.MaxBloat*origPerIter {
		return nil
	}
	if p.costPerIt <= 0 {
		return nil
	}
	est := origPerIter / p.costPerIt
	if est <= 1.05 {
		return nil // not profitable
	}
	return &tdg.Region{LoopID: l, EstSpeedup: est, Config: p}
}

func buildLoopPlan(t *tdg.TDG, l int, ld *ir.LoopDataflow) *loopPlan {
	loop := &t.Nest.Loops[l]
	p := &loopPlan{
		siIndex:    make(map[int]int),
		memKinds:   make(map[int]memKind),
		inductions: make(map[int]bool),
		reductions: make(map[int]bool),
		latchSIs:   make(map[int]bool),
	}
	// Body SIs in reverse-post (≈ static block) order: if-conversion
	// arranges blocks in reverse post-order (paper §3.2).
	rpo := t.CFG.ReversePostOrder()
	for _, b := range rpo {
		if !loop.Contains(b) {
			continue
		}
		blk := &t.CFG.Blocks[b]
		if len(blk.Preds) > 1 && b != loop.Header {
			p.maskBlocks++ // merge point needs masking
		}
		for si := blk.Start; si < blk.End; si++ {
			p.siIndex[si] = len(p.bodySIs)
			p.bodySIs = append(p.bodySIs, si)
		}
	}
	for si := range ld.Inductions {
		p.inductions[si] = true
	}
	for si := range ld.Reductions {
		p.reductions[si] = true
	}
	// Loop-back branch stays a scalar branch per vectorized group.
	header := loop.Header
	for _, si := range p.bodySIs {
		in := t.CFG.Prog.At(si)
		if in.Op.IsCtrl() {
			if tb := int(in.Imm); tb >= 0 && tb < len(t.CFG.BlockOf) && t.CFG.BlockOf[tb] == header {
				p.latchSIs[si] = true
			}
		}
	}
	// Memory classification from observed strides.
	for _, si := range p.bodySIs {
		in := t.CFG.Prog.At(si)
		if !in.Op.IsMem() {
			continue
		}
		info := t.Prof.Strides[si]
		switch {
		case info.Contiguous():
			p.memKinds[si] = memContig
		case info.Scalar():
			p.memKinds[si] = memScalar
		default:
			p.memKinds[si] = memStrided
		}
	}
	n := t.CFG.Prog.Len()
	p.memKindOf = make([]memKind, n)
	p.inductionSet = make([]bool, n)
	p.latchSet = make([]bool, n)
	for si, k := range p.memKinds {
		p.memKindOf[si] = k
	}
	for si := range p.inductions {
		p.inductionSet[si] = true
	}
	for si := range p.latchSIs {
		p.latchSet[si] = true
	}
	p.costPerIt = p.vectorCostPerIteration()
	return p
}

// vectorCostPerIteration estimates uops per *original* iteration after
// vectorization by VecLanes.
func (p *loopPlan) vectorCostPerIteration() float64 {
	vl := float64(isa.VecLanes)
	cost := 0.0
	for _, si := range p.bodySIs {
		kind, isMem := p.memKinds[si]
		switch {
		case p.latchSIs[si], p.inductions[si]:
			cost += 1 / vl // one scalar op per group
		case isMem && kind == memStrided:
			cost += 1 + 1/vl // VL scalar accesses + pack
		case isMem && kind == memScalar:
			cost += 2 / vl // scalar access + broadcast
		default:
			cost += 1 / vl
		}
	}
	cost += float64(p.maskBlocks) / vl
	return cost
}

// laneInfo aggregates one static instruction's execution across the lanes
// of a vector group.
type laneInfo struct {
	execCount int
	maxLat    uint16
	level     trace.MemLevel
	addr      uint64
	firstDyn  int32
	lats      []uint16 // per-lane latencies for strided accesses
	mispred   bool
}

// groupScratch bundles the per-region vector-group state so one pooled
// allocation serves a whole region (TransformRegion runs concurrently
// from independent evaluation workers). lanes is SI-indexed; entries are
// non-nil only while one vectorGroup call runs — every call clears the
// entries it touched before returning, so the slice comes back empty
// regardless of which TDG the pooled scratch served last.
type groupScratch struct {
	lanes   []*laneInfo
	touched []int
	group   []bsautil.Iteration
	arena   laneArena
}

var scratchPool = sync.Pool{New: func() any {
	return &groupScratch{}
}}

// laneArena recycles laneInfo records across vector groups: each group
// needs one record per static instruction it touches, and allocating them
// individually dominated transform cost on long traces.
type laneArena struct {
	buf  []laneInfo
	used int
}

func (a *laneArena) reset() { a.used = 0 }

func (a *laneArena) get() *laneInfo {
	if a.used == len(a.buf) {
		// Records already handed out stay valid (the lanes map holds
		// pointers into the old chunk); a fresh chunk serves the rest.
		n := len(a.buf) * 2
		if n < 32 {
			n = 32
		}
		a.buf = make([]laneInfo, n)
		a.used = 0
	}
	li := &a.buf[a.used]
	a.used++
	lats := li.lats[:0]
	*li = laneInfo{}
	li.lats = lats
	return li
}

// TransformRegion implements tdg.BSA (TDG_GPP,∅ → TDG_GPP,SIMD): µDG nodes
// from VecLanes iterations are buffered, the first becomes the vectorized
// version with predicates/masks inserted and memory latencies re-mapped,
// and the rest are elided. Remainders below the vector length run scalar.
func (m *Model) TransformRegion(ctx *tdg.Ctx, r *tdg.Region, start, end int) dg.NodeID {
	p := r.Config.(*loopPlan)
	iters := bsautil.SplitIterations(ctx.TDG, r.LoopID, start, end)

	scratch := scratchPool.Get().(*groupScratch)
	defer scratchPool.Put(scratch)
	if n := ctx.TDG.Trace.Prog.Len(); len(scratch.lanes) < n {
		scratch.lanes = make([]*laneInfo, n)
	}
	var vecGroups, scalarIters int64
	flushGroup := func(group []bsautil.Iteration) {
		if len(group) == 0 {
			return
		}
		if len(group) < isa.VecLanes {
			// Remainder: scalar replay on the core.
			scalarIters += int64(len(group))
			for _, it := range group {
				ctx.ExecCore(it.Start, it.End)
			}
			return
		}
		vecGroups++
		m.vectorGroup(ctx, p, group, scratch)
	}

	if scratch.group == nil {
		scratch.group = make([]bsautil.Iteration, 0, isa.VecLanes)
	}
	group := scratch.group[:0]
	for _, it := range iters {
		group = append(group, it)
		if len(group) == isa.VecLanes {
			flushGroup(group)
			group = group[:0]
		}
	}
	flushGroup(group)
	scratch.group = group[:0]

	// Reduction epilogue: one horizontal reduce per reduction register.
	// Emission order books FU slots, so it must not follow map order.
	redSIs := make([]int, 0, len(p.reductions))
	for si := range p.reductions {
		redSIs = append(redSIs, si)
	}
	sort.Ints(redSIs)
	for _, si := range redSIs {
		in := ctx.TDG.CFG.Prog.At(si)
		ctx.GPP.Exec(cores.UOp{Op: isa.VReduce, Dst: in.Dst, Src1: in.Dst}, -1)
	}
	if ctx.Span.Active() {
		ctx.Span.ArgInt("iterations", int64(len(iters))).
			ArgInt("vector_groups", vecGroups).
			ArgInt("scalar_iters", scalarIters).
			ArgInt("reductions", int64(len(redSIs)))
	}
	return dg.None // everything flowed through the core pipeline
}

func (m *Model) vectorGroup(ctx *tdg.Ctx, p *loopPlan, group []bsautil.Iteration, scratch *groupScratch) {
	tr := ctx.TDG.Trace
	lanes, arena := scratch.lanes, &scratch.arena
	touched := scratch.touched[:0]
	arena.reset()
	groupSize := len(group)
	lastLaneEnd := group[len(group)-1].End

	for _, it := range group {
		for i := it.Start; i < it.End; i++ {
			d := &tr.Insts[i]
			si := int(d.SI)
			li := lanes[si]
			if li == nil {
				li = arena.get()
				li.firstDyn = int32(i)
				li.addr = d.Addr
				lanes[si] = li
				touched = append(touched, si)
			}
			li.execCount++
			if d.MemLat > li.maxLat {
				li.maxLat = d.MemLat
				li.level = d.Level
			}
			if p.memKindOf[si] == memStrided {
				li.lats = append(li.lats, d.MemLat)
			}
			// The group's loop-back branch outcome comes from the last lane.
			if p.latchSet[si] && i == lastLaneEnd-1 {
				li.mispred = d.Mispredicted()
			}
		}
	}

	gpp := ctx.GPP
	prog := tr.Prog
	for _, si := range p.bodySIs {
		li := lanes[si]
		if li == nil {
			// If-conversion executes the whole body: instructions no lane
			// took still issue (masked off), costing their slot.
			li = &laneInfo{firstDyn: -1, maxLat: 4, level: trace.LevelL1}
		}
		in := prog.At(si)
		u := cores.UOp{Op: in.Op, Dst: in.Dst, Src1: in.Src1, Src2: in.Src2}
		switch {
		case p.latchSet[si]:
			u.Mispred = li.mispred
			u.Taken = true // loop-back per vector group
			gpp.Exec(u, li.firstDyn)
		case p.inductionSet[si]:
			gpp.Exec(u, li.firstDyn) // one scalar step per group
		case in.Op.IsCtrl():
			u.Op = isa.VPred // if-converted: predicate-setting vector op
			u.Dst = isa.NoReg
			gpp.Exec(u, li.firstDyn)
		case in.Op.IsMem():
			m.vectorMem(ctx, p, si, in, li)
		default:
			u.Op = vecOpFor(in.Op)
			gpp.Exec(u, li.firstDyn)
		}
		if li.execCount < groupSize && !p.latchSet[si] && !p.inductionSet[si] {
			// Divergent lanes: blend each produced value under its mask.
			gpp.Exec(cores.UOp{Op: isa.VMask, Dst: in.Dst, Src1: in.Dst}, li.firstDyn)
			if in.HasDst() {
				gpp.Exec(cores.UOp{Op: isa.VMask, Dst: in.Dst, Src1: in.Dst}, li.firstDyn)
			}
		}
	}

	// Restore the vectorGroup-call invariant: lanes holds no stale entries.
	for _, si := range touched {
		lanes[si] = nil
	}
	scratch.touched = touched
}

func (m *Model) vectorMem(ctx *tdg.Ctx, p *loopPlan, si int, in *isa.Inst, li *laneInfo) {
	gpp := ctx.GPP
	u := cores.UOp{Op: in.Op, Dst: in.Dst, Src1: in.Src1, Src2: in.Src2,
		Addr: li.addr, MemLat: li.maxLat, Level: li.level}
	switch p.memKindOf[si] {
	case memContig:
		if in.Op.IsLoad() {
			u.Op = isa.VLd
		} else {
			u.Op = isa.VSt
		}
		gpp.Exec(u, li.firstDyn)
	case memScalar:
		gpp.Exec(u, li.firstDyn) // scalar access
		gpp.Exec(cores.UOp{Op: isa.VPack, Dst: in.Dst, Src1: in.Dst}, li.firstDyn)
	default: // strided / irregular: one scalar access per lane + pack
		for _, lat := range li.lats {
			lu := u
			lu.MemLat = lat
			gpp.Exec(lu, li.firstDyn)
		}
		if len(li.lats) == 0 {
			gpp.Exec(u, li.firstDyn)
		}
		gpp.Exec(cores.UOp{Op: isa.VPack, Dst: in.Dst, Src1: in.Dst}, li.firstDyn)
	}
}

// vecOpFor maps a scalar opcode to its vector counterpart.
func vecOpFor(op isa.Op) isa.Op {
	switch op.ClassOf() {
	case isa.ClassIntAlu:
		return isa.VAdd
	case isa.ClassIntMul, isa.ClassIntDiv:
		return isa.VMul
	case isa.ClassFpAdd:
		return isa.VFAdd
	case isa.ClassFpMul:
		return isa.VFMul
	case isa.ClassFpDiv:
		return isa.VFDiv
	}
	return isa.VAdd
}
