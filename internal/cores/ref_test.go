package cores

import (
	"slices"

	"exocore/internal/dg"
	"exocore/internal/energy"
	"exocore/internal/isa"
	"exocore/internal/trace"
)

// refGPP is the node form of the general core: every uop builds its five
// stage nodes — fetch, dispatch, execute, complete, commit — and their
// edges on an attribution µDG, the paper's TDG_GPP,∅ constructor (Figure
// 4b), and critical paths are walked on the graph itself. It is the
// oracle the time-direct GPP is held to: same times, same critical path.
// It keeps its own plain state (a map of stores, a sorted window) and
// charges energy uop by uop, so the two share no data structure beyond
// the resource tables.
type refGPP struct {
	cfg    Config
	g      *dg.Graph
	counts *energy.Counts

	n int

	fetch, dispatch, execute, commit [histSize]dg.NodeID

	regDef        [isa.NumRegs]dg.NodeID // complete node of last writer
	pendingRefill dg.NodeID              // execute node of last mispredicted branch
	redirectF     dg.NodeID              // fetch node of last taken branch (group break)
	barrier       dg.NodeID              // node all subsequent fetches must follow
	// barrierSeen records whether any fetch has been ordered after the
	// current barrier yet. Only the first fetch needs the explicit edge:
	// every later fetch follows it through the program edge.
	barrierSeen bool
	complete    dg.NodeID // complete node of the latest uop

	stores map[uint64]refStore // word → last store

	issueRT, aluRT, mulRT, fpRT, portRT *dg.ResourceTable

	win []int64 // the Window largest issue times so far, ascending

	stages [][5]int64 // every uop's stage times, in issue order
}

type refStore struct {
	node dg.NodeID
	age  int
}

func newRefGPP(cfg Config, g *dg.Graph, counts *energy.Counts) *refGPP {
	m := &refGPP{
		cfg: cfg, g: g, counts: counts,
		issueRT:       dg.NewResourceTable(cfg.Width),
		aluRT:         dg.NewResourceTable(cfg.IntAlu),
		mulRT:         dg.NewResourceTable(cfg.IntMulDiv),
		fpRT:          dg.NewResourceTable(cfg.FpUnits),
		portRT:        dg.NewResourceTable(cfg.DCachePorts),
		barrier:       g.Origin(),
		pendingRefill: dg.None,
		complete:      dg.None,
		// Execution begins with a redirect to the entry PC.
		redirectF: g.Origin(),
		stores:    make(map[uint64]refStore),
	}
	for i := range m.regDef {
		m.regDef[i] = g.Origin()
	}
	return m
}

func (m *refGPP) hist(arr *[histSize]dg.NodeID, back int) dg.NodeID {
	if back > m.n {
		return dg.None
	}
	return arr[(m.n-back)&(histSize-1)]
}

func (m *refGPP) LastCommit() dg.NodeID {
	if m.n == 0 {
		return m.barrier
	}
	return m.hist(&m.commit, 1)
}

func (m *refGPP) LastComplete() dg.NodeID { return m.complete }

func (m *refGPP) EndTime() int64 { return m.g.Time(m.LastCommit()) }

func (m *refGPP) Retired() int { return m.n }

// Barrier joins node and the previous barrier into a synthetic barrier
// node; the zero-latency join adds no cycle to any path through it.
func (m *refGPP) Barrier(node dg.NodeID) {
	if node == dg.None {
		return
	}
	b := m.g.NewNode(-1)
	m.g.AddEdge(node, b, 0, dg.EdgeProgram)
	m.g.AddEdge(m.barrier, b, 0, dg.EdgeProgram)
	m.barrier = b
	m.barrierSeen = false
}

func (m *refGPP) RegDef(r isa.Reg) dg.NodeID {
	if !r.Valid() {
		return dg.None
	}
	return m.regDef[r]
}

func (m *refGPP) SetRegDef(r isa.Reg, node dg.NodeID) {
	if r.Valid() && r != isa.RZ {
		m.regDef[r] = node
	}
}

func (m *refGPP) NoteStore(addr uint64, node dg.NodeID) {
	m.stores[addr&^7] = refStore{node, m.n}
}

func (m *refGPP) LastStoreTo(addr uint64) dg.NodeID {
	if s, ok := m.stores[addr&^7]; ok {
		return s.node
	}
	return dg.None
}

func (m *refGPP) ExecTrace(p *Decoded, insts []trace.DynInst, base int) {
	for i := range insts {
		d := &insts[i]
		m.Exec(FromDyn(&p.prog.Insts[d.SI], d), int32(base+i))
	}
}

// WalkCriticalPath walks the µDG, in the time-direct GPP's signature.
func (m *refGPP) WalkCriticalPath(from dg.NodeID, fn func(dyn int32, class dg.EdgeClass, lat int64)) {
	m.g.WalkCriticalPath(from, func(id dg.NodeID, class dg.EdgeClass, lat int64) {
		fn(m.g.DynIdx(id), class, lat)
	})
}

// Exec runs one UOp through the pipeline model, creating its five stage
// nodes and their edges, tagged with dynIdx.
func (m *refGPP) Exec(u UOp, dynIdx int32) {
	g := m.g
	cfg := &m.cfg

	f := g.NewNode(dynIdx)
	d := g.NewNode(dynIdx)
	e := g.NewNode(dynIdx)
	p := g.NewNode(dynIdx)
	c := g.NewNode(dynIdx)

	cls := u.Op.ClassOf()

	// --- Fetch ---
	g.AddEdge(m.hist(&m.fetch, 1), f, 0, dg.EdgeProgram)
	g.AddEdge(m.hist(&m.fetch, cfg.Width), f, 1, dg.EdgeWidth)
	if !m.barrierSeen {
		g.AddEdge(m.barrier, f, 0, dg.EdgeProgram)
		m.barrierSeen = true
	}
	if m.pendingRefill != dg.None {
		g.AddEdge(m.pendingRefill, f, int64(cfg.FrontendDepth), dg.EdgeMispredict)
		m.pendingRefill = dg.None
	}
	if m.redirectF != dg.None {
		// Fetch groups cannot span a taken branch.
		g.AddEdge(m.redirectF, f, 1, dg.EdgeWidth)
		m.redirectF = dg.None
	}

	// --- Dispatch ---
	g.AddEdge(f, d, 2, dg.EdgePipe) // decode (+rename) depth
	g.AddEdge(m.hist(&m.dispatch, 1), d, 0, dg.EdgeProgram)
	g.AddEdge(m.hist(&m.dispatch, cfg.Width), d, 1, dg.EdgeWidth)
	if !cfg.InOrder && cfg.ROB > 0 {
		g.AddEdge(m.hist(&m.commit, cfg.ROB), d, 1, dg.EdgeROB)
	}
	if cfg.InOrder && cfg.InFlight > 0 {
		g.AddEdge(m.hist(&m.commit, cfg.InFlight), d, 1, dg.EdgeROB)
	}
	if !cfg.InOrder && cfg.Window > 0 && len(m.win) == cfg.Window {
		// Issue-window occupancy: a slot frees when the oldest of the
		// Window latest-issuing instructions issues.
		g.PushTime(d, m.win[0], dg.EdgeWindow)
	}

	// --- Execute ---
	g.AddEdge(d, e, 1, dg.EdgePipe)
	if cfg.InOrder {
		g.AddEdge(m.hist(&m.execute, 1), e, 0, dg.EdgeInOrder)
	}
	if u.Src1.Valid() && u.Src1 != isa.RZ {
		g.AddEdge(m.regDef[u.Src1], e, 0, dg.EdgeData)
	}
	if u.Src2.Valid() && u.Src2 != isa.RZ {
		g.AddEdge(m.regDef[u.Src2], e, 0, dg.EdgeData)
	}
	// FMA reads its accumulator (dst) too.
	if u.Op == isa.FMA && u.Dst.Valid() {
		g.AddEdge(m.regDef[u.Dst], e, 0, dg.EdgeData)
	}
	// Memory dependence: load after store to the same word.
	if u.Op.IsLoad() {
		if s, ok := m.stores[u.Addr&^7]; ok && m.n-s.age < storeWindow {
			g.AddEdge(s.node, e, 2, dg.EdgeMemDep) // store-to-load forward
		}
	}

	// Resource booking (in instruction order — paper §2.7).
	g.PushTime(e, m.issueRT.Book(g.Time(e)), dg.EdgeWidth)
	var rt *dg.ResourceTable
	switch cls {
	case isa.ClassIntAlu:
		rt = m.aluRT
	case isa.ClassIntMul, isa.ClassIntDiv:
		rt = m.mulRT
	case isa.ClassFpAdd, isa.ClassFpMul, isa.ClassFpDiv, isa.ClassVecAlu, isa.ClassVecMul:
		rt = m.fpRT
	case isa.ClassLoad, isa.ClassStore, isa.ClassVecMem:
		rt = m.portRT
	}
	if rt != nil {
		var when int64
		switch {
		case cls == isa.ClassIntDiv || cls == isa.ClassFpDiv:
			when = rt.BookFor(g.Time(e), int64(u.Op.Latency())) // unpipelined divide
		case u.Op.IsVec() && !u.Op.IsMem():
			when = rt.BookFor(g.Time(e), 2) // a 256-bit op holds the datapath two slots
		default:
			when = rt.Book(g.Time(e))
		}
		class := dg.EdgeFU
		if u.Op.IsMem() {
			class = dg.EdgeCachePort
		}
		g.PushTime(e, when, class)
	}

	// --- Complete ---
	lat := int64(u.Op.Latency())
	if u.Op.IsMem() {
		lat = int64(u.MemLat)
		if u.Op.IsStore() {
			lat = 1 // stores complete into the store queue
		}
	}
	g.AddEdge(e, p, max(lat, 1), dg.EdgeExec)

	// --- Commit ---
	g.AddEdge(p, c, 1, dg.EdgeCommit)
	g.AddEdge(m.hist(&m.commit, 1), c, 0, dg.EdgeProgram)
	g.AddEdge(m.hist(&m.commit, cfg.Width), c, 1, dg.EdgeWidth)

	// Architectural state updates.
	if u.Dst.Valid() && u.Dst != isa.RZ {
		m.regDef[u.Dst] = p
	}
	if u.Op.IsStore() {
		m.stores[u.Addr&^7] = refStore{e, m.n}
	}
	if u.Op.IsBranch() && u.Mispred {
		m.pendingRefill = e
	}
	if u.Op.IsCtrl() && u.Taken {
		m.redirectF = f
	}
	if !cfg.InOrder && cfg.Window > 0 {
		m.noteIssue(g.Time(e))
	}
	refCharge(m.counts, cfg.InOrder, &u)

	idx := m.n & (histSize - 1)
	m.fetch[idx], m.dispatch[idx], m.execute[idx], m.commit[idx] = f, d, e, c
	m.complete = p
	m.n++
	m.stages = append(m.stages, [5]int64{g.Time(f), g.Time(d), g.Time(e), g.Time(p), g.Time(c)})
}

// noteIssue keeps the Window largest issue times.
func (m *refGPP) noteIssue(et int64) {
	if len(m.win) == m.cfg.Window {
		if et <= m.win[0] {
			return
		}
		m.win = m.win[1:]
	}
	i, _ := slices.BinarySearch(m.win, et)
	m.win = slices.Insert(m.win, i, et)
}

// refCharge adds one uop's energy events to c, event by event — the
// per-uop form the GPP's counted fold must equal.
func refCharge(c *energy.Counts, inOrder bool, u *UOp) {
	c.Add(energy.EvFetch, 1)
	c.Add(energy.EvDecode, 1)
	c.Add(energy.EvCommit, 1)
	c.Add(energy.EvIssueWakeup, 1)
	if !inOrder {
		c.Add(energy.EvRename, 1)
		c.Add(energy.EvROB, 1)
	}
	if u.Src1.Valid() {
		c.Add(energy.EvRegRead, 1)
	}
	if u.Src2.Valid() {
		c.Add(energy.EvRegRead, 1)
	}
	if u.Dst.Valid() && !u.Elide {
		c.Add(energy.EvRegWrite, 1)
	}
	switch u.Op.ClassOf() {
	case isa.ClassIntAlu:
		c.Add(energy.EvIntAluOp, 1)
	case isa.ClassIntMul:
		c.Add(energy.EvIntMulOp, 1)
	case isa.ClassIntDiv:
		c.Add(energy.EvIntDivOp, 1)
	case isa.ClassFpAdd:
		c.Add(energy.EvFpAddOp, 1)
	case isa.ClassFpMul:
		c.Add(energy.EvFpMulOp, 1)
	case isa.ClassFpDiv:
		c.Add(energy.EvFpDivOp, 1)
	case isa.ClassBranch, isa.ClassJump:
		c.Add(energy.EvIntAluOp, 1)
		c.Add(energy.EvBpred, 1)
	case isa.ClassVecAlu, isa.ClassVecMul:
		c.Add(energy.EvVecOp, 1)
	}
	if u.Op.IsMem() {
		c.Add(energy.EvLSQ, 1)
		if u.Op.IsVec() {
			c.Add(energy.EvVecMemOp, 1)
		} else {
			c.Add(energy.EvL1Access, 1)
		}
		switch u.Level {
		case trace.LevelL2:
			c.Add(energy.EvL2Access, 1)
		case trace.LevelMem:
			c.Add(energy.EvL2Access, 1)
			c.Add(energy.EvMemAccess, 1)
		}
	}
}
