// Package cores builds the general-purpose-processor portion of the µDG:
// the TDG_GPP,∅ constructor of the paper (Figure 4b). It models in-order
// and out-of-order pipelines of configurable width with ROB/window
// occupancy, register and memory dependences, functional-unit and cache-
// port contention, and branch-misprediction refill. The four
// configurations of Table 4 (IO2, OOO2, OOO4, OOO6) are predefined.
package cores

import (
	"exocore/internal/dg"
	"exocore/internal/energy"
	"exocore/internal/isa"
	"exocore/internal/trace"
)

// Config is a general-purpose core configuration (paper Table 4).
type Config struct {
	Name  string
	Width int // fetch/dispatch/issue/writeback width
	// ROB and Window are zero for in-order cores.
	ROB         int
	Window      int
	DCachePorts int
	IntAlu      int
	IntMulDiv   int
	FpUnits     int
	InOrder     bool
	// InFlight bounds outstanding instructions on in-order cores (the
	// scoreboard/MSHR limit); OOO cores use ROB instead.
	InFlight int
	// FrontendDepth is the pipeline refill penalty on a branch
	// misprediction, and the fetch→dispatch depth contribution.
	FrontendDepth int
	// AreaMM2 is the core area (22nm-class, McPAT-calibrated ballpark).
	AreaMM2 float64
}

// The paper's four general-core configurations (Table 4).
var (
	IO2 = Config{
		Name: "IO2", Width: 2, ROB: 0, Window: 0, DCachePorts: 1,
		IntAlu: 2, IntMulDiv: 1, FpUnits: 1, InOrder: true, InFlight: 16,
		FrontendDepth: 7, AreaMM2: 1.6,
	}
	OOO2 = Config{
		Name: "OOO2", Width: 2, ROB: 64, Window: 32, DCachePorts: 1,
		IntAlu: 2, IntMulDiv: 1, FpUnits: 1,
		FrontendDepth: 10, AreaMM2: 3.2,
	}
	OOO4 = Config{
		Name: "OOO4", Width: 4, ROB: 168, Window: 48, DCachePorts: 2,
		IntAlu: 3, IntMulDiv: 2, FpUnits: 2,
		FrontendDepth: 12, AreaMM2: 7.8,
	}
	OOO6 = Config{
		Name: "OOO6", Width: 6, ROB: 192, Window: 52, DCachePorts: 3,
		IntAlu: 4, IntMulDiv: 2, FpUnits: 3,
		FrontendDepth: 14, AreaMM2: 12.4,
	}
)

// Configs lists the four general cores in the order used by the paper.
var Configs = []Config{IO2, OOO2, OOO4, OOO6}

// ConfigByName returns the named predefined configuration.
func ConfigByName(name string) (Config, bool) {
	for _, c := range Configs {
		if c.Name == name {
			return c, true
		}
	}
	return Config{}, false
}

// EnergyParams returns the core's energy-scaling parameters.
func (c Config) EnergyParams() energy.CoreParams {
	return energy.CoreParams{
		Width: c.Width, ROB: c.ROB, Window: c.Window,
		InOrder: c.InOrder, AreaMM2: c.AreaMM2,
	}
}

// Custom returns a copy of cfg with a new name, for DSE variants.
func (c Config) Custom(name string) Config {
	c.Name = name
	return c
}

// UOp is the micro-operation unit the GPP graph constructor consumes.
// Trace instructions enter through ExecTrace; transforms (eg. SIMD
// vectorization) synthesize UOps that never appeared in the original
// trace and issue them through Exec.
type UOp struct {
	Op     isa.Op
	Dst    isa.Reg
	Src1   isa.Reg
	Src2   isa.Reg
	Addr   uint64
	MemLat uint16
	Level  trace.MemLevel
	// Mispred marks a mispredicted branch (refill penalty applies).
	Mispred bool
	// Taken marks a taken control transfer: the fetch group ends at it
	// (the target is fetched the following cycle).
	Taken bool
	// Elide suppresses regfile-write energy (used for transformed ops
	// whose result stays inside an accelerator structure).
	Elide bool
}

// FromDyn fills a UOp from a dynamic trace instruction.
func FromDyn(p *isa.Inst, d *trace.DynInst) UOp {
	return UOp{
		Op: p.Op, Dst: p.Dst, Src1: p.Src1, Src2: p.Src2,
		Addr: d.Addr, MemLat: d.MemLat, Level: d.Level,
		Mispred: d.Mispredicted(), Taken: d.Taken(),
	}
}

const histSize = 256 // power of two ≥ max ROB

// storeRec is one store-forwarding entry: the last store to a word — its
// execute node on an attribution graph, its execute time on a lean one —
// the retire index it was recorded at, and the GPP generation it belongs
// to (entries from earlier generations are stale).
type storeRec struct {
	val int64
	age int32
	gen uint32
}

// stageTimes is one lean-mode history entry: a uop's fetch, dispatch,
// execute and commit times.
type stageTimes struct{ f, d, e, c int64 }

// handoff is a node an accelerator transform handed a lean core — a
// register producer, a performed store or a fetch barrier — waiting to be
// read as a time when the core next executes.
type handoff struct {
	node dg.NodeID
	kind uint8 // handReg, handStore, handBarrier
	reg  isa.Reg
	age  int32
	addr uint64
}

const (
	handReg = iota
	handStore
	handBarrier
)

// GPP incrementally constructs the core µDG over a stream of UOps. It
// persists architectural dependence state (register writers, recent store
// addresses) across accelerated regions so that core↔accelerator
// interaction edges are modeled, as the paper requires (§2.1 item 1).
//
// The state takes one of two forms, chosen by the mode of the graph it
// appends to.
// On an attribution graph it is µDG nodes: every uop builds its five
// stage nodes and their edges, so critical paths can be walked. On a lean
// graph it is times: a uop computes its stage times in registers, and no
// node is allocated and no graph time written — a lean evaluation never
// walks a path, so the graph would only be a detour. Nodes appear on a
// lean graph only on demand, as anchors carrying a time, when a transform
// asks for one (RegDef, LastCommit, LastStoreTo, LastComplete). Both forms
// compute identical times; the differential tests in this package and in
// internal/exocore pin them together.
type GPP struct {
	Cfg    Config
	G      *dg.Graph
	Counts *energy.Counts

	n int // uops retired so far

	// Attribution-mode state: nodes.
	fetch    [histSize]dg.NodeID
	dispatch [histSize]dg.NodeID
	execute  [histSize]dg.NodeID
	commit   [histSize]dg.NodeID

	regDef [isa.NumRegs]dg.NodeID // complete node of last writer

	pendingRefill dg.NodeID // execute node of last mispredicted branch
	redirectF     dg.NodeID // fetch node of last taken branch (group break)
	barrier       dg.NodeID // node all subsequent fetches must follow
	// barrierSeen records whether any fetch has been ordered after the
	// current barrier yet. Only the first fetch needs the explicit edge:
	// it acquires time ≥ barrier, and every later fetch follows it
	// through the program edge (added first, so it also wins time ties
	// exactly as the redundant barrier edge would have lost them).
	barrierSeen bool
	complete    dg.NodeID // complete node of the latest uop

	// Lean-mode state: the same architecture as times. A history entry
	// or register never written reads 0, which constrains nothing (every
	// stage of every uop is at cycle 1 or later).
	ring [histSize]stageTimes
	regT [isa.NumRegs + 1]int64 // ready time per register, plus sinkSlot
	// barrierT is the fetch floor set by barriers. Fetch times never
	// decrease, so applying it to every fetch equals applying it once.
	barrierT int64
	// refillT and redirectT are the next fetch's misprediction-refill and
	// taken-branch floors, latency included; 0 once consumed.
	refillT, redirectT int64
	lastTP             int64 // complete time of the latest uop
	handoffs           []handoff
	// Counted energy (see Fold): ExecTrace executions since the last fold
	// per (static instruction of dec, memory level), and the entries
	// touched.
	dec     *Decoded
	cnt     []int64
	touched []int32
	robBack int                      // commit distance of the ROB / in-flight limit (0: none)
	rts     [numRT]*dg.ResourceTable // indexed by decInst.rt

	// stores maps word address → last store. Entries are tagged with a
	// generation number so Reset invalidates the whole table in O(1) (a
	// pooled GPP resets once per unit evaluation; clearing thousands of
	// buckets each time dominated Reset).
	stores storeTab
	gen    uint32

	issueRT *dg.ResourceTable
	aluRT   *dg.ResourceTable
	mulRT   *dg.ResourceTable
	fpRT    *dg.ResourceTable
	portRT  *dg.ResourceTable

	// winBuf holds the Window largest issue times so far, sorted
	// ascending in a circular buffer starting at winHead (filled
	// non-circularly until winLen reaches Window). An instruction may
	// dispatch only when fewer than Window older instructions are still
	// waiting to issue, i.e. no earlier than the Window-th largest issue
	// time seen so far — the buffer's head. Issue times are nearly
	// monotonic, so replacing the minimum is O(1) here (new maxima drop
	// straight into the freed head slot as the new tail) where the
	// min-heap this replaces paid a full sift-down per uop.
	winBuf  []int64
	winHead int
	winLen  int
}

// NewGPP returns a constructor appending onto g, charging events to counts.
//
// The initial architectural state is the drained-pipeline boundary: every
// register reads as produced by the graph origin (time 0), so entry
// dependences of a first-segment accelerator region resolve against the
// boundary rather than vanishing.
func NewGPP(cfg Config, g *dg.Graph, counts *energy.Counts) *GPP {
	m := &GPP{
		Cfg: cfg, G: g, Counts: counts,
		gen:     1,
		issueRT: dg.NewResourceTable(cfg.Width),
		aluRT:   dg.NewResourceTable(cfg.IntAlu),
		mulRT:   dg.NewResourceTable(cfg.IntMulDiv),
		fpRT:    dg.NewResourceTable(cfg.FpUnits),
		portRT:  dg.NewResourceTable(cfg.DCachePorts),
		barrier: g.Origin(),
	}
	m.rts = [numRT]*dg.ResourceTable{rtALU: m.aluRT, rtMul: m.mulRT, rtFP: m.fpRT, rtPort: m.portRT}
	switch {
	case !cfg.InOrder && cfg.ROB > 0:
		m.robBack = cfg.ROB
	case cfg.InOrder && cfg.InFlight > 0:
		m.robBack = cfg.InFlight
	}
	m.stores.init()
	if !cfg.InOrder && cfg.Window > 0 {
		m.winBuf = make([]int64, cfg.Window)
	}
	for i := range m.regDef {
		m.regDef[i] = g.Origin()
	}
	m.pendingRefill = dg.None
	m.complete = dg.None
	// Execution begins with a redirect to the entry PC: the first fetch
	// group starts one cycle after the boundary.
	m.redirectF = g.Origin()
	m.redirectT = 1
	return m
}

// Reset returns the GPP to its initial (drained-boundary) state on a new
// graph and energy accumulator, reusing the resource-table rings and map
// storage. The configuration is unchanged — pool GPPs per core config.
// Energy counted since the last Fold is discarded.
func (m *GPP) Reset(g *dg.Graph, counts *energy.Counts) {
	m.G = g
	m.Counts = counts
	m.gen++
	if m.gen == 0 { // wrapped: stale tags could collide, really clear
		m.stores.clear()
		m.gen = 1
	}
	m.issueRT.Reset()
	m.aluRT.Reset()
	m.mulRT.Reset()
	m.fpRT.Reset()
	m.portRT.Reset()
	m.winHead, m.winLen = 0, 0
	m.barrier = g.Origin()
	m.barrierSeen = false
	for i := range m.regDef {
		m.regDef[i] = g.Origin()
	}
	m.pendingRefill = dg.None
	m.redirectF = g.Origin()
	m.complete = dg.None

	clear(m.ring[:min(m.n, histSize)]) // entries past the old n were never written
	clear(m.regT[:])
	m.barrierT, m.refillT, m.redirectT, m.lastTP = 0, 0, 1, 0
	m.handoffs = m.handoffs[:0]
	for _, k := range m.touched {
		m.cnt[k] = 0
	}
	m.touched = m.touched[:0]
	m.n = 0
}

// MemBytes reports the memory a pooled GPP lets its next user skip
// allocating: the five resource-table rings (the ~288 KB arrays the
// engine used to rebuild per evaluation).
func (m *GPP) MemBytes() int64 {
	return m.issueRT.MemBytes() + m.aluRT.MemBytes() + m.mulRT.MemBytes() +
		m.fpRT.MemBytes() + m.portRT.MemBytes()
}

func (m *GPP) hist(arr *[histSize]dg.NodeID, back int) dg.NodeID {
	if back > m.n {
		return dg.None
	}
	return arr[(m.n-back)&(histSize-1)]
}

// last returns the lean history entry of the latest uop.
func (m *GPP) last() *stageTimes { return &m.ring[(m.n-1)&(histSize-1)] }

// Retired returns the number of UOps run through the core so far.
func (m *GPP) Retired() int { return m.n }

// anchor returns a fresh lean-graph node carrying time t (None for the
// "no producer" time -1), for a transform to hang edges off.
func (m *GPP) anchor(t int64) dg.NodeID {
	if t < 0 {
		return dg.None
	}
	a := m.G.NewNode(dg.KindAccel, -1)
	m.G.SetTime(a, t)
	return a
}

// settle reads the nodes transforms handed a lean core as times.
func (m *GPP) settle() {
	if len(m.handoffs) == 0 {
		return
	}
	for i := range m.handoffs {
		h := &m.handoffs[i]
		t := int64(-1) // None: no producer, no constraint
		if h.node != dg.None {
			t = m.G.Time(h.node)
		}
		switch h.kind {
		case handReg:
			m.regT[h.reg] = t
		case handStore:
			m.stores.set(h.addr, storeRec{val: t, age: h.age, gen: m.gen})
		case handBarrier:
			m.barrierT = max(m.barrierT, t)
		}
	}
	m.handoffs = m.handoffs[:0]
}

// LastCommit returns the most recent commit node; before anything has
// committed it returns the current barrier (the drained entry boundary),
// so edges hung off it — accelerator entry transfers, configuration
// loads — anchor at the boundary instead of disappearing.
func (m *GPP) LastCommit() dg.NodeID {
	if m.G.Lean() {
		return m.anchor(m.EndTime())
	}
	if m.n == 0 {
		return m.barrier
	}
	return m.hist(&m.commit, 1)
}

// LastComplete returns the completion node of the latest uop (None before
// any has run), so a transform can hang an edge off a uop it issued.
func (m *GPP) LastComplete() dg.NodeID {
	switch {
	case m.n == 0:
		return dg.None
	case m.G.Lean():
		return m.anchor(m.lastTP)
	}
	return m.complete
}

// EndTime returns the completion time of the last committed uop, or the
// barrier time if nothing has run yet.
func (m *GPP) EndTime() int64 {
	if m.G.Lean() {
		m.settle()
		if m.n == 0 {
			return m.barrierT
		}
		return m.last().c
	}
	if c := m.LastCommit(); c != dg.None {
		return m.G.Time(c)
	}
	return m.G.Time(m.barrier)
}

// Barrier forces all subsequent fetches to wait for node (region handoff:
// returning from an offload accelerator, or loading a configuration).
func (m *GPP) Barrier(node dg.NodeID, class dg.EdgeClass) {
	if node == dg.None {
		return
	}
	if m.G.Lean() {
		m.handoffs = append(m.handoffs, handoff{node: node, kind: handBarrier})
		return
	}
	// Model via a synthetic node so the edge class is preserved.
	b := m.G.NewNode(dg.KindAccel, -1)
	m.G.AddEdge(node, b, 0, class)
	m.G.AddEdge(m.barrier, b, 0, dg.EdgeProgram)
	m.barrier = b
	m.barrierSeen = false
}

// RegDef returns the node producing register r's current value.
func (m *GPP) RegDef(r isa.Reg) dg.NodeID {
	if !r.Valid() {
		return dg.None
	}
	if m.G.Lean() {
		m.settle()
		return m.anchor(m.regT[r])
	}
	return m.regDef[r]
}

// SetRegDef overrides r's producing node (accelerator live-outs).
func (m *GPP) SetRegDef(r isa.Reg, node dg.NodeID) {
	if !r.Valid() || r == isa.RZ {
		return
	}
	if m.G.Lean() {
		m.handoffs = append(m.handoffs, handoff{node: node, kind: handReg, reg: r})
		return
	}
	m.regDef[r] = node
}

// NoteStore records an accelerator-performed store so later core loads
// observe the memory dependence.
func (m *GPP) NoteStore(addr uint64, node dg.NodeID) {
	if m.G.Lean() {
		m.handoffs = append(m.handoffs, handoff{node: node, kind: handStore, addr: addr &^ 7, age: int32(m.n)})
		return
	}
	m.stores.set(addr&^7, storeRec{val: int64(node), age: int32(m.n), gen: m.gen})
}

// LastStoreTo returns the node of the last store to addr, or None.
func (m *GPP) LastStoreTo(addr uint64) dg.NodeID {
	lean := m.G.Lean()
	if lean {
		m.settle()
	}
	rec, ok := m.stores.get(addr &^ 7)
	switch {
	case !ok || rec.gen != m.gen:
		return dg.None
	case lean:
		return m.anchor(rec.val)
	}
	return dg.NodeID(rec.val)
}

const storeWindow = 4096 // uops a store-forwarding entry stays visible

// CompactWindow bounds the resident µDG of a lean evaluation: when more
// than window nodes are resident, every one of them is retired. Between
// uops a lean core holds no node — its state is times, and the nodes
// transforms handed it are read as times here at the latest — so once the
// transforms that created the resident nodes have returned, nothing can
// reference them again. Node times are final and unchanged, so windowed
// evaluation is byte-identical to whole-trace evaluation; only peak memory
// changes, from O(trace) to O(window).
//
// Call it only between transforms, never while one holding node
// references is in flight (the exocore engine calls it between segments).
// Attribution graphs are never compacted: critical-path walks need them
// whole.
func (m *GPP) CompactWindow(window int) {
	g := m.G
	if !g.Lean() || g.Resident() <= window {
		return
	}
	m.settle()
	g.Retire(dg.NodeID(g.Len()))
}

// Exec runs one UOp through the pipeline model, booking resources and
// charging its energy events. On an attribution graph it creates the
// uop's five stage nodes and their edges, tagged with dynIdx (-1 for
// synthetic uops); on a lean graph it only advances the core's times.
func (m *GPP) Exec(u UOp, dynIdx int32) {
	if m.G.Lean() {
		m.settle()
		di := decode(u.Op, u.Dst, u.Src1, u.Src2)
		var flags uint8
		if u.Mispred {
			flags |= trace.FlagMispred
		}
		if u.Taken {
			flags |= trace.FlagTaken
		}
		m.step(&di, u.Addr, u.MemLat, flags)
		m.charge(&u, u.Op.ClassOf())
		return
	}
	g := m.G
	cfg := &m.Cfg

	// All five stage nodes are allocated up front in one batched append;
	// the edge sequence below is unchanged, and since AddEdge finalizes
	// times in edge order, every node's time is still final before it is
	// first read as a predecessor.
	f := g.NewPipelineNodes(dynIdx)
	d, e, p, c := f+1, f+2, f+3, f+4

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
		// Fetch groups cannot span a taken branch: the target comes from
		// the next fetch cycle even when correctly predicted.
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
	if !cfg.InOrder && cfg.Window > 0 && m.winLen >= cfg.Window {
		// Issue-window occupancy: a slot frees when the oldest of the
		// Window latest-issuing instructions issues.
		g.PushTime(d, m.winBuf[m.winHead], dg.EdgeWindow)
	}

	// --- Execute ---
	g.AddEdge(d, e, 1, dg.EdgePipe)
	if cfg.InOrder {
		g.AddEdge(m.hist(&m.execute, 1), e, 0, dg.EdgeInOrder)
	}
	// Register data dependences.
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
		if rec, ok := m.stores.get(u.Addr &^ 7); ok && rec.gen == m.gen && m.n-int(rec.age) < storeWindow {
			g.AddEdge(dg.NodeID(rec.val), e, 2, dg.EdgeMemDep) // store-to-load forward
		}
	}

	// Resource booking (in instruction order — paper §2.7).
	ready := g.Time(e)
	issued := m.issueRT.Book(ready)
	g.PushTime(e, issued, dg.EdgeWidth)
	var rt *dg.ResourceTable
	switch cls {
	case isa.ClassIntAlu:
		rt = m.aluRT
	case isa.ClassIntMul, isa.ClassIntDiv:
		rt = m.mulRT
	case isa.ClassFpAdd, isa.ClassFpMul, isa.ClassFpDiv:
		rt = m.fpRT
	case isa.ClassVecAlu, isa.ClassVecMul:
		rt = m.fpRT // vector ops share the FP/SIMD datapath
	case isa.ClassLoad, isa.ClassStore, isa.ClassVecMem:
		rt = m.portRT
	}
	if rt != nil {
		var when int64
		switch {
		case cls == isa.ClassIntDiv || cls == isa.ClassFpDiv:
			when = rt.BookFor(g.Time(e), int64(u.Op.Latency())) // unpipelined divide
		case u.Op.IsVec() && !u.Op.IsMem():
			// A 256-bit vector op occupies the FP/SIMD datapath for two
			// slots (issue-port pressure of wide operations).
			when = rt.BookFor(g.Time(e), 2)
		default:
			when = rt.Book(g.Time(e))
		}
		cls := dg.EdgeFU
		if u.Op.IsMem() {
			cls = dg.EdgeCachePort
		}
		g.PushTime(e, when, cls)
	}

	// --- Complete ---
	lat := int64(u.Op.Latency())
	if u.Op.IsMem() {
		lat = int64(u.MemLat)
		if u.Op.IsStore() {
			lat = 1 // stores complete into the store queue
		}
	}
	if lat < 1 {
		lat = 1
	}
	g.AddEdge(e, p, lat, dg.EdgeExec)

	// --- Commit ---
	g.AddEdge(p, c, 1, dg.EdgeCommit)
	g.AddEdge(m.hist(&m.commit, 1), c, 0, dg.EdgeProgram)
	g.AddEdge(m.hist(&m.commit, cfg.Width), c, 1, dg.EdgeWidth)

	// Architectural state updates.
	if u.Dst.Valid() && u.Dst != isa.RZ {
		m.regDef[u.Dst] = p
	}
	if u.Op.IsStore() {
		m.stores.set(u.Addr&^7, storeRec{val: int64(e), age: int32(m.n), gen: m.gen})
		if m.stores.used > 2*storeWindow {
			m.stores.prune(m.gen, m.n)
		}
	}
	if u.Op.IsBranch() && u.Mispred {
		m.pendingRefill = e
	}
	if u.Op.IsCtrl() && u.Taken {
		m.redirectF = f
	}
	m.noteIssue(g.Time(e))

	// Energy accounting.
	m.charge(&u, cls)

	// Advance history.
	idx := m.n & (histSize - 1)
	m.fetch[idx] = f
	m.dispatch[idx] = d
	m.execute[idx] = e
	m.commit[idx] = c
	m.complete = p
	m.n++
}

// ExecTrace runs trace instructions insts — dynamic indices base, base+1,
// … of the program p decodes — through the pipeline model: the one drive
// loop every trace instruction evaluated on the general core goes
// through, whether streamed, in a unit's core-resident segments or
// replayed by a transform. On a lean graph it is time-direct: no node, no
// graph write, no per-instruction decode, and energy counted until Fold.
// On an attribution graph each instruction goes through Exec.
func (m *GPP) ExecTrace(p *Decoded, insts []trace.DynInst, base int) {
	if !m.G.Lean() {
		for i := range insts {
			d := &insts[i]
			m.Exec(FromDyn(&p.prog.Insts[d.SI], d), int32(base+i))
		}
		return
	}
	if p != m.dec {
		m.Fold()
		m.bind(p)
	}
	m.settle()
	tab, cnt := p.insts, m.cnt
	for i := range insts {
		d := &insts[i]
		m.step(&tab[d.SI], d.Addr, d.MemLat, d.Flags)
		// Memory levels are two-bit (LevelNone..LevelMem).
		k := int(d.SI)<<2 | int(d.Level&3)
		if cnt[k] == 0 {
			m.touched = append(m.touched, int32(k))
		}
		cnt[k]++
	}
}

// step runs one uop through the lean pipeline model: the attribution
// Exec's edges as a running maximum per stage, in the same booking order,
// over the lean history ring and register times. dflags carries the
// dynamic trace.FlagTaken and trace.FlagMispred bits.
func (m *GPP) step(di *decInst, addr uint64, memLat uint16, dflags uint8) {
	cfg := &m.Cfg
	n := m.n
	prev := &m.ring[(n-1)&(histSize-1)]
	wide := &m.ring[(n-cfg.Width)&(histSize-1)]

	// --- Fetch ---
	tf := max(prev.f, wide.f+1, m.barrierT, m.refillT, m.redirectT)
	m.refillT, m.redirectT = 0, 0

	// --- Dispatch ---
	td := max(tf+2, prev.d, wide.d+1)
	if m.robBack > 0 {
		td = max(td, m.ring[(n-m.robBack)&(histSize-1)].c+1)
	}
	if m.winBuf != nil && m.winLen == len(m.winBuf) {
		td = max(td, m.winBuf[m.winHead])
	}

	// --- Execute ---
	te := max(td+1, m.regT[di.src1], m.regT[di.src2], m.regT[di.acc])
	if cfg.InOrder {
		te = max(te, prev.e)
	}
	if di.flags&fLoad != 0 {
		if rec, ok := m.stores.get(addr &^ 7); ok && rec.gen == m.gen && n-int(rec.age) < storeWindow {
			te = max(te, rec.val+2)
		}
	}
	te = m.issueRT.Book(te)
	if rt := m.rts[di.rt]; rt != nil {
		if di.busy == 0 {
			te = rt.Book(te)
		} else {
			te = rt.BookFor(te, int64(di.busy))
		}
	}

	// --- Complete, Commit ---
	lat := int64(di.lat)
	if lat == 0 {
		lat = max(int64(memLat), 1)
	}
	tp := te + lat
	tc := max(tp+1, prev.c, wide.c+1)

	// Architectural state updates.
	m.regT[di.dst] = tp
	if di.flags&fStore != 0 {
		m.stores.set(addr&^7, storeRec{val: te, age: int32(n), gen: m.gen})
		if m.stores.used > 2*storeWindow {
			m.stores.prune(m.gen, n)
		}
	}
	if di.flags&fBranch != 0 && dflags&trace.FlagMispred != 0 {
		m.refillT = te + int64(cfg.FrontendDepth)
	}
	if di.flags&fCtrl != 0 && dflags&trace.FlagTaken != 0 {
		m.redirectT = tf + 1
	}
	m.noteIssue(te)
	m.ring[n&(histSize-1)] = stageTimes{tf, td, te, tc}
	m.lastTP = tp
	m.n = n + 1
}

// noteIssue keeps the Window largest issue times (window bookkeeping).
func (m *GPP) noteIssue(et int64) {
	switch {
	case m.winBuf == nil:
	case m.winLen < len(m.winBuf):
		m.winGrow(et)
	case et > m.winBuf[m.winHead]:
		m.winReplaceMin(et)
	}
}

// winGrow inserts v into the not-yet-full buffer, kept sorted ascending
// at winBuf[0:winLen] (winHead is 0 during the fill phase).
func (m *GPP) winGrow(v int64) {
	b := m.winBuf
	i := m.winLen
	for i > 0 && b[i-1] > v {
		b[i] = b[i-1]
		i--
	}
	b[i] = v
	m.winLen++
}

// winReplaceMin evicts the buffer's minimum (the head slot) and inserts
// v > min, scanning backward from the tail: the common near-monotonic
// case (v is a new maximum) writes v straight into the freed head slot
// as the new tail with zero data movement.
func (m *GPP) winReplaceMin(v int64) {
	b := m.winBuf
	n := len(b)
	dst := m.winHead // freed slot becomes the new tail slot
	m.winHead++
	if m.winHead == n {
		m.winHead = 0
	}
	src := dst - 1 // current tail
	if src < 0 {
		src = n - 1
	}
	for k := 1; k < n && b[src] > v; k++ {
		b[dst] = b[src]
		dst = src
		src--
		if src < 0 {
			src = n - 1
		}
	}
	b[dst] = v
}

// storeTab is an open-addressed, linear-probe map from word address to
// storeRec, replacing the built-in map on the Exec hot path (hashing and
// bucket probing there was a top-five cost of a DSE sweep). Occupied
// slots key on addr|1 — word addresses have their low three bits clear,
// so 0 safely marks an empty slot whatever the address.
type storeTab struct {
	keys []uint64
	recs []storeRec
	used int // occupied slots, including generation-stale entries
	mask uint64
}

const storeTabInitSize = 1024 // power of two; grows to keep load < 1/2

func (t *storeTab) init() {
	t.keys = make([]uint64, storeTabInitSize)
	t.recs = make([]storeRec, storeTabInitSize)
	t.mask = storeTabInitSize - 1
	t.used = 0
}

func (t *storeTab) clear() {
	clear(t.keys)
	t.used = 0
}

func (t *storeTab) slotOf(addr uint64) uint64 {
	return (addr * 0x9E3779B97F4A7C15) >> 17 & t.mask
}

func (t *storeTab) get(addr uint64) (storeRec, bool) {
	k := addr | 1
	for i := t.slotOf(addr); ; i = (i + 1) & t.mask {
		switch t.keys[i] {
		case k:
			return t.recs[i], true
		case 0:
			return storeRec{}, false
		}
	}
}

func (t *storeTab) set(addr uint64, rec storeRec) {
	if 2*(t.used+1) > len(t.keys) {
		t.grow()
	}
	k := addr | 1
	for i := t.slotOf(addr); ; i = (i + 1) & t.mask {
		switch t.keys[i] {
		case k:
			t.recs[i] = rec
			return
		case 0:
			t.keys[i] = k
			t.recs[i] = rec
			t.used++
			return
		}
	}
}

// grow doubles the table, rehashing every entry.
func (t *storeTab) grow() {
	ok, or := t.keys, t.recs
	n := 2 * len(ok)
	t.keys = make([]uint64, n)
	t.recs = make([]storeRec, n)
	t.mask = uint64(n - 1)
	for i, k := range ok {
		if k != 0 {
			for j := t.slotOf(k &^ 1); ; j = (j + 1) & t.mask {
				if t.keys[j] == 0 {
					t.keys[j], t.recs[j] = k, or[i]
					break
				}
			}
		}
	}
}

// prune rebuilds the table keeping only live entries: current
// generation and within the store-forwarding age window.
func (t *storeTab) prune(gen uint32, n int) {
	ok, or := t.keys, t.recs
	t.keys = make([]uint64, len(ok))
	t.recs = make([]storeRec, len(or))
	t.used = 0
	for i, k := range ok {
		if k == 0 {
			continue
		}
		rec := or[i]
		if rec.gen != gen || n-int(rec.age) >= storeWindow {
			continue
		}
		for j := t.slotOf(k &^ 1); ; j = (j + 1) & t.mask {
			if t.keys[j] == 0 {
				t.keys[j], t.recs[j] = k, rec
				t.used++
				break
			}
		}
	}
}

// charge adds one uop's energy events to Counts (the per-uop form of the
// counted fold, for attribution graphs and transform-synthesized uops).
func (m *GPP) charge(u *UOp, cls isa.Class) {
	c := m.Counts
	c.Add(energy.EvFetch, 1)
	c.Add(energy.EvDecode, 1)
	c.Add(energy.EvCommit, 1)
	if !m.Cfg.InOrder {
		c.Add(energy.EvRename, 1)
		c.Add(energy.EvIssueWakeup, 1)
		c.Add(energy.EvROB, 1)
	} else {
		c.Add(energy.EvIssueWakeup, 1)
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
	switch cls {
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
