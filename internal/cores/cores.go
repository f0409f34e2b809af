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

// Default is the general core a run uses when it names none: the -core
// flag's default, and the core of a /v1/evaluate request without one,
// which the fabric also routes by.
var Default = OOO2

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
// execute time and, on attribution runs, its critical-path position — the
// retire index it was recorded at, and the GPP generation it belongs to
// (entries from earlier generations are stale).
type storeRec struct {
	val int64
	age int32
	gen uint32
	ref ref
}

// stageTimes is one history entry: a uop's fetch, dispatch, execute and
// commit times.
type stageTimes struct{ f, d, e, c int64 }

// handoff is a node an accelerator transform handed the core — a
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
// The core is time-direct: its architectural state is times, and a uop
// computes its fetch, dispatch, execute, complete and commit times in
// registers as running maxima over the constraints the paper's µDG edges
// express, allocating no graph node. Nodes appear only on demand, as
// anchors carrying a time, when a transform asks for one (RegDef,
// LastCommit, LastStoreTo, LastComplete).
//
// On an attribution graph the core also logs, per uop, which term won
// each stage's maximum (see attrib.go), and WalkCriticalPath walks that
// log and the transforms' nodes as one critical path. The node-building
// form of the same model lives in the package tests, as the reference the
// differential tests compare against.
type GPP struct {
	Cfg    Config
	G      *dg.Graph
	Counts *energy.Counts

	n int // uops retired so far

	// A history entry or register never written reads 0, which constrains
	// nothing (every stage of every uop is at cycle 1 or later).
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

	// Attribution state (maintained only while logging): the critical-path
	// positions behind the times above, and the per-uop log.
	logging                            bool
	regRef                             [isa.NumRegs + 1]ref
	barrierRef, refillRef, redirectRef ref
	log                                []logRec

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
		Cfg:     cfg,
		gen:     1,
		issueRT: dg.NewResourceTable(cfg.Width),
		aluRT:   dg.NewResourceTable(cfg.IntAlu),
		mulRT:   dg.NewResourceTable(cfg.IntMulDiv),
		fpRT:    dg.NewResourceTable(cfg.FpUnits),
		portRT:  dg.NewResourceTable(cfg.DCachePorts),
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
	m.Reset(g, counts)
	return m
}

// Reset returns the GPP to its initial (drained-boundary) state on a new
// graph and energy accumulator, reusing the resource-table rings, the
// store table and the attribution log. The graph's mode selects whether
// the core logs attribution. The configuration is unchanged — pool GPPs
// per core config. Energy counted since the last Fold is discarded.
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

	clear(m.ring[:min(m.n, histSize)]) // entries past the old n were never written
	clear(m.regT[:])
	// Execution begins with a redirect to the entry PC: the first fetch
	// group starts one cycle after the boundary.
	m.barrierT, m.refillT, m.redirectT, m.lastTP = 0, 0, 1, 0
	m.handoffs = m.handoffs[:0]
	for _, k := range m.touched {
		m.cnt[k] = 0
	}
	m.touched = m.touched[:0]
	m.n = 0

	m.logging = !g.Lean()
	clear(m.regRef[:]) // the origin
	m.barrierRef, m.refillRef, m.redirectRef = 0, 0, 0
	m.log = m.log[:0]
}

// MemBytes reports the memory a pooled GPP lets its next user skip
// allocating: the five resource-table rings (the ~288 KB arrays the
// engine used to rebuild per evaluation) and the attribution log.
func (m *GPP) MemBytes() int64 {
	return m.issueRT.MemBytes() + m.aluRT.MemBytes() + m.mulRT.MemBytes() +
		m.fpRT.MemBytes() + m.portRT.MemBytes() + int64(cap(m.log))*logRecBytes
}

// last returns the history entry of the latest uop.
func (m *GPP) last() *stageTimes { return &m.ring[(m.n-1)&(histSize-1)] }

// Retired returns the number of UOps run through the core so far.
func (m *GPP) Retired() int { return m.n }

// anchor returns a node carrying time t for a transform to hang edges off
// (None for the "no producer" time -1). p is the critical-path position
// behind t on attribution runs: a transform node is handed back itself,
// and a logged uop stage gets a fresh anchor through which a walk enters
// the log.
func (m *GPP) anchor(t int64, p ref) dg.NodeID {
	switch {
	case t < 0:
		return dg.None
	case m.logging && p >= 0:
		return dg.NodeID(p)
	}
	return m.G.NewAnchor(t, dg.NodeID(p))
}

// settle reads the nodes transforms handed the core as times.
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
		p := ref(h.node)
		switch h.kind {
		case handReg:
			m.regT[h.reg], m.regRef[h.reg] = t, p
		case handStore:
			m.stores.set(h.addr, storeRec{val: t, age: h.age, gen: m.gen, ref: p})
		case handBarrier:
			// Ties go to the newer barrier, as the node form's barrier join
			// (new barrier edge first) resolved them.
			if t >= m.barrierT {
				m.barrierT, m.barrierRef = t, p
			}
		}
	}
	m.handoffs = m.handoffs[:0]
}

// LastCommit returns the most recent commit node; before anything has
// committed it returns the current barrier (the drained entry boundary),
// so edges hung off it — accelerator entry transfers, configuration
// loads — anchor at the boundary instead of disappearing.
func (m *GPP) LastCommit() dg.NodeID {
	t := m.EndTime()
	if m.n == 0 {
		return m.anchor(t, m.barrierRef)
	}
	return m.anchor(t, logRef(m.n-1, stageC))
}

// LastComplete returns the completion node of the latest uop (None before
// any has run), so a transform can hang an edge off a uop it issued.
func (m *GPP) LastComplete() dg.NodeID {
	if m.n == 0 {
		return dg.None
	}
	return m.anchor(m.lastTP, logRef(m.n-1, stageP))
}

// EndTime returns the completion time of the last committed uop, or the
// barrier time if nothing has run yet.
func (m *GPP) EndTime() int64 {
	m.settle()
	if m.n == 0 {
		return m.barrierT
	}
	return m.last().c
}

// Barrier forces all subsequent fetches to wait for node (region handoff:
// returning from an offload accelerator, or loading a configuration).
func (m *GPP) Barrier(node dg.NodeID) {
	if node != dg.None {
		m.handoffs = append(m.handoffs, handoff{node: node, kind: handBarrier})
	}
}

// RegDef returns the node producing register r's current value.
func (m *GPP) RegDef(r isa.Reg) dg.NodeID {
	if !r.Valid() {
		return dg.None
	}
	m.settle()
	return m.anchor(m.regT[r], m.regRef[r])
}

// SetRegDef overrides r's producing node (accelerator live-outs).
func (m *GPP) SetRegDef(r isa.Reg, node dg.NodeID) {
	if r.Valid() && r != isa.RZ {
		m.handoffs = append(m.handoffs, handoff{node: node, kind: handReg, reg: r})
	}
}

// NoteStore records an accelerator-performed store so later core loads
// observe the memory dependence.
func (m *GPP) NoteStore(addr uint64, node dg.NodeID) {
	m.handoffs = append(m.handoffs, handoff{node: node, kind: handStore, addr: addr &^ 7, age: int32(m.n)})
}

// LastStoreTo returns the node of the last store to addr, or None.
func (m *GPP) LastStoreTo(addr uint64) dg.NodeID {
	m.settle()
	rec, ok := m.stores.get(addr &^ 7)
	if !ok || rec.gen != m.gen {
		return dg.None
	}
	return m.anchor(rec.val, rec.ref)
}

const storeWindow = 4096 // uops a store-forwarding entry stays visible

// CompactWindow retires every resident node of a lean evaluation. Between
// uops the core holds no node — its state is times, and the nodes
// transforms handed it are read as times here at the latest — so once the
// transforms that created the resident nodes have returned, nothing can
// reference them again. Node times are final and unchanged, so a
// compacted evaluation is byte-identical to a whole-trace one; only peak
// memory changes, from O(trace) to one segment's nodes.
//
// Call it only between transforms, never while one holding node
// references is in flight (the exocore engine calls it at every segment
// end). Attribution graphs are never compacted: critical-path walks need
// them whole.
func (m *GPP) CompactWindow() {
	g := m.G
	if !g.Lean() {
		return
	}
	m.settle()
	g.Retire(dg.NodeID(g.Len()))
}

// Exec runs one UOp a transform synthesized through the pipeline model,
// booking resources and charging its energy events. dynIdx tags it on an
// attribution run's critical path (-1 for synthetic uops with no trace
// instruction).
func (m *GPP) Exec(u UOp, dynIdx int32) {
	m.settle()
	di := decode(u.Op, u.Dst, u.Src1, u.Src2)
	var flags uint8
	if u.Mispred {
		flags |= trace.FlagMispred
	}
	if u.Taken {
		flags |= trace.FlagTaken
	}
	if m.logging {
		m.stepLog(&di, u.Addr, u.MemLat, flags, dynIdx)
	} else {
		m.step(&di, u.Addr, u.MemLat, flags)
	}
	if u.Elide && u.Dst.Valid() {
		di.nev-- // the register write, decoded last, stays in the accelerator
	}
	m.charge(&di, u.Level, 1)
}

// ExecTrace runs trace instructions insts — dynamic indices base, base+1,
// … of the program p decodes — through the pipeline model: the one drive
// loop every trace instruction evaluated on the general core goes
// through, whether streamed, in a unit's core-resident segments or
// replayed by a transform. No node, no graph write, no per-instruction
// decode, and energy counted until Fold; an attribution run logs each
// instruction as well.
func (m *GPP) ExecTrace(p *Decoded, insts []trace.DynInst, base int) {
	if p != m.dec {
		m.Fold()
		m.bind(p)
	}
	m.settle()
	tab, cnt := p.insts, m.cnt
	if m.logging {
		for i := range insts {
			d := &insts[i]
			m.stepLog(&tab[d.SI], d.Addr, d.MemLat, d.Flags, int32(base+i))
			k := int(d.SI)<<2 | int(d.Level&3)
			if cnt[k] == 0 {
				m.touched = append(m.touched, int32(k))
			}
			cnt[k]++
		}
		return
	}
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

// step runs one uop through the pipeline model: the paper's µDG edges as
// a running maximum per stage, in instruction order for resource booking,
// over the history ring and register times. dflags carries the dynamic
// trace.FlagTaken and trace.FlagMispred bits. stepLog is its attributed
// twin; the two must compute the same times.
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
	t.rebuild(2*len(t.keys), func(storeRec) bool { return true })
}

// prune rebuilds the table keeping only live entries: current
// generation and within the store-forwarding age window.
func (t *storeTab) prune(gen uint32, n int) {
	t.rebuild(len(t.keys), func(r storeRec) bool { return r.gen == gen && n-int(r.age) < storeWindow })
}

// rebuild rehashes the entries keep accepts into a table of size slots.
func (t *storeTab) rebuild(size int, keep func(storeRec) bool) {
	ok, or := t.keys, t.recs
	t.keys, t.recs = make([]uint64, size), make([]storeRec, size)
	t.mask, t.used = uint64(size-1), 0
	for i, k := range ok {
		if k == 0 || !keep(or[i]) {
			continue
		}
		j := t.slotOf(k &^ 1)
		for t.keys[j] != 0 {
			j = (j + 1) & t.mask
		}
		t.keys[j], t.recs[j] = k, or[i]
		t.used++
	}
}
