package cores

import (
	"unsafe"

	"exocore/internal/dg"
	"exocore/internal/trace"
)

// Critical-path attribution without nodes. The paper explains a run's
// cycles by walking its µDG critical path and binning each step by edge
// class (§2, Figure 13). The general core builds no nodes for that:
// stepLog computes the same times as step and logs, per uop, which term
// won each stage's running maximum, and WalkCriticalPath follows those
// winners backwards, crossing into and out of transform nodes through
// anchors and handed-over nodes. Ties resolve as in the node form of the
// model — five nodes per uop, edges relaxed in a fixed order — which the
// package tests keep as the reference.

// ref is a critical-path position: a graph node (≥ 0), none (dg.None), or,
// below that, stage s of logged uop i encoded as -2-(i<<3|s) — the value
// an anchor carries as its external predecessor (dg.Graph.NewAnchor). The
// encoding bounds an attribution run to 2^28 uops.
type ref int32

// Pipeline stages of a logged uop.
const (
	stageF = iota
	stageD
	stageE
	stageP
	stageC
)

func logRef(i, stage int) ref { return ref(-2 - int32(i<<3|stage)) }

// at decodes a log position into its uop index and stage.
func (p ref) at() (int, int) {
	x := int(-2 - p)
	return x >> 3, x & 7
}

// logRec is one uop's attribution record: for each stage, the term that
// won its running maximum and the latency of the step into it, resource
// and window waits included.
type logRec struct {
	dyn  int32 // trace index (-1 for synthetic uops)
	fRef ref   // the fetch winner's position
	eRef ref   // the execute winner's position
	dLat int32 // dispatch step latency, window wait included
	eLat int32 // execute step latency, issue and unit waits included
	pLat int32 // execute→complete latency
	win  uint8 // winning terms: fetch | dispatch<<3 | commit<<5
	eCls uint8 // execute step class (after waits) << 2 | execute term
}

const logRecBytes = int64(unsafe.Sizeof(logRec{}))

// An AttribLog holds a general core's attribution log: one record per
// uop an attribution run executes, which WalkCriticalPath reads back. Its
// zero value is an empty log; it keeps the capacity of the longest unit
// logged into it.
type AttribLog struct{ recs []logRec }

// MemBytes reports the log's allocated size; 0 for a nil log.
func (l *AttribLog) MemBytes() int64 {
	if l == nil {
		return 0
	}
	return int64(cap(l.recs)) * logRecBytes
}

// term is one candidate of a stage's running maximum: its edge class and
// latency, as the node form's edge carried them.
type term struct {
	class dg.EdgeClass
	lat   int64
}

// The candidates of each stage, numbered in the node form's edge order.
var (
	// previous, width-back, barrier, refill (FrontendDepth), redirect
	fetchTerms = [...]term{{dg.EdgeProgram, 0}, {dg.EdgeWidth, 1}, {dg.EdgeProgram, 0}, {dg.EdgeMispredict, 0}, {dg.EdgeWidth, 1}}
	// from fetch, previous, width-back, ROB-back commit
	dispatchTerms = [...]term{{dg.EdgePipe, 2}, {dg.EdgeProgram, 0}, {dg.EdgeWidth, 1}, {dg.EdgeROB, 1}}
	// from dispatch, previous (in-order), register producer, store
	executeTerms = [...]term{{dg.EdgePipe, 1}, {dg.EdgeInOrder, 0}, {dg.EdgeData, 0}, {dg.EdgeMemDep, 2}}
	// from complete, previous, width-back
	commitTerms = [...]term{{dg.EdgeCommit, 1}, {dg.EdgeProgram, 0}, {dg.EdgeWidth, 1}}
)

// race folds candidates into a stage's running maximum. Only a strictly
// later time displaces the leader, so ties go to the earliest candidate —
// the one whose edge the node form relaxed first.
type race struct {
	t   int64
	src ref
	k   uint8
}

func (r *race) try(t int64, src ref, k uint8) {
	if t > r.t {
		r.t, r.src, r.k = t, src, k
	}
}

// stepLog is step for attribution runs: the same times, from the same
// state, plus a log record of each stage's winning term. A candidate
// exists only where the node form had its edge — history terms need that
// many older uops — and is tried in that edge's order.
func (m *GPP) stepLog(di *decInst, addr uint64, memLat uint16, dflags uint8, dyn int32) {
	cfg := &m.Cfg
	n, w := m.n, cfg.Width
	prev := &m.ring[(n-1)&(histSize-1)]
	wide := &m.ring[(n-w)&(histSize-1)]

	// --- Fetch --- (a barrier never beats the previous fetch, which
	// already waited for it, so trying it on every fetch is exact)
	f := race{t: -1}
	if n >= 1 {
		f.try(prev.f, logRef(n-1, stageF), 0)
	}
	if n >= w {
		f.try(wide.f+1, logRef(n-w, stageF), 1)
	}
	f.try(m.barrierT, m.barrierRef, 2)
	f.try(m.refillT, m.refillRef, 3)
	f.try(m.redirectT, m.redirectRef, 4)
	m.refillT, m.redirectT = 0, 0
	tf := f.t

	// --- Dispatch ---
	d := race{t: tf + 2}
	if n >= 1 {
		d.try(prev.d, 0, 1)
	}
	if n >= w {
		d.try(wide.d+1, 0, 2)
	}
	if m.robBack > 0 && n >= m.robBack {
		d.try(m.ring[(n-m.robBack)&(histSize-1)].c+1, 0, 3)
	}
	td := max(d.t, m.win.min)

	// --- Execute ---
	e := race{t: td + 1, src: logRef(n, stageD)}
	if cfg.InOrder && n >= 1 {
		e.try(prev.e, logRef(n-1, stageE), 1)
	}
	e.try(m.regT[di.src1], m.regRef[di.src1], 2)
	e.try(m.regT[di.src2], m.regRef[di.src2], 2)
	e.try(m.regT[di.acc], m.regRef[di.acc], 2)
	if di.flags&fLoad != 0 {
		if rec, ok := m.stores.Get(addr); ok && n-int(rec.age) < storeWindow {
			e.try(rec.val+2, rec.ref, 3)
		}
	}
	cls := executeTerms[e.k].class
	te := m.issueRT.Book(e.t)
	if te > e.t {
		cls = dg.EdgeWidth
	}
	if rt := m.rts[di.rt]; rt != nil {
		ready := te
		if di.busy == 0 {
			te = rt.Book(te)
		} else {
			te = rt.BookFor(te, int64(di.busy))
		}
		if te > ready {
			cls = dg.EdgeFU
			if di.flags&fMem != 0 {
				cls = dg.EdgeCachePort
			}
		}
	}

	// --- Complete, Commit ---
	lat := int64(di.lat)
	if lat == 0 {
		lat = max(int64(memLat), 1)
	}
	tp := te + lat
	c := race{t: tp + 1}
	if n >= 1 {
		c.try(prev.c, 0, 1)
	}
	if n >= w {
		c.try(wide.c+1, 0, 2)
	}
	tc := c.t

	m.log.recs = append(m.log.recs, logRec{
		dyn: dyn, fRef: f.src, eRef: e.src,
		dLat: int32(dispatchTerms[d.k].lat + td - d.t),
		eLat: int32(executeTerms[e.k].lat + te - e.t),
		pLat: int32(lat),
		win:  f.k | d.k<<3 | c.k<<5,
		eCls: uint8(cls)<<2 | e.k,
	})

	// Architectural state updates, as in step, with their positions.
	m.regT[di.dst], m.regRef[di.dst] = tp, logRef(n, stageP)
	if di.flags&fStore != 0 {
		m.stores.Set(addr, storeRec{val: te, age: int32(n), ref: logRef(n, stageE)})
		if m.stores.Len() > 2*storeWindow {
			m.stores.Keep(func(r storeRec) bool { return n-int(r.age) < storeWindow })
		}
	}
	if di.flags&fBranch != 0 && dflags&trace.FlagMispred != 0 {
		m.refillT, m.refillRef = te+int64(cfg.FrontendDepth), logRef(n, stageE)
	}
	if di.flags&fCtrl != 0 && dflags&trace.FlagTaken != 0 {
		m.redirectT, m.redirectRef = tf+1, logRef(n, stageF)
	}
	m.win.note(te)
	m.ring[n&(histSize-1)] = stageTimes{tf, td, te, tc}
	m.lastTP = tp
	m.n = n + 1
}

// back returns the critical step into log position p: the dynamic index
// of its uop, the step's edge class and latency, and the position the
// step leaves from.
func (m *GPP) back(p ref) (dyn int32, class dg.EdgeClass, lat int64, from ref) {
	i, stage := p.at()
	r := &m.log.recs[i]
	switch stage {
	case stageF:
		t := fetchTerms[r.win&7]
		if r.win&7 == 3 { // refill
			t.lat = int64(m.Cfg.FrontendDepth)
		}
		return r.dyn, t.class, t.lat, r.fRef
	case stageD:
		k := r.win >> 3 & 3
		class = dispatchTerms[k].class
		if int64(r.dLat) > dispatchTerms[k].lat {
			class = dg.EdgeWindow
		}
		from = [...]ref{logRef(i, stageF), logRef(i-1, stageD), logRef(i-m.Cfg.Width, stageD), logRef(i-m.robBack, stageC)}[k]
		return r.dyn, class, int64(r.dLat), from
	case stageE:
		return r.dyn, dg.EdgeClass(r.eCls >> 2), int64(r.eLat), r.eRef
	case stageP:
		return r.dyn, dg.EdgeExec, int64(r.pLat), logRef(i, stageE)
	}
	k := r.win >> 5
	from = [...]ref{logRef(i, stageP), logRef(i-1, stageC), logRef(i-m.Cfg.Width, stageC)}[k]
	return r.dyn, commitTerms[k].class, commitTerms[k].lat, from
}

// WalkCriticalPath walks the critical path ending at node from back to
// the origin, through transform nodes and the core's attribution log as
// one path, calling fn with each step's dynamic instruction index (-1 for
// synthetic events), edge class and latency. The latencies sum to from's
// time. It requires an attribution graph; zero-latency steps into anchors
// and barrier joins may differ from a node-built µDG's, nothing else.
func (m *GPP) WalkCriticalPath(from dg.NodeID, fn func(dyn int32, class dg.EdgeClass, lat int64)) {
	g := m.G
	visit := func(id dg.NodeID, class dg.EdgeClass, lat int64) { fn(g.DynIdx(id), class, lat) }
	p := ref(from)
	for {
		if p >= 0 {
			p = ref(g.WalkCriticalPath(dg.NodeID(p), visit))
		}
		if p >= -1 { // the origin, or a node without predecessor
			return
		}
		for p < -1 {
			dyn, class, lat, pred := m.back(p)
			fn(dyn, class, lat)
			p = pred
		}
	}
}
