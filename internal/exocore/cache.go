package exocore

import (
	"bytes"
	"encoding/binary"
	"hash/maphash"
	"math/bits"
	"strconv"
	"sync"
	"sync/atomic"

	"exocore/internal/cores"
	"exocore/internal/dg"
	"exocore/internal/energy"
	"exocore/internal/obs"
	"exocore/internal/tdg"
)

// ConfigCacheWays is the capacity of the engine-simulated per-BSA
// configuration LRU (paper §3.2: DP-CGRA keeps "a small configuration
// cache"; NS-DF and Trace-P behave likewise). The engine tracks residency
// centrally — see Run — so unit outcomes stay a pure function of their
// key.
const ConfigCacheWays = 8

// appendKey appends a unit's identity to b: the dynamic span and, per
// segment, the start offset, assigned loop, model name and configuration
// residency. The core and BSA set are fixed per Cache, so they are not
// part of the key. This one encoding keys the in-memory outcome shards,
// the cross-core shared pool and (after the cache's namespace) the
// durable store, so its bytes are a persisted contract:
//
//	uvarint(start) uvarint(end) uvarint(nsegs)
//	| per segment: uvarint(offset) uvarint(loop+1)
//	               uvarint(len(name)) name cfgRes
//
// General-core segments write loop 0 / empty name / residency 0 (their
// loop ID does not affect the outcome).
func appendKey(b []byte, u *unit) []byte {
	start := u.segs[0].Start
	b = binary.AppendUvarint(b, uint64(start))
	b = binary.AppendUvarint(b, uint64(u.segs[len(u.segs)-1].End))
	b = binary.AppendUvarint(b, uint64(len(u.segs)))
	for i, seg := range u.segs {
		b = binary.AppendUvarint(b, uint64(seg.Start-start))
		name := u.names[i]
		if name == "" {
			b = append(b, 0, 0, 0)
			continue
		}
		b = binary.AppendUvarint(b, uint64(seg.LoopID+1))
		b = binary.AppendUvarint(b, uint64(len(name)))
		b = append(b, name...)
		if u.cfgRes[i] {
			b = append(b, 1)
		} else {
			b = append(b, 0)
		}
	}
	return b
}

// unitOutcome is one evaluated unit, at per-segment granularity:
// durations and energy-event deltas in enc, critical-path latency by µDG
// edge class in classes. Composition re-derives the per-model and
// per-region attribution from these and the unit's segment→model
// mapping by pure summation, so an outcome is position-independent.
//
// enc is the outcome value the durable store persists (see
// appendOutcomeHeader), and all a Cache memoizes: a memoized unit is one
// record of its key and value in an arena and one index slot, no heap
// object of its own (see outcomeTable). classes is nil unless the unit
// was evaluated for an attributed run (RunOpts.RecordRegions), which
// memoizes nothing.
type unitOutcome struct {
	enc     []byte
	classes [][dg.NumEdgeClasses]int64
}

// CacheStats is a point-in-time snapshot of a Cache's counters.
type CacheStats struct {
	// Hits and Misses count unit-outcome lookups.
	Hits   int64 `json:"segment_hits"`
	Misses int64 `json:"segment_misses"`
	// BytesReused accumulates the arena bytes (graph nodes + resource-table
	// rings) served from the worker pool instead of freshly allocated.
	BytesReused int64 `json:"bytes_reused"`
	// Entries counts distinct unit outcomes memoized.
	Entries int64 `json:"entries"`
	// SharedHits counts unit outcomes served from the cross-core shared
	// pool: offload solo units whose evaluation retired no core µops are
	// core-independent, so one core's evaluation serves all four.
	SharedHits int64 `json:"shared_hits"`
	// ResidentBytes counts each memo entry's key and outcome value bytes.
	// It leaves out what holding them costs: the arena's record headers
	// and unfilled chunk tails and the index slots. An entry that refers
	// to a record of the cross-core pool counts that record's key and
	// value in each cache that refers to it, though the pool holds them
	// once.
	ResidentBytes int64 `json:"resident_bytes"`
}

// cacheShards bounds lock contention on the memo.
const cacheShards = 16

// An outcomeTable holds outcome values by unit key: a Cache's memo, or a
// TDG's cross-core shared pool. Its keys and values sit back to back in
// an append-only arena, and each of its shards indexes them with a
// pointer-free open-addressed table, so a held unit costs no Go object
// of its own, and the collector scans none of it. The first writer of a
// key wins: outcomes are deterministic, so either copy is correct.
//
// get and put take the key's hash h, computed once per lookup by the
// caller; hash recomputes it when a shard's index grows and must agree
// with what callers pass. A memo's entry may refer to a record of its
// pool instead of holding a copy (poolRef); a pool refers to nothing
// else, so the TDG that holds a pool never pins a cache's arena.
type outcomeTable struct {
	hash   func(key []byte) uint64
	arena  arena
	shards [cacheShards]outcomeShard
	pool   *outcomeTable // resolves poolRef entries; nil for a pool
}

// An outcomeShard indexes a share of a table's records: a linear-probe
// table of slots, 0 for empty, each holding occupied | the hash's tag |
// the record's ref. It starts at minSlots on its first entry and doubles
// at 3/4 load.
type outcomeShard struct {
	mu    sync.RWMutex
	slots []uint64
	n     int
}

const minSlots = 16

// A ref locates a record: its chunk in the arena above offBits and its
// offset in the chunk below. poolRef marks a record in the memo's pool.
// chunkBits reaches every chunk a process can hold: an arena's chunks
// double from firstChunk, so all but its first growSteps are at least
// chunkSize bytes, and Go's heap spans at most 2^48, so fewer than
// 2^34 + growSteps chunks exist; arena.add panics rather than let a ref
// wrap.
const (
	offBits   = 14
	chunkBits = 35
	poolRef   = 1 << (offBits + chunkBits)
	refMask   = poolRef<<1 - 1
	tagShift  = offBits + chunkBits + 1
	occupied  = 1 << 63
)

// slotOf packs an occupied slot: the top 13 bits of h, as a tag that
// spares most probes a key comparison, and ref.
func slotOf(h, ref uint64) uint64 {
	return occupied | h>>(tagShift+1)<<tagShift | ref
}

// record resolves ref to its key and value.
func (t *outcomeTable) record(ref uint64) (key, val []byte) {
	if ref&poolRef != 0 {
		return t.pool.arena.record(ref &^ poolRef)
	}
	return t.arena.record(ref)
}

// find probes s for key. It returns the slot index of key's entry and
// its value, or ok false and the empty slot that ends the probe.
func (s *outcomeShard) find(t *outcomeTable, h uint64, key []byte) (i uint64, val []byte, ok bool) {
	mask := uint64(len(s.slots) - 1)
	tag := slotOf(h, 0)
	for i = h / cacheShards & mask; ; i = (i + 1) & mask {
		v := s.slots[i]
		if v == 0 {
			return i, nil, false
		}
		if v&^refMask == tag {
			if k, val := t.record(v & refMask); bytes.Equal(k, key) {
				return i, val, true
			}
		}
	}
}

// get returns the value held under key and its ref.
func (t *outcomeTable) get(h uint64, key []byte) (val []byte, ref uint64, ok bool) {
	s := &t.shards[h%cacheShards]
	s.mu.RLock()
	if s.n > 0 {
		var i uint64
		if i, val, ok = s.find(t, h, key); ok {
			ref = s.slots[i] & refMask
		}
	}
	s.mu.RUnlock()
	return val, ref, ok
}

// put holds val under key unless key is held already, and returns the
// value the table now holds, its ref and whether the entry is new. A
// ref with poolRef set is a record of t's pool, which the entry refers
// to instead of copying val; any other ref is ignored and val is copied
// into t's arena. Values it returns are valid for t's life.
func (t *outcomeTable) put(h uint64, key, val []byte, ref uint64) ([]byte, uint64, bool) {
	s := &t.shards[h%cacheShards]
	s.mu.Lock()
	defer s.mu.Unlock()
	var i uint64
	if s.n > 0 {
		var held []byte
		var ok bool
		if i, held, ok = s.find(t, h, key); ok {
			return held, s.slots[i] & refMask, false
		}
	}
	if (s.n+1)*4 > len(s.slots)*3 {
		s.grow(t)
		i = s.vacant(h)
	}
	if ref&poolRef == 0 {
		ref = t.arena.add(key, val)
	}
	s.slots[i] = slotOf(h, ref)
	s.n++
	_, held := t.record(ref)
	return held, ref, true
}

// grow doubles s's index (or makes its first), rehashing every entry.
func (s *outcomeShard) grow(t *outcomeTable) {
	old := s.slots
	s.slots = make([]uint64, max(2*len(old), minSlots))
	for _, v := range old {
		if v != 0 {
			k, _ := t.record(v & refMask)
			h := t.hash(k)
			s.slots[s.vacant(h)] = slotOf(h, v&refMask)
		}
	}
}

// vacant returns the first empty slot of h's probe sequence.
func (s *outcomeShard) vacant(h uint64) uint64 {
	mask := uint64(len(s.slots) - 1)
	i := h / cacheShards & mask
	for s.slots[i] != 0 {
		i = (i + 1) & mask
	}
	return i
}

// An arena's first chunk holds firstChunk bytes, and each new chunk
// doubles the size of the next until it reaches chunkSize, so a table
// that memoizes a handful of units holds a few hundred bytes, not a
// whole chunkSize. A record larger than the chunk size in effect gets a
// chunk of its own.
const (
	chunkSize  = 1 << offBits
	growSteps  = 6 // chunks smaller than chunkSize, at most
	firstChunk = chunkSize >> growSteps
)

// An arena is an append-only store of records, each uvarint(len(key))
// uvarint(len(val)) key val, in chunks that never move and records that
// are never rewritten, so a value handed out stays valid for the
// arena's life. Appends take mu; readers resolve refs through dir, the
// chunk list as last published.
type arena struct {
	mu     sync.Mutex
	chunks [][]byte
	dir    atomic.Pointer[[][]byte]
	cur    int // 1 + the chunk records are appended to; 0 before the first
	fill   int // bytes of cur in use
	next   int // the size of the next chunk; 0 before the first
}

// add appends a record of key and val and returns its ref.
func (a *arena) add(key, val []byte) uint64 {
	n := uvarintLen(len(key)) + uvarintLen(len(val)) + len(key) + len(val)
	a.mu.Lock()
	defer a.mu.Unlock()
	var c, off int
	if a.cur != 0 && a.fill+n <= len(a.chunks[a.cur-1]) {
		c, off = a.cur-1, a.fill
		a.fill += n
	} else {
		size := max(a.next, firstChunk)
		a.next = min(2*size, chunkSize)
		if n > size {
			c = a.newChunk(n)
		} else {
			c = a.newChunk(size)
			a.cur, a.fill = c+1, n
		}
	}
	if uint64(c) >= 1<<chunkBits {
		panic("exocore: memo arena outgrew its record references")
	}
	b := binary.AppendUvarint(a.chunks[c][off:off], uint64(len(key)))
	b = binary.AppendUvarint(b, uint64(len(val)))
	b = append(b, key...)
	_ = append(b, val...)
	return uint64(c)<<offBits | uint64(off)
}

// newChunk appends a chunk of size bytes, publishes the chunk list and
// returns the chunk's index.
func (a *arena) newChunk(size int) int {
	a.chunks = append(a.chunks, make([]byte, size))
	dir := a.chunks
	a.dir.Store(&dir)
	return len(a.chunks) - 1
}

// record resolves a ref of a's to its key and value, both capped at
// their length.
func (a *arena) record(ref uint64) (key, val []byte) {
	p := (*a.dir.Load())[ref>>offBits][ref&(chunkSize-1):]
	kl, n := binary.Uvarint(p)
	p = p[n:]
	vl, n := binary.Uvarint(p)
	p = p[n:]
	return p[:kl:kl], p[kl : kl+vl : kl+vl]
}

func uvarintLen(n int) int {
	return (bits.Len64(uint64(n)|1) + 6) / 7
}

// keyHash hashes unit keys for the memo and the shared pools.
func keyHash(key []byte) uint64 { return maphash.Bytes(keySeed, key) }

var keySeed = maphash.MakeSeed()

// Cache memoizes evaluation-unit outcomes for one evaluation context — a
// fixed (benchmark TDG, core config, BSA set, plans) tuple, the
// granularity at which sched.Context creates it — and counts the arena
// bytes its Runs reuse from the per-config worker pool. NewCache takes the
// context's TDG and attaches that TDG's cross-core shared pool; the caller
// keeps the core config, BSA set and plans fixed. Safe for concurrent Run
// calls.
//
// Correctness rests on the drained-boundary model (see the package
// comment): a unit's outcome depends only on its key (appendKey), never
// on its position in the composition. BSA models must therefore be pure
// functions of (core config, region plan, span, Ctx.ConfigResident): a
// model that carried other state from one unit to the next could not be
// cached.
type Cache struct {
	// memo holds the outcomes; memo.pool is the cross-core outcome pool
	// for this cache's TDG.
	memo outcomeTable

	// persist is the optional durable tier under this cache (see
	// AttachPersist): misses consult it before evaluating and fresh
	// outcomes are written through, so a restarted process re-reads
	// instead of re-deriving. persistNS prefixes its keys, scoping them
	// to this cache's (trace, core, BSA set) tuple.
	persist   Persist
	persistNS string

	// Counters are obs instruments so a cache slots into the shared
	// metrics registry; standalone (unregistered) instances keep the
	// cache usable without one.
	hits, misses, reused, entries, sharedHits, resident *obs.Counter
}

// NewCache creates a unit-outcome cache for one evaluation context over
// t, attached to t's cross-core shared pool.
//
// The pool holds the core-independent outcomes of t, keyed like the
// per-core caches (appendKey names no core). Offload models (NS-DF,
// Trace-P) evaluate solo units, and usually never touch the host
// pipeline — NS-DF builds a pure dataflow schedule; Trace-P replays on
// the core only after a misspeculation. When an evaluation retires zero
// core µops, its outcome is a pure function of (span, loop, model,
// residency): the GPP starts every unit from the same drained state on
// every core config, so the result is byte-identical across the four
// cores and one evaluation can serve all of them. Units that DID execute
// core µops are never published, so a hit is always exact. The first
// cache built on t makes the pool and leaves it in t's pool slot
// (tdg.TDG.Pool), so it lives as long as t and no process-wide registry
// refers to it.
func NewCache(t *tdg.TDG) *Cache {
	return &Cache{
		memo: outcomeTable{hash: keyHash, pool: t.Pool(newPool).(*outcomeTable)},
		hits: obs.NewCounter(), misses: obs.NewCounter(),
		reused: obs.NewCounter(), entries: obs.NewCounter(),
		sharedHits: obs.NewCounter(), resident: obs.NewCounter(),
	}
}

// newPool makes a TDG's cross-core shared pool (see NewCache).
func newPool() any { return &outcomeTable{hash: keyHash} }

// Stats snapshots the cache counters.
func (c *Cache) Stats() CacheStats {
	return CacheStats{
		Hits:          c.hits.Value(),
		Misses:        c.misses.Value(),
		BytesReused:   c.reused.Value(),
		Entries:       c.entries.Value(),
		SharedHits:    c.sharedHits.Value(),
		ResidentBytes: c.resident.Value(),
	}
}

// lookup returns the memoized outcome value for a key of hash h; ok is
// false on a miss.
func (c *Cache) lookup(h uint64, key []byte) (enc []byte, ok bool) {
	enc, _, ok = c.memo.get(h, key)
	if ok {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
	}
	return enc, ok
}

// store memoizes an outcome value — a copy of enc, or the pool record
// ref — and returns the value the cache now holds: a value another
// goroutine stored for the same key first wins. Entries counts new keys
// only.
func (c *Cache) store(h uint64, key, enc []byte, ref uint64) []byte {
	held, _, added := c.memo.put(h, key, enc, ref)
	if added {
		c.entries.Add(1)
		c.resident.Add(int64(len(key) + len(held)))
	}
	return held
}

// A freeList keeps up to maxPooledWorkers idle values for reuse. Unlike
// a sync.Pool — whose contents are evicted on every GC cycle, which
// re-allocated the resource-table rings dozens of times per sweep — it
// keeps them alive for the process lifetime.
type freeList[T any] struct {
	mu   sync.Mutex
	free []*T
}

const maxPooledWorkers = 8

// get takes a value off the list, or returns nil if it is empty.
func (l *freeList[T]) get() *T {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := len(l.free)
	if n == 0 {
		return nil
	}
	x := l.free[n-1]
	l.free[n-1] = nil
	l.free = l.free[:n-1]
	return x
}

// put returns x to the list, dropping it if the list is full.
func (l *freeList[T]) put(x *T) {
	l.mu.Lock()
	if len(l.free) < maxPooledWorkers {
		l.free = append(l.free, x)
	}
	l.mu.Unlock()
}

// workerPools holds the idle evaluation workers, one free list per core
// config.
var (
	workerPoolsMu sync.Mutex
	workerPools   = map[cores.Config]*freeList[segWorker]{}
)

func poolFor(core cores.Config) *freeList[segWorker] {
	workerPoolsMu.Lock()
	defer workerPoolsMu.Unlock()
	p := workerPools[core]
	if p == nil {
		p = &freeList[segWorker]{}
		workerPools[core] = p
	}
	return p
}

// acquireWorker returns a pooled worker for the core config (reporting
// the arena bytes reuse saved via reused, which may be nil), or builds a
// fresh one.
func acquireWorker(core cores.Config, reused *obs.Counter) *segWorker {
	if w := poolFor(core).get(); w != nil {
		reused.Add(w.memBytes())
		return w
	}
	return newSegWorker(core)
}

// releaseWorker returns a worker to its config's free list.
func releaseWorker(core cores.Config, w *segWorker) { poolFor(core).put(w) }

// An attribution is what an attributed Run evaluates its units on beyond
// a worker: an attribution graph, whose streams hold a whole unit's
// transform nodes, and the general core's attribution log, a record per
// µop of the unit. Both grow to the largest unit they serve, so a Run
// borrows them from one process-wide free list, whatever its core
// config, and gives them back when it ends: the pooled workers stay
// lean, and a process keeps at most maxPooledWorkers attributions, not
// one per pooled worker. An attribution refers to no TDG and no worker.
type attribution struct {
	g   *dg.Graph
	log cores.AttribLog
}

var attributions freeList[attribution]

// acquireAttribution returns a pooled attribution, or a fresh one.
func acquireAttribution() *attribution {
	if a := attributions.get(); a != nil {
		return a
	}
	return &attribution{g: dg.NewGraph()}
}

// segWorker bundles the reusable arenas one lean unit evaluation needs: a
// lean µDG for the transforms' nodes and a GPP constructor (whose five
// resource-table rings dominated the old per-Run allocation cost), plus
// the Run's key buffer and the outcome value under construction. Reset
// between units, pooled between runs. An attributed Run lends its worker
// an attribution for the Run's units (see attribution) and resets the
// GPP back onto the worker's own graph when it ends, so a pooled worker
// holds neither attribution arrays nor, since ctx is cleared after each
// transform, anything of the TDGs it evaluated.
type segWorker struct {
	g      *dg.Graph
	gpp    *cores.GPP
	counts energy.Counts
	ctx    tdg.Ctx // the transform in flight's context; zero between transforms
	key    []byte  // persist namespace + unit key (appendKey)
	enc    []byte  // the last evaluated unit's outcome value
}

func newSegWorker(core cores.Config) *segWorker {
	g := dg.NewLeanGraph()
	w := &segWorker{g: g}
	w.gpp = cores.NewGPP(core, g, &w.counts)
	return w
}

// reset prepares the worker for one unit evaluation from a drained
// boundary, keeping all allocations: on its own lean graph (time-only,
// retired segment by segment — sweeps never walk critical paths, so they
// skip the log and two thirds of the transforms' per-node write traffic),
// or, given an attribution, on its graph with the core logging into its
// log, for a unit whose critical path will be walked.
func (w *segWorker) reset(a *attribution) {
	g := w.g
	if a != nil {
		g = a.g
		w.gpp.LogInto(&a.log)
	}
	g.Reset()
	w.counts = energy.Counts{}
	w.gpp.Reset(g, &w.counts)
}

// giveBack ends an attributed Run's loan of a: it resets the GPP onto
// w's own graph, dropping the GPP's references to a's graph and log, and
// returns a to the free list.
func (w *segWorker) giveBack(a *attribution) {
	w.gpp.Reset(w.g, &w.counts)
	attributions.put(a)
}

// memBytes is the arena memory reusing this worker saves.
func (w *segWorker) memBytes() int64 { return w.g.MemBytes() + w.gpp.MemBytes() }

// evalUnit evaluates one unit in isolation, starting from a drained
// pipeline at relative cycle 0, and returns its per-segment durations,
// energy deltas and critical-path class attribution. Inside the unit,
// segments share the worker's graph and GPP exactly as the original
// monolithic engine did, preserving frontend/window overlap across
// core-resident joints. This is the single evaluation path for both
// cached and uncached runs, so they agree bit-for-bit by construction.
// sp, when active, receives one child span per model transform.
// An attribution a enables the critical-path class attribution, on a's
// graph and log; durations and energy deltas are identical either way.
// Without one the graph is the worker's lean one, and each segment's
// nodes are retired when the segment ends, so the resident µDG never
// outgrows one segment.
// The outcome's enc is the worker's scratch, valid until its next
// evaluation: a caller that keeps it copies it.
func evalUnit(w *segWorker, t *tdg.TDG, bsas map[string]tdg.BSA,
	plans map[string]*tdg.Plan, u unit, sp obs.Span, a *attribution) unitOutcome {

	w.reset(a)
	g := w.gpp.G
	var out unitOutcome
	if a != nil {
		out.classes = make([][dg.NumEdgeClasses]int64, len(u.segs))
	}
	b := appendOutcomeHeader(w.enc[:0], len(u.segs))
	var lastEnd int64
	var snapshot energy.Counts
	// walkFrom tracks the node carrying the unit's critical end time,
	// for the per-class path attribution below.
	walkFrom := dg.None
	var walkTime int64 = -1
	for i, seg := range u.segs {
		name := u.names[i]
		var endNode dg.NodeID = dg.None
		if name != "" {
			tsp := obs.Span{}
			if sp.Active() {
				tsp = sp.Child("transform", name+"@L"+strconv.Itoa(seg.LoopID)).
					ArgInt("start", int64(seg.Start)).
					ArgInt("end", int64(seg.End)).
					Arg("config_resident", strconv.FormatBool(u.cfgRes[i]))
			}
			w.ctx = tdg.Ctx{
				TDG: t, G: g, GPP: w.gpp, Counts: &w.counts,
				ConfigResident: u.cfgRes[i], Span: tsp,
			}
			endNode = bsas[name].TransformRegion(&w.ctx, plans[name].Region(seg.LoopID), seg.Start, seg.End)
			w.ctx = tdg.Ctx{} // a pooled worker keeps nothing of the TDG
			tsp.End()
		} else {
			w.gpp.ExecTrace(t.Decoded(), t.Trace.Insts[seg.Start:seg.End], seg.Start)
		}
		w.gpp.Fold()
		end := w.gpp.EndTime()
		if endNode != dg.None && g.Time(endNode) > end {
			end = g.Time(endNode)
		}
		if endNode != dg.None && g.Time(endNode) > walkTime {
			walkFrom, walkTime = endNode, g.Time(endNode)
		}
		if end < lastEnd {
			end = lastEnd
		}
		// The segment's nodes are dead once its end is read (a lean core
		// holds none between segments).
		w.gpp.CompactWindow()
		delta := diffCounts(&w.counts, &snapshot)
		b = appendSegment(b, end-lastEnd, &delta)
		snapshot = w.counts
		lastEnd = end
	}
	w.enc = b
	out.enc = b
	if a != nil {
		if c := w.gpp.LastCommit(); c != dg.None && g.Time(c) >= walkTime {
			walkFrom = c
		}
		out.attributePath(w.gpp, u.segs, walkFrom)
	}
	return out
}

// attributePath walks the unit's critical path once — through the
// transforms' nodes and the general core's attribution log alike — and
// buckets each step's latency by (segment of the step's instruction, edge
// class): the µDG-grounded "where did this unit's cycles go" attribution
// behind the per-region table. Synthetic events (dynIdx -1, eg.
// accelerator boundary events) attribute to the segment of the nearest
// following instruction on the path.
func (o *unitOutcome) attributePath(gpp *cores.GPP, segs []Segment, from dg.NodeID) {
	if from == dg.None || len(segs) == 0 {
		return
	}
	cur := len(segs) - 1
	gpp.WalkCriticalPath(from, func(dyn int32, class dg.EdgeClass, lat int64) {
		if dyn >= 0 {
			cur = segOfDyn(segs, int(dyn), cur)
		}
		o.classes[cur][class] += lat
	})
}

// segOfDyn locates the segment containing dynamic index dyn. hint is the
// previous answer — the path walk is nearly monotonic, so the hit rate
// is high; misses fall back to binary search over the (sorted, adjacent)
// segments.
func segOfDyn(segs []Segment, dyn, hint int) int {
	if dyn >= segs[hint].Start && dyn < segs[hint].End {
		return hint
	}
	lo, hi := 0, len(segs)-1
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if dyn >= segs[mid].End {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

func diffCounts(now, before *energy.Counts) energy.Counts {
	var d energy.Counts
	for i := range now {
		d[i] = now[i] - before[i]
	}
	return d
}
