package exocore

import (
	"strconv"
	"sync"

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

// unitKey identifies one evaluation-unit outcome under the
// drained-boundary model: the dynamic span plus an interned structural
// signature covering the unit's internal segmentation — each segment's
// start offset, model and configuration residency (see Cache.sigOf). The
// core and BSA set are fixed per Cache, so they are not part of the key.
type unitKey struct {
	start, end int32
	sig        uint64
}

// Segment descriptors pack one segment's identity into a uint64 for key
// interning: offset<<20 | (loop+1)<<6 | nameIdx<<1 | cfgResident. A
// general-core segment at offset 0 is descriptor 0, so the single-segment
// pure-GPP unit — the overwhelmingly common case — gets sig 0 without
// touching the intern table.
const (
	descOffsetShift = 20
	descLoopShift   = 6
	descNameShift   = 1
	// sigMulti tags signatures produced by the intern trie, keeping them
	// disjoint from raw single-segment descriptors (whose offset is 0 and
	// which therefore fit in the low 20 bits).
	sigMulti = uint64(1) << 63
)

// unitOutcome is the memoized result of evaluating one unit from a
// drained boundary, entirely at per-segment granularity: durations,
// energy-event deltas, and critical-path latency by µDG edge class. The
// unit's per-model attribution is re-derived at composition time from
// these plus the unit's segment→model mapping, so one cached outcome
// serves plain totals, the Figure 14 timeline, and the per-region
// attribution table alike. Composition is pure summation, so a cached
// outcome is position-independent.
//
// segClasses is nil unless the unit was evaluated with class
// attribution (RunOpts.RecordRegions): the critical-path walk is pure
// overhead for scheduling sweeps, so it is computed on demand and the
// class-attributed outcome replaces the cached one (see Cache.store).
type unitOutcome struct {
	segDurs    []int64
	segCounts  []energy.Counts
	segClasses [][dg.NumEdgeClasses]int64

	// Published prefix outcomes avoid copying: segDurs/segCounts alias
	// the publishing evaluation's arrays for all but the final (possibly
	// truncated) segment, whose values sit inline below. Those parent
	// elements are final when the prefix is published (evaluation writes
	// each segment's slot exactly once, in order), so the alias is
	// immutable. nsegs is len(segDurs)+1 for a prefix, 0 otherwise;
	// consumers go through n/dur/counts instead of the raw slices.
	nsegs      int
	lastDur    int64
	lastCounts energy.Counts
}

// n returns the outcome's segment count.
func (o *unitOutcome) n() int {
	if o.nsegs != 0 {
		return o.nsegs
	}
	return len(o.segDurs)
}

// dur returns segment i's duration.
func (o *unitOutcome) dur(i int) int64 {
	if o.nsegs != 0 && i == o.nsegs-1 {
		return o.lastDur
	}
	return o.segDurs[i]
}

// counts returns segment i's energy-event deltas.
func (o *unitOutcome) counts(i int) *energy.Counts {
	if o.nsegs != 0 && i == o.nsegs-1 {
		return &o.lastCounts
	}
	return &o.segCounts[i]
}

// CacheStats is a point-in-time snapshot of a Cache's counters.
type CacheStats struct {
	// Hits and Misses count unit-outcome lookups.
	Hits   int64 `json:"segment_hits"`
	Misses int64 `json:"segment_misses"`
	// BytesReused accumulates the arena bytes (graph nodes + resource-table
	// rings) served from the worker pool instead of freshly allocated.
	BytesReused int64 `json:"bytes_reused"`
	// Entries counts distinct unit outcomes memoized on demand (misses
	// evaluated and stored).
	Entries int64 `json:"entries"`
	// PrefixEntries counts outcomes published speculatively at cut
	// boundaries while evaluating a longer unit — the delta-evaluation
	// mechanism that lets later assignments reuse baseline work.
	PrefixEntries int64 `json:"prefix_entries"`
	// InternedSigs counts distinct multi-segment signatures in the
	// intern table (single-segment units encode inline and never intern).
	InternedSigs int64 `json:"interned_sigs"`
	// SharedHits counts unit outcomes served from the cross-core shared
	// pool: offload solo units whose evaluation retired no core µops are
	// core-independent, so one core's evaluation serves all four.
	SharedHits int64 `json:"shared_hits"`
}

// cacheShards bounds lock contention on the outcome map; a typed sharded
// map also avoids sync.Map's per-Load key boxing on struct keys.
const cacheShards = 16

type outcomeShard struct {
	mu sync.RWMutex
	m  map[unitKey]*unitOutcome
}

// Cache memoizes evaluation-unit outcomes for one evaluation context — a
// fixed (benchmark TDG, core config, BSA set, plans) tuple, the
// granularity at which sched.Context creates it — and pools the graph/GPP
// arenas unit evaluation consumes. Safe for concurrent Run calls.
//
// Correctness rests on the drained-boundary model (see the package
// comment): a unit's outcome depends only on its unitKey, never on its
// position in the composition. BSA models must therefore be pure
// functions of (core config, region plan, span, Ctx.ConfigResident);
// models carrying other cross-unit state through Ctx.State must not be
// cached.
type Cache struct {
	core cores.Config

	shards [cacheShards]outcomeShard

	// Name interning: BSA name → small index for descriptor packing.
	// Lazily grown; only consistency within this Cache matters.
	nameMu  sync.RWMutex
	nameIdx map[string]uint64

	// Signature interning: a trie over segment descriptors. A unit's
	// multi-segment signature is the trie node reached by walking its
	// descriptors from the root — exact (no hashing), and prefix
	// signatures are the walk's intermediate nodes, which the publisher
	// gets for free.
	sigMu  sync.RWMutex
	sigs   map[sigEdge]uint32
	sigSeq uint32

	// compOnce guards lazy construction of the delta composer for this
	// cache's (TDG, bsas, plans) tuple.
	compOnce sync.Once
	comp     *composer

	// shared is the cross-core outcome pool for this cache's TDG,
	// attached alongside the composer; nil until composerFor runs.
	shared *sharedPool

	// persist is the optional durable tier under this cache (see
	// AttachPersist): misses consult it before evaluating and fresh
	// outcomes are written through, so a restarted process re-reads
	// instead of re-deriving. persistNS scopes its keys to this cache's
	// (trace, core, BSA set) tuple.
	persist   Persist
	persistNS string

	// Counters are obs instruments so a cache slots into the shared
	// metrics registry; standalone (unregistered) instances keep the
	// cache usable without one.
	hits, misses, reused, entries, prefixes, sharedHits *obs.Counter
}

// sigEdge is one trie edge: (parent node, segment descriptor).
type sigEdge struct {
	parent uint32
	desc   uint64
}

// NewCache creates a unit-outcome cache for one core config.
func NewCache(core cores.Config) *Cache {
	c := &Cache{
		core:    core,
		nameIdx: make(map[string]uint64, 4),
		sigs:    make(map[sigEdge]uint32),
		hits:    obs.NewCounter(), misses: obs.NewCounter(),
		reused: obs.NewCounter(), entries: obs.NewCounter(),
		prefixes: obs.NewCounter(), sharedHits: obs.NewCounter(),
	}
	for i := range c.shards {
		c.shards[i].m = make(map[unitKey]*unitOutcome)
	}
	return c
}

// Stats snapshots the cache counters.
func (c *Cache) Stats() CacheStats {
	c.sigMu.RLock()
	interned := int64(c.sigSeq)
	c.sigMu.RUnlock()
	return CacheStats{
		Hits:          c.hits.Value(),
		Misses:        c.misses.Value(),
		BytesReused:   c.reused.Value(),
		Entries:       c.entries.Value(),
		PrefixEntries: c.prefixes.Value(),
		InternedSigs:  interned,
		SharedHits:    c.sharedHits.Value(),
	}
}

// composerFor returns the cache's delta composer, building it on first
// use. The cache is documented to serve exactly one (TDG, bsas, plans)
// tuple, so the first caller's arguments define it.
func (c *Cache) composerFor(t *tdg.TDG, bsas map[string]tdg.BSA, plans map[string]*tdg.Plan) *composer {
	c.compOnce.Do(func() {
		c.comp = newComposer(t, bsas, plans)
		c.shared = sharedPoolFor(t)
	})
	return c.comp
}

// nameIndexOf interns a BSA name to a small descriptor index (1-based;
// 0 is the general core).
func (c *Cache) nameIndexOf(name string) uint64 {
	c.nameMu.RLock()
	id, ok := c.nameIdx[name]
	c.nameMu.RUnlock()
	if ok {
		return id
	}
	c.nameMu.Lock()
	defer c.nameMu.Unlock()
	if id, ok = c.nameIdx[name]; ok {
		return id
	}
	id = uint64(len(c.nameIdx)) + 1
	c.nameIdx[name] = id
	return id
}

// descOf packs one segment of a unit into its interning descriptor.
func (c *Cache) descOf(u *unit, i int, unitStart int) uint64 {
	var d uint64
	if name := u.names[i]; name != "" {
		d = uint64(u.segs[i].LoopID+1)<<descLoopShift | c.nameIndexOf(name)<<descNameShift
		if u.cfgRes[i] {
			d |= 1
		}
	}
	return d | uint64(u.segs[i].Start-unitStart)<<descOffsetShift
}

// sigNode returns (interning if new) the trie node for edge (parent,
// desc).
func (c *Cache) sigNode(parent uint32, desc uint64) uint32 {
	e := sigEdge{parent, desc}
	c.sigMu.RLock()
	id, ok := c.sigs[e]
	c.sigMu.RUnlock()
	if ok {
		return id
	}
	c.sigMu.Lock()
	defer c.sigMu.Unlock()
	if id, ok = c.sigs[e]; ok {
		return id
	}
	c.sigSeq++
	id = c.sigSeq
	c.sigs[e] = id
	return id
}

// sigOfDescs folds a descriptor sequence into a signature: the raw
// descriptor for single-segment units (no interning, no locks — the
// common case), a tagged trie node otherwise.
func (c *Cache) sigOfDescs(descs []uint64) uint64 {
	if len(descs) == 1 {
		return descs[0]
	}
	node := uint32(0)
	for _, d := range descs {
		node = c.sigNode(node, d)
	}
	return sigMulti | uint64(node)
}

// keyOf computes the interned cache key of a unit, appending the unit's
// segment descriptors to descScratch (returned for reuse).
func (c *Cache) keyOf(u *unit, descScratch []uint64) (unitKey, []uint64) {
	start := u.segs[0].Start
	end := u.segs[len(u.segs)-1].End
	descs := descScratch[:0]
	for i := range u.segs {
		descs = append(descs, c.descOf(u, i, start))
	}
	return unitKey{int32(start), int32(end), c.sigOfDescs(descs)}, descs
}

func (c *Cache) shardOf(k unitKey) *outcomeShard {
	h := uint64(uint32(k.start))*0x9E3779B1 ^ uint64(uint32(k.end))*0x85EBCA77 ^ k.sig*0xC2B2AE3D
	h ^= h >> 29
	return &c.shards[h&(cacheShards-1)]
}

// lookup returns the memoized outcome for a key, or nil on miss.
func (c *Cache) lookup(k unitKey) *unitOutcome {
	s := c.shardOf(k)
	s.mu.RLock()
	o := s.m[k]
	s.mu.RUnlock()
	if o != nil {
		c.hits.Add(1)
		return o
	}
	c.misses.Add(1)
	return nil
}

// store memoizes an outcome and returns the entry the cache now holds.
// An entry another goroutine stored for the same key first wins
// (outcomes are deterministic, so either copy is correct) unless it
// lacks the class attribution o carries: then o replaces it, so a
// class-attributed Run always gets classes back however its store
// raced with a sweep, a candidate solo or a prefix publication.
// Entries counts new keys only.
func (c *Cache) store(k unitKey, o *unitOutcome) *unitOutcome {
	s := c.shardOf(k)
	s.mu.Lock()
	prev := s.m[k]
	if prev != nil && (prev.segClasses != nil || o.segClasses == nil) {
		s.mu.Unlock()
		return prev
	}
	s.m[k] = o
	s.mu.Unlock()
	if prev == nil {
		c.entries.Add(1)
	}
	return o
}

// storePrefix memoizes a published prefix outcome; existing entries win
// (they are identical by construction).
func (c *Cache) storePrefix(k unitKey, o *unitOutcome) {
	s := c.shardOf(k)
	s.mu.Lock()
	if s.m[k] != nil {
		s.mu.Unlock()
		return
	}
	s.m[k] = o
	s.mu.Unlock()
	c.prefixes.Add(1)
}

// sharedKey identifies one offload solo unit across per-core caches: the
// dynamic span, assigned loop, model and configuration residency. The
// core config is deliberately absent — entries are published only when
// the evaluation proved itself core-independent (see Run's purity gate).
type sharedKey struct {
	start, end int32
	loop       int32
	cfgRes     bool
	name       string
}

// sharedPool is a cross-core pool of core-independent unit outcomes for
// one TDG. Offload models (NS-DF, Trace-P) evaluate solo units, and
// usually never touch the host pipeline — NS-DF builds a pure dataflow
// schedule; Trace-P replays on the core only after a misspeculation.
// When an evaluation retires zero core µops, its outcome is a pure
// function of (span, loop, model, residency): the GPP starts every unit
// from the same drained state on every core config, so the result is
// byte-identical across the four cores and one evaluation can serve all
// of them. Units that DID execute core µops are never published, so a
// hit is always exact.
type sharedPool struct {
	mu sync.RWMutex
	m  map[sharedKey]*unitOutcome
}

func (p *sharedPool) lookup(k sharedKey) *unitOutcome {
	p.mu.RLock()
	o := p.m[k]
	p.mu.RUnlock()
	return o
}

// store publishes an outcome; existing entries win (they are identical
// by the purity argument above).
func (p *sharedPool) store(k sharedKey, o *unitOutcome) {
	p.mu.Lock()
	if p.m[k] == nil {
		p.m[k] = o
	}
	p.mu.Unlock()
}

// sharedPools maps each live TDG to its cross-core pool. Keying by TDG
// pointer scopes entries to one benchmark trace; the registry is cleared
// wholesale if it ever exceeds maxSharedPools distinct TDGs, bounding
// memory for long-lived processes that churn traces.
var (
	sharedPoolsMu sync.Mutex
	sharedPools   = map[*tdg.TDG]*sharedPool{}
)

const maxSharedPools = 32

func sharedPoolFor(t *tdg.TDG) *sharedPool {
	sharedPoolsMu.Lock()
	defer sharedPoolsMu.Unlock()
	p := sharedPools[t]
	if p == nil {
		if len(sharedPools) >= maxSharedPools {
			clear(sharedPools)
		}
		p = &sharedPool{m: make(map[sharedKey]*unitOutcome)}
		sharedPools[t] = p
	}
	return p
}

// workerPool is a process-wide free list of evaluation workers, one per
// core config. Unlike a sync.Pool — whose contents are evicted on every
// GC cycle, which re-allocated the resource-table rings dozens of times
// per sweep — the free list keeps arenas alive for the process lifetime,
// bounded by maxPooledWorkers per config.
type workerPool struct {
	mu   sync.Mutex
	free []*segWorker
}

const maxPooledWorkers = 8

var (
	workerPoolsMu sync.Mutex
	workerPools   = map[cores.Config]*workerPool{}
)

func poolFor(core cores.Config) *workerPool {
	workerPoolsMu.Lock()
	defer workerPoolsMu.Unlock()
	p := workerPools[core]
	if p == nil {
		p = &workerPool{}
		workerPools[core] = p
	}
	return p
}

// acquireWorker returns a pooled worker for the core config (reporting
// the arena bytes reuse saved via reused, which may be nil), or builds a
// fresh one.
func acquireWorker(core cores.Config, reused *obs.Counter) *segWorker {
	p := poolFor(core)
	p.mu.Lock()
	var w *segWorker
	if n := len(p.free); n > 0 {
		w = p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
	}
	p.mu.Unlock()
	if w != nil {
		if reused != nil {
			reused.Add(w.memBytes())
		}
		return w
	}
	return newSegWorker(core)
}

// releaseWorker returns a worker to its config's free list (dropping it
// if the list is full).
func releaseWorker(core cores.Config, w *segWorker) {
	p := poolFor(core)
	p.mu.Lock()
	if len(p.free) < maxPooledWorkers {
		p.free = append(p.free, w)
	}
	p.mu.Unlock()
}

// getWorker returns a pooled evaluation worker, accounting reused arena
// bytes, or builds a fresh one.
func (c *Cache) getWorker() *segWorker {
	return acquireWorker(c.core, c.reused)
}

// putWorker returns a worker to the pool.
func (c *Cache) putWorker(w *segWorker) { releaseWorker(c.core, w) }

// segWorker bundles the reusable arenas one unit evaluation needs: a µDG
// for the transforms' nodes and a GPP constructor (whose five
// resource-table rings dominated the old per-Run allocation cost, and
// whose attribution log serves class-attributed units), plus the per-unit
// scratch state map. Reset between units, pooled between runs.
type segWorker struct {
	g      *dg.Graph
	gpp    *cores.GPP
	counts energy.Counts
	state  map[string]any
	ctx    tdg.Ctx // reused per transformed segment; models keep no reference
}

func newSegWorker(core cores.Config) *segWorker {
	g := dg.NewLeanGraph()
	w := &segWorker{g: g, state: make(map[string]any)}
	w.gpp = cores.NewGPP(core, g, &w.counts)
	return w
}

// reset prepares the worker for one unit evaluation from a drained
// boundary, keeping all allocations. classes selects the graph mode, and
// with it whether the core logs attribution: attribution when the
// evaluation will walk critical paths, lean (time-only,
// windowing-capable) otherwise — sweeps never walk, so they skip the log
// and two thirds of the transforms' per-node write traffic.
func (w *segWorker) reset(classes bool) {
	w.g.ResetMode(!classes)
	w.counts = energy.Counts{}
	clear(w.state)
	w.gpp.Reset(w.g, &w.counts)
}

// memBytes is the arena memory reusing this worker saves.
func (w *segWorker) memBytes() int64 { return w.g.MemBytes() + w.gpp.MemBytes() }

// publisher makes one unit evaluation publish outcomes for every
// boundary-aligned prefix of itself — the heart of delta evaluation.
//
// Correctness rests on prefix stability: unit evaluation is
// instruction-ordered with no retroactive effects, so the (EndTime,
// energy counts) snapshot after executing [start, b) inside a longer
// evaluation is byte-identical to a fresh evaluation of the unit
// [start, b) with the same segment structure. Cut boundaries — precomputed
// by the composer — are the only indices where a core-resident unit can
// end under any assignment, so publishing exactly there makes the
// baseline lane (one unit spanning the whole trace) serve every
// candidate's leading span, and solo-candidate lanes serve the
// between-occurrence spans of multi-region designs.
type publisher struct {
	cache *Cache
	descs []uint64 // the unit's per-segment descriptors
	start int32    // unit start (dynamic index)
	cuts  []int32  // cut boundaries strictly inside the unit, ascending
	next  int      // cursor into cuts

	// nodes[i] is the intern-trie node after descriptors 0..i, built
	// lazily as prefixes are published.
	nodes []uint32

	// slab backs every published prefix outcome in one allocation. Each
	// publish advances the cut cursor, so the remaining cut count bounds
	// the number of publishes and the slab never reallocates (stored
	// pointers stay stable).
	slab []unitOutcome
}

// sigOfPrefix returns the signature of the unit's first nsegs segments.
// The truncated final segment shares the full segment's descriptor
// (descriptors encode only start offsets), so prefix signatures are
// exactly the signatures fresh evaluation would compute.
func (p *publisher) sigOfPrefix(nsegs int) uint64 {
	if nsegs == 1 {
		return p.descs[0]
	}
	for len(p.nodes) < nsegs {
		parent := uint32(0)
		if n := len(p.nodes); n > 0 {
			parent = p.nodes[n-1]
		}
		p.nodes = append(p.nodes, p.cache.sigNode(parent, p.descs[len(p.nodes)]))
	}
	return sigMulti | uint64(p.nodes[nsegs-1])
}

// publish stores the outcome of the unit's prefix covering segments
// 0..nsegs-1 and ending at dynamic index end, with the final segment's
// (possibly truncated) duration and counts supplied by the caller.
func (p *publisher) publish(out *unitOutcome, nsegs int, end int32, lastDur int64, lastCounts energy.Counts) {
	if p.slab == nil {
		p.slab = make([]unitOutcome, 0, len(p.cuts)-p.next)
	}
	p.slab = append(p.slab, unitOutcome{
		segDurs:    out.segDurs[: nsegs-1 : nsegs-1],
		segCounts:  out.segCounts[: nsegs-1 : nsegs-1],
		nsegs:      nsegs,
		lastDur:    lastDur,
		lastCounts: lastCounts,
	})
	o := &p.slab[len(p.slab)-1]
	p.cache.storePrefix(unitKey{p.start, end, p.sigOfPrefix(nsegs)}, o)
}

// evalUnit evaluates one unit in isolation, starting from a drained
// pipeline at relative cycle 0, and returns its per-segment durations,
// energy deltas and critical-path class attribution. Inside the unit,
// segments share the worker's graph and GPP exactly as the original
// monolithic engine did, preserving frontend/window overlap across
// core-resident joints. This is the single evaluation path for both
// cached and uncached runs, so they agree bit-for-bit by construction.
// sp, when active, receives one child span per model transform.
// classes enables the critical-path class attribution (segClasses);
// durations and energy deltas are identical either way.
// pub, when non-nil, publishes prefix outcomes at cut boundaries as the
// evaluation passes them (prefix entries never carry classes; a later
// class-attributed run re-evaluates and replaces them).
// window, when positive, bounds the resident µDG between segments (see
// RunOpts.WindowNodes); it must be 0 when classes is set.
func evalUnit(w *segWorker, t *tdg.TDG, bsas map[string]tdg.BSA,
	plans map[string]*tdg.Plan, u unit, sp obs.Span, classes bool, window int, pub *publisher) unitOutcome {

	w.reset(classes)
	out := unitOutcome{
		segDurs:   make([]int64, len(u.segs)),
		segCounts: make([]energy.Counts, len(u.segs)),
	}
	if classes {
		out.segClasses = make([][dg.NumEdgeClasses]int64, len(u.segs))
	}
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
				TDG: t, G: w.g, GPP: w.gpp, Counts: &w.counts,
				State: w.state, ConfigResident: u.cfgRes[i], Span: tsp,
			}
			endNode = bsas[name].TransformRegion(&w.ctx, plans[name].Region(seg.LoopID), seg.Start, seg.End)
			tsp.End()
			// Cuts cannot fall strictly inside a model segment for any
			// signature-matching unit (an offload occurrence starting
			// inside would be nested under the segment's loop and thus
			// shadowed); skip any defensively rather than publish a
			// malformed prefix.
			if pub != nil {
				for pub.next < len(pub.cuts) && int(pub.cuts[pub.next]) < seg.End {
					pub.next++
				}
			}
		} else {
			dec, insts := t.Decoded(), t.Trace.Insts
			for j := seg.Start; ; {
				// Run up to the next publish cut, if one falls inside
				// the segment.
				stop := seg.End
				if pub != nil && pub.next < len(pub.cuts) {
					if c := int(pub.cuts[pub.next]); c > j && c < stop {
						stop = c
					}
				}
				w.gpp.ExecTrace(dec, insts[j:stop], j)
				if stop == seg.End {
					break
				}
				// j is the next cut, strictly inside the segment: publish
				// the prefix ending here. The truncated general-core
				// segment's duration and counts come from the current
				// pipeline state (prefix stability).
				j = stop
				w.gpp.Fold()
				end := w.gpp.EndTime()
				if end < lastEnd {
					end = lastEnd
				}
				pub.publish(&out, i+1, int32(j), end-lastEnd, diffCounts(&w.counts, &snapshot))
				pub.next++
			}
		}
		w.gpp.Fold()
		end := w.gpp.EndTime()
		if endNode != dg.None && w.g.Time(endNode) > end {
			end = w.g.Time(endNode)
		}
		if endNode != dg.None && w.g.Time(endNode) > walkTime {
			walkFrom, walkTime = endNode, w.g.Time(endNode)
		}
		if end < lastEnd {
			end = lastEnd
		}
		// The segment's nodes are dead once its end is read (a lean core
		// holds none between segments).
		if window > 0 {
			w.gpp.CompactWindow(window)
		}
		dur := end - lastEnd
		out.segDurs[i] = dur
		out.segCounts[i] = diffCounts(&w.counts, &snapshot)
		snapshot = w.counts

		lastEnd = end

		// Prefix ending exactly at this segment's boundary (not the
		// unit's own end — that entry is stored by the caller).
		if pub != nil && i < len(u.segs)-1 &&
			pub.next < len(pub.cuts) && int(pub.cuts[pub.next]) == seg.End {
			pub.publish(&out, i+1, int32(seg.End), dur, out.segCounts[i])
			pub.next++
		}
	}
	if classes {
		if c := w.gpp.LastCommit(); c != dg.None && w.g.Time(c) >= walkTime {
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
		o.segClasses[cur][class] += lat
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
