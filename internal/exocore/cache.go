package exocore

import (
	"encoding/binary"
	"hash/maphash"
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
}

// cacheShards bounds lock contention on the outcome map.
const cacheShards = 16

type outcomeShard struct {
	mu sync.RWMutex
	m  map[string]*unitOutcome
}

// shardSeed hashes unit keys onto the outcome shards.
var shardSeed = maphash.MakeSeed()

// Cache memoizes evaluation-unit outcomes for one evaluation context — a
// fixed (benchmark TDG, core config, BSA set, plans) tuple, the
// granularity at which sched.Context creates it — and pools the graph/GPP
// arenas unit evaluation consumes. Safe for concurrent Run calls.
//
// Correctness rests on the drained-boundary model (see the package
// comment): a unit's outcome depends only on its key (appendKey), never
// on its position in the composition. BSA models must therefore be pure
// functions of (core config, region plan, span, Ctx.ConfigResident): a
// model that carried other state from one unit to the next could not be
// cached.
type Cache struct {
	core cores.Config

	shards [cacheShards]outcomeShard

	// compOnce guards lazy construction of the delta composer for this
	// cache's (TDG, plans) tuple.
	compOnce sync.Once
	comp     *composer

	// shared is the cross-core outcome pool for this cache's TDG,
	// attached alongside the composer; nil until composerFor runs.
	shared *sharedPool

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
	hits, misses, reused, entries, sharedHits *obs.Counter
}

// NewCache creates a unit-outcome cache for one core config.
func NewCache(core cores.Config) *Cache {
	c := &Cache{
		core: core,
		hits: obs.NewCounter(), misses: obs.NewCounter(),
		reused: obs.NewCounter(), entries: obs.NewCounter(),
		sharedHits: obs.NewCounter(),
	}
	for i := range c.shards {
		c.shards[i].m = make(map[string]*unitOutcome)
	}
	return c
}

// Stats snapshots the cache counters.
func (c *Cache) Stats() CacheStats {
	return CacheStats{
		Hits:        c.hits.Value(),
		Misses:      c.misses.Value(),
		BytesReused: c.reused.Value(),
		Entries:     c.entries.Value(),
		SharedHits:  c.sharedHits.Value(),
	}
}

// composerFor returns the cache's delta composer, building it on first
// use. The cache is documented to serve exactly one (TDG, plans) tuple,
// so the first caller's arguments define it.
func (c *Cache) composerFor(t *tdg.TDG, plans map[string]*tdg.Plan) *composer {
	c.compOnce.Do(func() {
		c.comp = newComposer(t, plans)
		c.shared = sharedPoolFor(t)
	})
	return c.comp
}

func (c *Cache) shardOf(key []byte) *outcomeShard {
	return &c.shards[maphash.Bytes(shardSeed, key)%cacheShards]
}

// lookup returns the memoized outcome for a key, or nil on miss.
func (c *Cache) lookup(key []byte) *unitOutcome {
	s := c.shardOf(key)
	s.mu.RLock()
	o := s.m[string(key)]
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
// raced with a sweep or a candidate solo. Entries counts new keys only.
func (c *Cache) store(key []byte, o *unitOutcome) *unitOutcome {
	s := c.shardOf(key)
	s.mu.Lock()
	prev := s.m[string(key)]
	if prev != nil && (prev.segClasses != nil || o.segClasses == nil) {
		s.mu.Unlock()
		return prev
	}
	s.m[string(key)] = o
	s.mu.Unlock()
	if prev == nil {
		c.entries.Add(1)
	}
	return o
}

// sharedPool is a cross-core pool of core-independent unit outcomes for
// one TDG, keyed like the per-core caches (appendKey names no core).
// Offload models (NS-DF, Trace-P) evaluate solo units, and usually never
// touch the host pipeline — NS-DF builds a pure dataflow schedule;
// Trace-P replays on the core only after a misspeculation. When an
// evaluation retires zero core µops, its outcome is a pure function of
// (span, loop, model, residency): the GPP starts every unit from the
// same drained state on every core config, so the result is
// byte-identical across the four cores and one evaluation can serve all
// of them. Units that DID execute core µops are never published, so a
// hit is always exact.
type sharedPool struct {
	mu sync.RWMutex
	m  map[string]*unitOutcome
}

func (p *sharedPool) lookup(key []byte) *unitOutcome {
	p.mu.RLock()
	o := p.m[string(key)]
	p.mu.RUnlock()
	return o
}

// store publishes an outcome; existing entries win (they are identical
// by the purity argument above).
func (p *sharedPool) store(key []byte, o *unitOutcome) {
	p.mu.Lock()
	if p.m[string(key)] == nil {
		p.m[string(key)] = o
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
		p = &sharedPool{m: make(map[string]*unitOutcome)}
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
// whose attribution log serves class-attributed units). Reset between
// units, pooled between runs.
type segWorker struct {
	g      *dg.Graph
	gpp    *cores.GPP
	counts energy.Counts
	ctx    tdg.Ctx // reused per transformed segment; models keep no reference
}

func newSegWorker(core cores.Config) *segWorker {
	g := dg.NewLeanGraph()
	w := &segWorker{g: g}
	w.gpp = cores.NewGPP(core, g, &w.counts)
	return w
}

// reset prepares the worker for one unit evaluation from a drained
// boundary, keeping all allocations. classes selects the graph mode, and
// with it whether the core logs attribution: attribution when the
// evaluation will walk critical paths, lean (time-only, retired segment
// by segment) otherwise — sweeps never walk, so they skip the log and two
// thirds of the transforms' per-node write traffic.
func (w *segWorker) reset(classes bool) {
	w.g.ResetMode(!classes)
	w.counts = energy.Counts{}
	w.gpp.Reset(w.g, &w.counts)
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
// classes enables the critical-path class attribution (segClasses);
// durations and energy deltas are identical either way.
// Without classes the graph is lean, and each segment's nodes are retired
// when the segment ends, so the resident µDG never outgrows one segment.
func evalUnit(w *segWorker, t *tdg.TDG, bsas map[string]tdg.BSA,
	plans map[string]*tdg.Plan, u unit, sp obs.Span, classes bool) unitOutcome {

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
				ConfigResident: u.cfgRes[i], Span: tsp,
			}
			endNode = bsas[name].TransformRegion(&w.ctx, plans[name].Region(seg.LoopID), seg.Start, seg.End)
			tsp.End()
		} else {
			w.gpp.ExecTrace(t.Decoded(), t.Trace.Insts[seg.Start:seg.End], seg.Start)
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
		w.gpp.CompactWindow()
		out.segDurs[i] = end - lastEnd
		out.segCounts[i] = diffCounts(&w.counts, &snapshot)
		snapshot = w.counts
		lastEnd = end
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
