// Package runner is the shared evaluation engine behind every driver and
// the design-space exploration. It memoizes the expensive per-(benchmark,
// core) pipeline stages — dynamic trace, reconstructed TDG, scheduling
// context, assignment evaluation, region-attributed report run — in a
// concurrency-safe artifact cache, fans work out over a bounded worker
// pool with deterministic result ordering, and exposes per-stage
// wall-clock / instruction-count metrics plus cache hit/miss counters and
// an optional progress callback.
//
// One Engine per tool invocation is the normal lifetime; sharing an
// Engine across calls (eg. several dse.Explore runs) shares the caches.
package runner

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"exocore/internal/bsa"
	"exocore/internal/cores"
	"exocore/internal/exocore"
	"exocore/internal/obs"
	"exocore/internal/sched"
	"exocore/internal/sim"
	"exocore/internal/tdg"
	"exocore/internal/trace"
	"exocore/internal/workloads"
)

// Pipeline stage names, in execution order.
const (
	StageTrace  = "trace"
	StageTDG    = "tdg"
	StageSched  = "sched"
	StageEval   = "eval"
	StageReport = "report"
)

// Stages lists the stage names in execution order: the order of
// Metrics().Stages, and the names under which every Engine registers
// its "stage.<name>.*" instruments. Read-only.
var Stages = []string{StageTrace, StageTDG, StageSched, StageEval, StageReport}

// Event describes one cache lookup, delivered to the progress callback.
type Event struct {
	Stage    string        // one of the Stage* names
	Key      string        // "bench" or "bench/core[/assignment]"
	CacheHit bool          // true when the artifact was already cached
	Wall     time.Duration // compute time (zero on hits)
}

// ProgressFunc receives an Event after every stage lookup. Calls are
// serialized; the callback may write to a terminal without locking.
type ProgressFunc func(Event)

// Options configures an Engine.
type Options struct {
	// MaxDyn is the per-benchmark dynamic-instruction budget (0 =
	// sim.DefaultMaxDyn). It is part of every cache key's identity, so
	// one Engine serves exactly one budget.
	MaxDyn int
	// ChunkInsts is the chunk size, in dynamic instructions, at which
	// trace misses drain workload generators (<= 0 selects
	// trace.DefaultChunkInsts). Every chunk size yields the same trace
	// as Workload.Trace, so ChunkInsts is NOT part of cache-key
	// identity.
	ChunkInsts int
	// Workers bounds concurrent jobs in ForEach/Map (0 = GOMAXPROCS).
	Workers int
	// BSAs is the registry of accelerator models the engine builds
	// scheduling contexts (plans + candidate measurements) for. Nil means
	// bsa.Default(). Like MaxDyn it is part of the engine's identity: one
	// Engine serves exactly one registry, so restricted-registry runs
	// (eg. the pre-graph four-BSA baseline) use their own Engine.
	BSAs *bsa.Registry
	// Progress, if non-nil, observes every stage lookup.
	Progress ProgressFunc
	// Tracer, if non-nil, receives one span per stage cache miss, with
	// per-unit segment spans and per-transform spans nested under the
	// sched, eval and report stages. Nil keeps the hot path nil-check
	// cheap.
	Tracer *obs.Tracer
	// Reg is the metrics registry backing the engine's counters. Nil
	// makes the engine create a private one; pass a shared registry to
	// fold engine metrics into a tool-wide snapshot.
	Reg *obs.Registry
	// Log, if non-nil, receives debug-level stage-lookup records.
	Log *obs.Logger
	// Persist, if non-nil, is a durable evaluation-unit store (eg.
	// *store.Store behind -store DIR) attached under every scheduling
	// context's unit cache: misses consult it before evaluating and
	// fresh outcomes write through, so a restarted process comes up
	// warm. The engine namespaces keys by (workload, core, MaxDyn).
	Persist exocore.Persist
}

// StageMetrics aggregates one pipeline stage's counters.
type StageMetrics struct {
	Stage  string `json:"stage"`
	Calls  int64  `json:"calls"`
	Hits   int64  `json:"cache_hits"`
	Misses int64  `json:"cache_misses"`
	WallNS int64  `json:"wall_ns"`
	// Insts counts dynamic instructions processed by cache misses (the
	// work actually done, as opposed to work served from cache).
	Insts int64 `json:"instructions"`
}

// Metrics is a point-in-time snapshot of the engine's counters.
type Metrics struct {
	Stages []StageMetrics `json:"stages"`
	// EvalCache aggregates the evaluation-unit cache counters over every
	// scheduling context this engine created.
	EvalCache *exocore.CacheStats `json:"eval_cache,omitempty"`
	// Points is the full registry snapshot (every named instrument,
	// sorted), the exportable form behind the stage/cache fields above.
	Points []obs.MetricPoint `json:"points,omitempty"`
}

// Stage returns the named stage's snapshot (zero value if unknown).
func (m Metrics) Stage(name string) StageMetrics {
	for _, s := range m.Stages {
		if s.Stage == name {
			return s
		}
	}
	return StageMetrics{}
}

// Hits sums cache hits over all stages.
func (m Metrics) Hits() int64 {
	var n int64
	for _, s := range m.Stages {
		n += s.Hits
	}
	return n
}

// Misses sums cache misses over all stages.
func (m Metrics) Misses() int64 {
	var n int64
	for _, s := range m.Stages {
		n += s.Misses
	}
	return n
}

// stageInstruments bundles one stage's registry instruments, resolved
// once at Engine construction so the lookup path stays map-free.
type stageInstruments struct {
	calls, hits, misses, insts *obs.Counter
	wall                       *obs.Histogram
}

// evalResult is the memoized outcome of one assignment evaluation.
type evalResult struct {
	cycles   int64
	energyNJ float64
}

// Engine is the shared evaluation engine. Safe for concurrent use.
type Engine struct {
	maxDyn     int
	chunkInsts int // <= 0 = default chunk size
	workers    int
	bsaReg     *bsa.Registry
	persist    exocore.Persist

	progressMu sync.Mutex
	progress   ProgressFunc

	tracer *obs.Tracer
	reg    *obs.Registry
	log    *obs.Logger

	traces  memo[*trace.Trace]
	tdgs    memo[*tdg.TDG]
	scheds  memo[*sched.Context]
	evals   memo[evalResult]
	reports memo[*exocore.RunResult]
	streams memo[*StreamBaselineResult]

	stages map[string]*stageInstruments

	cachesMu sync.Mutex
	caches   []*exocore.Cache // unit caches of every context created
}

// New creates an Engine.
func New(opts Options) *Engine {
	maxDyn := opts.MaxDyn
	if maxDyn <= 0 {
		maxDyn = sim.DefaultMaxDyn
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = defaultWorkers()
	}
	reg := opts.Reg
	if reg == nil {
		reg = obs.NewRegistry()
	}
	bsaReg := opts.BSAs
	if bsaReg == nil {
		bsaReg = bsa.Default()
	}
	e := &Engine{
		maxDyn:     maxDyn,
		chunkInsts: opts.ChunkInsts,
		workers:    workers,
		bsaReg:     bsaReg,
		persist:    opts.Persist,
		progress:   opts.Progress,
		tracer:     opts.Tracer,
		reg:        reg,
		log:        opts.Log,
		stages:     make(map[string]*stageInstruments, len(Stages)),
	}
	for _, s := range Stages {
		e.stages[s] = &stageInstruments{
			calls:  reg.Counter("stage." + s + ".calls"),
			hits:   reg.Counter("stage." + s + ".hits"),
			misses: reg.Counter("stage." + s + ".misses"),
			insts:  reg.Counter("stage." + s + ".insts"),
			wall:   reg.Histogram("stage."+s+".wall_ns", obs.DefaultWallBounds),
		}
	}
	return e
}

// Registry returns the engine's metrics registry (never nil).
func (e *Engine) Registry() *obs.Registry { return e.reg }

// MaxDyn returns the engine's dynamic-instruction budget.
func (e *Engine) MaxDyn() int { return e.maxDyn }

// BSAs returns the engine's accelerator-model registry (never nil).
func (e *Engine) BSAs() *bsa.Registry { return e.bsaReg }

// Workers returns the worker-pool bound.
func (e *Engine) Workers() int { return e.workers }

// Metrics snapshots the per-stage counters in pipeline order.
func (e *Engine) Metrics() Metrics {
	var m Metrics
	for _, name := range Stages {
		c := e.stages[name]
		m.Stages = append(m.Stages, StageMetrics{
			Stage:  name,
			Calls:  c.calls.Value(),
			Hits:   c.hits.Value(),
			Misses: c.misses.Value(),
			WallNS: c.wall.Sum(),
			Insts:  c.insts.Value(),
		})
	}
	var agg exocore.CacheStats
	e.cachesMu.Lock()
	for _, c := range e.caches {
		s := c.Stats()
		agg.Hits += s.Hits
		agg.Misses += s.Misses
		agg.BytesReused += s.BytesReused
		agg.Entries += s.Entries
		agg.SharedHits += s.SharedHits
		agg.ResidentBytes += s.ResidentBytes
	}
	e.cachesMu.Unlock()
	// Mirror the aggregate into registry gauges so the exportable
	// snapshot carries the cache state too.
	e.reg.Gauge("evalcache.segment_hits").Set(agg.Hits)
	e.reg.Gauge("evalcache.segment_misses").Set(agg.Misses)
	e.reg.Gauge("evalcache.bytes_reused").Set(agg.BytesReused)
	e.reg.Gauge("evalcache.entries").Set(agg.Entries)
	e.reg.Gauge("evalcache.shared_hits").Set(agg.SharedHits)
	e.reg.Gauge("evalcache.resident_bytes").Set(agg.ResidentBytes)
	m.EvalCache = &agg
	m.Points = e.reg.Snapshot()
	return m
}

func (e *Engine) emit(ev Event) {
	if e.progress == nil {
		return
	}
	e.progressMu.Lock()
	e.progress(ev)
	e.progressMu.Unlock()
}

// account records one lookup's counters and fires the progress callback.
// The debug record carries ctx's request ID (if any), so daemon stage
// lookups correlate with their request's trace fragment and access log.
func (e *Engine) account(ctx context.Context, stage, key string, hit bool, wall time.Duration, insts int64) {
	c := e.stages[stage]
	c.calls.Add(1)
	if hit {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
		c.wall.Observe(int64(wall))
		c.insts.Add(insts)
	}
	e.log.DebugCtx(ctx, "stage lookup", "stage", stage, "key", key, "hit", hit, "wall", wall)
	e.emit(Event{Stage: stage, Key: key, CacheHit: hit, Wall: wall})
}

// Trace returns the workload's annotated dynamic trace, computing it at
// most once per Engine.
func (e *Engine) Trace(w *workloads.Workload) (*trace.Trace, error) {
	return e.TraceCtx(context.Background(), w)
}

// TraceCtx is Trace with cancellation: a done ctx aborts before the
// stage computes (in-flight stage work itself runs to completion; the
// boundary check is what keeps a canceled client from starting new
// work). Cancellation errors are never cached — see memo.getCtx.
func (e *Engine) TraceCtx(ctx context.Context, w *workloads.Workload) (*trace.Trace, error) {
	key := w.Name
	tr, hit, wall, err := e.traces.getCtx(ctx, key, func(ctx context.Context) (*trace.Trace, error) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		sp := e.tracer.BeginCtx(ctx, "stage", StageTrace+" "+key)
		defer sp.End()
		// Drain the workload's generator-driven chunk source: the same
		// trace as Workload.Trace (all model state carries across chunk
		// boundaries), and the same code large streamed runs exercise,
		// so the tier-1 suite gates it.
		src := w.Source(workloads.SourceConfig{MaxDyn: e.maxDyn, ChunkInsts: e.chunkInsts})
		return trace.Materialize(src, min(e.maxDyn, 1<<16))
	})
	var insts int64
	if tr != nil {
		insts = int64(tr.Len())
	}
	e.account(ctx, StageTrace, key, hit, wall, insts)
	return tr, err
}

// TDG returns the workload's reconstructed TDG (trace + IR + profile),
// computing it at most once per Engine.
func (e *Engine) TDG(w *workloads.Workload) (*tdg.TDG, error) {
	return e.TDGCtx(context.Background(), w)
}

// TDGCtx is TDG with cancellation (see TraceCtx for the semantics).
func (e *Engine) TDGCtx(ctx context.Context, w *workloads.Workload) (*tdg.TDG, error) {
	key := w.Name
	td, hit, wall, err := e.tdgs.getCtx(ctx, key, func(ctx context.Context) (*tdg.TDG, error) {
		tr, err := e.TraceCtx(ctx, w)
		if err != nil {
			return nil, err
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		sp := e.tracer.BeginCtx(ctx, "stage", StageTDG+" "+key)
		defer sp.End()
		return tdg.Build(tr)
	})
	var insts int64
	if td != nil {
		insts = int64(td.Trace.Len())
	}
	e.account(ctx, StageTDG, key, hit, wall, insts)
	return td, err
}

// TDGFor builds (and caches) the TDG of an ad-hoc trace under an explicit
// key — the escape hatch for programs authored outside the workload
// registry (eg. the quickstart example). Keys live in their own namespace
// and cannot collide with workload names.
func (e *Engine) TDGFor(key string, tr *trace.Trace) (*tdg.TDG, error) {
	k := "adhoc:" + key
	td, hit, wall, err := e.tdgs.get(k, func() (*tdg.TDG, error) {
		sp := e.tracer.Begin("stage", StageTDG+" "+k)
		defer sp.End()
		return tdg.Build(tr)
	})
	e.account(context.Background(), StageTDG, k, hit, wall, int64(tr.Len()))
	return td, err
}

// Context returns the (benchmark, core) scheduling context — plans for
// all four BSAs, the baseline measurement and every solo candidate
// measurement — computing it at most once per Engine.
func (e *Engine) Context(w *workloads.Workload, core cores.Config) (*sched.Context, error) {
	return e.ContextCtx(context.Background(), w, core)
}

// ContextCtx is Context with cancellation (see TraceCtx for the
// semantics).
func (e *Engine) ContextCtx(ctx context.Context, w *workloads.Workload, core cores.Config) (*sched.Context, error) {
	key := w.Name + "/" + core.Name
	sc, hit, wall, err := e.scheds.getCtx(ctx, key, func(ctx context.Context) (*sched.Context, error) {
		td, err := e.TDGCtx(ctx, w)
		if err != nil {
			return nil, err
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		sp := e.tracer.BeginCtx(ctx, "stage", StageSched+" "+key)
		defer sp.End()
		sc, err := sched.NewContext(td, core, e.bsaReg.New(),
			sched.ContextOpts{Workers: e.workers, Reg: e.reg, Span: sp,
				Persist: e.persist, PersistNS: e.persistNS(key)})
		if err != nil {
			return nil, err
		}
		e.cachesMu.Lock()
		e.caches = append(e.caches, sc.Cache)
		e.cachesMu.Unlock()
		return sc, nil
	})
	var insts int64
	if sc != nil {
		insts = int64(sc.TDG.Trace.Len())
	}
	e.account(ctx, StageSched, key, hit, wall, insts)
	return sc, err
}

// persistNS derives the durable-store namespace for one scheduling
// context: the format tag, the context key (workload/core) and the
// engine's instruction budget. ChunkInsts is deliberately absent —
// every chunk size synthesizes the same trace — and the BSA
// registry needs no component because unit signatures carry the model
// names themselves.
func (e *Engine) persistNS(contextKey string) string {
	return "u1|" + contextKey + "/" + fmt.Sprint(e.maxDyn) + "|"
}

// AssignmentKey renders an assignment as a canonical signature usable as
// a cache key: loop ids sorted ascending, "loop=bsa;" pairs.
func AssignmentKey(a exocore.Assignment) string {
	loops := make([]int, 0, len(a))
	for l := range a {
		loops = append(loops, l)
	}
	for i := 1; i < len(loops); i++ { // insertion sort; assignments are tiny
		for j := i; j > 0 && loops[j] < loops[j-1]; j-- {
			loops[j], loops[j-1] = loops[j-1], loops[j]
		}
	}
	var sb []byte
	for _, l := range loops {
		sb = fmt.Appendf(sb, "%d=%s;", l, a[l])
	}
	return string(sb)
}

// Evaluate runs the benchmark on the core under an assignment and returns
// (cycles, total energy in nJ). Identical assignments — which recur
// constantly across the BSA subsets of a sweep — are evaluated once and
// served from cache afterwards.
func (e *Engine) Evaluate(w *workloads.Workload, core cores.Config, assign exocore.Assignment) (int64, float64, error) {
	return e.EvaluateCtx(context.Background(), w, core, assign)
}

// EvaluateCtx is Evaluate with cancellation (see TraceCtx for the
// semantics).
func (e *Engine) EvaluateCtx(ctx context.Context, w *workloads.Workload, core cores.Config, assign exocore.Assignment) (int64, float64, error) {
	key := w.Name + "/" + core.Name + "/" + AssignmentKey(assign)
	res, hit, wall, err := e.evals.getCtx(ctx, key, func(ctx context.Context) (evalResult, error) {
		sc, err := e.ContextCtx(ctx, w, core)
		if err != nil {
			return evalResult{}, err
		}
		if err := ctx.Err(); err != nil {
			return evalResult{}, err
		}
		sp := e.tracer.BeginCtx(ctx, "stage", StageEval+" "+key)
		defer sp.End()
		cycles, energy, err := sc.EvaluateSpan(assign, sp)
		if err != nil {
			return evalResult{}, err
		}
		return evalResult{cycles: cycles, energyNJ: energy}, nil
	})
	e.account(ctx, StageEval, key, hit, wall, 0)
	if err != nil {
		return 0, 0, err
	}
	return res.cycles, res.energyNJ, nil
}

// Report returns the benchmark's run on the core under an assignment
// with per-region attribution (exocore.RunOpts.RecordRegions): per-model
// and per-region cycles, energy events and critical-path classes. It is
// memoized under Evaluate's key in a memo of its own, so sweeps, which
// only Evaluate, never pay for attribution, and a repeated query reads
// one map entry instead of recomposing its units. This memo is the one
// cache of attributed runs: a miss evaluates every unit and leaves the
// context's unit cache untouched. The result is shared by every caller
// of the same key: treat it as read-only.
func (e *Engine) Report(w *workloads.Workload, core cores.Config, assign exocore.Assignment) (*exocore.RunResult, error) {
	return e.ReportCtx(context.Background(), w, core, assign)
}

// ReportCtx is Report with cancellation (see TraceCtx for the
// semantics).
func (e *Engine) ReportCtx(ctx context.Context, w *workloads.Workload, core cores.Config, assign exocore.Assignment) (*exocore.RunResult, error) {
	key := w.Name + "/" + core.Name + "/" + AssignmentKey(assign)
	res, hit, wall, err := e.reports.getCtx(ctx, key, func(ctx context.Context) (*exocore.RunResult, error) {
		sc, err := e.ContextCtx(ctx, w, core)
		if err != nil {
			return nil, err
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		sp := e.tracer.BeginCtx(ctx, "stage", StageReport+" "+key)
		defer sp.End()
		return exocore.Run(sc.TDG, core, sc.BSAs, sc.Plans, assign, exocore.RunOpts{
			RecordRegions: true, Span: sp, Reg: e.reg,
		})
	})
	e.account(ctx, StageReport, key, hit, wall, 0)
	return res, err
}

// StreamBaselineResult is the memoized outcome of one streamed baseline
// run: the general-core evaluation plus the streaming TDG summary
// (profile + statistics) of the trace that was never materialized.
type StreamBaselineResult struct {
	Res    *exocore.RunResult
	Stream *tdg.Stream
}

// Dyn returns the number of dynamic instructions the streamed run
// evaluated.
func (r *StreamBaselineResult) Dyn() int { return r.Stream.Dyn }

// StreamBaseline evaluates the workload's general-core baseline on a
// chunked generator-driven source: functional simulation and annotation
// run on a producer goroutine, pipelined behind a bounded channel with
// the µDG evaluation, while the streaming TDG builder observes every
// chunk in passing — peak memory is O(chunk) end to end, so paper-scale
// budgets (-maxdyn 200000000) fit in a fixed process footprint. loop
// selects the steady-state repeated-kernel mode (see
// workloads.SourceConfig.Loop) for budgets beyond the kernel's natural
// execution.
//
// The engine memoizes the result, not a trace: the source is replayable
// (same workload, same seed, same bytes), so re-deriving anything else
// later costs one more streaming pass rather than 16 bytes per
// instruction of residency. Results are byte-identical to the
// materialized exocore.Run baseline at overlapping trace sizes.
func (e *Engine) StreamBaseline(w *workloads.Workload, core cores.Config, loop bool) (*StreamBaselineResult, error) {
	return e.StreamBaselineCtx(context.Background(), w, core, loop)
}

// StreamBaselineCtx is StreamBaseline with cancellation (see TraceCtx
// for the semantics).
func (e *Engine) StreamBaselineCtx(ctx context.Context, w *workloads.Workload, core cores.Config, loop bool) (*StreamBaselineResult, error) {
	key := w.Name + "/" + core.Name
	if loop {
		key += "/loop"
	}
	res, hit, wall, err := e.streams.getCtx(ctx, key, func(ctx context.Context) (*StreamBaselineResult, error) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		sp := e.tracer.BeginCtx(ctx, "stage", "stream "+key)
		defer sp.End()

		gen := w.Source(workloads.SourceConfig{
			MaxDyn: e.maxDyn, ChunkInsts: e.chunkInsts, Loop: loop,
		})
		sb, err := tdg.NewStreamBuilder(gen.Prog())
		if err != nil {
			return nil, err
		}
		// The tee runs on the producer side of the pipeline, so profile
		// construction overlaps evaluation along with chunk synthesis.
		src := trace.NewPipelined(trace.Tee(gen, sb.Feed), 0)
		rr, err := exocore.RunStream(src, core, exocore.RunOpts{Reg: e.reg})
		if err != nil {
			src.Stop()
			return nil, err
		}
		return &StreamBaselineResult{Res: rr, Stream: sb.Finish()}, nil
	})
	var insts int64
	if res != nil {
		insts = int64(res.Stream.Dyn)
	}
	// Streamed runs account under their own lazily-created instruments:
	// the instruments of Stages are part of every tool's metrics snapshot,
	// which must not change shape for runs that never stream.
	c := e.reg.Counter("stream.baseline.calls")
	c.Add(1)
	if !hit {
		e.reg.Counter("stream.baseline.misses").Add(1)
		e.reg.Histogram("stream.baseline.wall_ns", obs.DefaultWallBounds).Observe(int64(wall))
		e.reg.Counter("stream.baseline.insts").Add(insts)
	}
	e.log.DebugCtx(ctx, "stage lookup", "stage", "stream", "key", key, "hit", hit, "wall", wall)
	e.emit(Event{Stage: "stream", Key: key, CacheHit: hit, Wall: wall})
	return res, err
}

// ForEach runs fn(0..n-1) over the bounded worker pool and waits for all
// of them. The returned error is deterministic regardless of completion
// order: the one produced by the lowest index that failed.
func (e *Engine) ForEach(n int, fn func(i int) error) error {
	return e.ForEachCtx(context.Background(), n, fn)
}

// ForEachCtx is ForEach with cancellation: once ctx is done, workers stop
// claiming new indices (in-flight fn calls run to completion) and the
// unstarted indices fail with ctx.Err(). The returned error stays
// deterministic under a given cancellation point: the lowest failed
// index wins.
func (e *Engine) ForEachCtx(ctx context.Context, n int, fn func(i int) error) error {
	if n <= 0 {
		return ctx.Err()
	}
	workers := e.workers
	if workers > n {
		workers = n
	}
	errs := make([]error, n)
	var next atomic.Int64
	next.Store(-1)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1))
				if i >= n {
					return
				}
				if err := ctx.Err(); err != nil {
					errs[i] = err
					continue
				}
				errs[i] = fn(i)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Map runs fn(0..n-1) over the engine's worker pool and returns the
// results in index order — deterministic regardless of which worker
// finished first. On error, the partial results are still returned.
func Map[R any](e *Engine, n int, fn func(i int) (R, error)) ([]R, error) {
	return MapCtx(context.Background(), e, n, fn)
}

// MapCtx is Map with cancellation (see ForEachCtx for the semantics).
func MapCtx[R any](ctx context.Context, e *Engine, n int, fn func(i int) (R, error)) ([]R, error) {
	out := make([]R, n)
	err := e.ForEachCtx(ctx, n, func(i int) error {
		r, err := fn(i)
		out[i] = r
		return err
	})
	return out, err
}
