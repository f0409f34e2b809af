// The traced run: the per-layer ledger. Every measurement is taken from
// outside the program, around calls into each layer's public functions,
// with one span per call kept in memory and written out at the end.
//
// Each arm runs its workload's work twice, once plain and once traced,
// and reports per workload
//
//	ledger.residual_frac.<w>  1 − Σ per-layer time ÷ traced wall
//	trace_overhead_frac.<w>   traced wall ÷ plain wall − 1
//
// The traced stream arm drives the source pieces serially, where the
// plain run pipelines them behind a producer goroutine, so its
// overhead includes the lost overlap.
package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"exocore/internal/bpred"
	"exocore/internal/cache"
	"exocore/internal/cores"
	"exocore/internal/dse"
	"exocore/internal/exocore"
	"exocore/internal/ir"
	"exocore/internal/obs"
	"exocore/internal/prog"
	"exocore/internal/report"
	"exocore/internal/runner"
	"exocore/internal/sim"
	"exocore/internal/tdg"
	"exocore/internal/trace"
	"exocore/internal/workloads"
)

// ledger is one traced run.
type ledger struct {
	r      *run
	tracer *obs.Tracer
}

// runLedger runs every arm, then writes the span trace and requires it
// to validate.
func runLedger(r *run) error {
	lg := &ledger{r: r, tracer: obs.NewTracer("perfbench")}
	arms := []struct {
		name string
		fn   func(obs.Span) error
	}{
		{"sweep", lg.sweepArm}, {"stream", lg.streamArm}, {"serve", lg.serveArm}, {"fabric", lg.fabricArm},
	}
	for _, a := range arms {
		runtime.GC()
		sp := lg.tracer.Begin("arm", a.name)
		err := a.fn(sp)
		sp.End()
		if err != nil {
			return fmt.Errorf("ledger %s: %w", a.name, err)
		}
	}
	if err := os.MkdirAll(r.cfg.workdir, 0o755); err != nil {
		return err
	}
	var buf bytes.Buffer
	if err := lg.tracer.Write(&buf); err != nil {
		return err
	}
	spans, err := obs.ValidateTrace(buf.Bytes())
	r.check(err == nil, "span trace does not validate: %v", err)
	r.detail("trace.spans", float64(spans), "count", 1)
	return os.WriteFile(filepath.Join(r.cfg.workdir, "trace.json"), buf.Bytes(), 0o644)
}

// account sets the arm's two ledger ratios.
func (lg *ledger) account(arm string, layers, traced, plain time.Duration) {
	lg.r.set("ledger.residual_frac."+arm, 1-layers.Seconds()/traced.Seconds(), "ratio")
	lg.r.set("trace_overhead_frac."+arm, traced.Seconds()/plain.Seconds()-1, "ratio")
}

// busy accumulates time spent in calls from several goroutines.
type busy struct{ ns atomic.Int64 }

func (b *busy) add(d time.Duration) { b.ns.Add(int64(d)) }
func (b *busy) get() time.Duration  { return time.Duration(b.ns.Load()) }

// samples collects per-call durations from several goroutines.
type samples struct {
	mu sync.Mutex
	ds []time.Duration
}

func (s *samples) add(d time.Duration) {
	s.mu.Lock()
	s.ds = append(s.ds, d)
	s.mu.Unlock()
}

func (s *samples) sum() time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	var t time.Duration
	for _, d := range s.ds {
		t += d
	}
	return t
}

// medianIn returns the median duration in unit.
func (s *samples) medianIn(unit time.Duration) float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return median(durations(s.ds, unit))
}

// ---- sweep ----

// sweepPhase is one phase of the traced sweep: its wall time, the heap
// bytes allocated during it, and the summed time of the calls it made.
type sweepPhase struct {
	wall  time.Duration
	alloc uint64
	calls time.Duration
}

// phase runs n calls over the engine's worker pool under a phase span,
// one top-level span per call.
func (lg *ledger) phase(parent obs.Span, eng *runner.Engine, name string, n int, key func(int) string, call func(int) error) (sweepPhase, error) {
	sp := parent.Child("phase", name)
	defer sp.End()
	var calls busy
	a0, t0 := allocBytes(), time.Now()
	err := eng.ForEach(n, func(i int) error {
		c := lg.tracer.Begin(name, key(i))
		c0 := time.Now()
		err := call(i)
		calls.add(time.Since(c0))
		c.End()
		return err
	})
	return sweepPhase{wall: time.Since(t0), alloc: allocBytes() - a0, calls: calls.get()}, err
}

// sweepArm drives a fresh engine phase by phase — every trace, every
// TDG, every (bench, core) context, then dse.Explore on the warm
// contexts and the render — and requires the document to equal the
// plain job's bytes.
func (lg *ledger) sweepArm(arm obs.Span) error {
	sz := lg.r.cfg.sizes
	if err := warmSweep(sz); err != nil {
		return err
	}
	t0 := time.Now()
	want, err := sweepDocument(sz.sweepMaxDyn, sz.workers)
	plain := time.Since(t0)
	if err != nil {
		return err
	}
	runtime.GC()

	var evalBusy busy
	eng := runner.New(runner.Options{MaxDyn: sz.sweepMaxDyn, Workers: sz.workers,
		Progress: func(ev runner.Event) {
			if ev.Stage == runner.StageEval && !ev.CacheHit {
				evalBusy.add(ev.Wall)
			}
		}})
	wls := workloads.All()
	nc := len(cores.Configs)
	name := func(i int) string { return wls[i].Name }
	pair := func(i int) string { return wls[i/nc].Name + "/" + cores.Configs[i%nc].Name }

	start := time.Now()
	tr, err := lg.phase(arm, eng, "trace", len(wls), name, func(i int) error { _, err := eng.Trace(wls[i]); return err })
	if err != nil {
		return err
	}
	td, err := lg.phase(arm, eng, "tdg", len(wls), name, func(i int) error { _, err := eng.TDG(wls[i]); return err })
	if err != nil {
		return err
	}
	sc, err := lg.phase(arm, eng, "sched", len(wls)*nc, pair, func(i int) error {
		_, err := eng.Context(wls[i/nc], cores.Configs[i%nc])
		return err
	})
	if err != nil {
		return err
	}
	sp := arm.Child("phase", "explore")
	a0, e0 := allocBytes(), time.Now()
	exp, err := dse.Explore(dse.Options{Engine: eng})
	evalWall, evalAlloc := time.Since(e0), allocBytes()-a0
	sp.End()
	if err != nil {
		return err
	}
	sp = arm.Child("phase", "render")
	r0 := time.Now()
	doc, err := renderSweep(exp)
	renderWall := time.Since(r0)
	sp.End()
	traced := time.Since(start)
	if err != nil {
		return err
	}
	lg.r.check(bytes.Equal(doc, want), "ledger sweep: phase-driven document differs from the plain job's")

	r := lg.r
	r.set("runner.trace_s", tr.wall.Seconds(), "s")
	r.set("runner.trace_alloc_mib", mib(tr.alloc), "MiB")
	r.set("tdg.build_s", td.wall.Seconds(), "s")
	r.set("tdg.alloc_mib", mib(td.alloc), "MiB")
	r.set("sched.context_s", sc.wall.Seconds(), "s")
	r.set("sched.alloc_mib", mib(sc.alloc), "MiB")
	r.set("exocore.eval_s", evalWall.Seconds(), "s")
	r.set("exocore.eval_alloc_mib", mib(evalAlloc), "MiB")
	r.set("report.render_s", renderWall.Seconds(), "s")
	r.set("runner.busy_frac", (sc.calls+evalBusy.get()).Seconds()/((sc.wall+evalWall).Seconds()*float64(eng.Workers())), "ratio")
	m := eng.Metrics()
	ec := m.EvalCache
	r.set("sched.contexts", float64(m.Stage(runner.StageSched).Misses), "count")
	r.set("evalcache.hit_ratio", float64(ec.Hits)/float64(ec.Hits+ec.Misses), "ratio")
	r.set("evalcache.shared_hits", float64(ec.SharedHits), "count")
	r.set("evalcache.entries", float64(ec.Entries), "count")
	lg.account("sweep", tr.wall+td.wall+sc.wall+evalWall+renderWall, traced, plain)
	return nil
}

// ---- stream ----

// streamTimes accumulates the traced stream arm's per-piece time.
type streamTimes struct {
	build, fill, cacheAnn, bpredAnn, stats, profile, next time.Duration
	insts                                                 int
}

// serialSource is the generator-driven source of workloads.GenSource
// rebuilt from its public pieces, driven serially with each piece
// timed: functional simulation (with the looped restart), cache and
// branch-predictor annotation, the statistics accumulator (twice, as the
// source and the streaming TDG builder each keep one) and the profile
// builder.
type serialSource struct {
	p    *prog.Program
	prep func(*sim.State)
	sp   *sim.Stepper
	h    *cache.Hierarchy
	bp   *bpred.Predictor
	pool *trace.ChunkPool
	pb   *ir.ProfileBuilder

	budget, base int
	restarted    bool
	done         bool
	err          error

	srcStats, sbStats trace.Stats

	t    *streamTimes
	span obs.Span
}

func newSerialSource(w *workloads.Workload, maxDyn int, t *streamTimes, span obs.Span) (*serialSource, error) {
	t0 := time.Now()
	p, prep := w.Build()
	cfg, err := ir.BuildCFG(p)
	if err != nil {
		return nil, err
	}
	s := &serialSource{
		p: p, prep: prep,
		h:      cache.DefaultHierarchy(),
		bp:     bpred.New(bpred.DefaultConfig()),
		pool:   trace.NewChunkPool(min(trace.DefaultChunkInsts, maxDyn)),
		pb:     ir.NewProfileBuilder(cfg, ir.BuildLoopNest(cfg)),
		budget: maxDyn,
		t:      t, span: span,
	}
	s.restart()
	t.build += time.Since(t0)
	return s, nil
}

func (s *serialSource) restart() {
	st := sim.NewState()
	if s.prep != nil {
		s.prep(st)
	}
	s.sp = sim.NewStepper(s.p, st)
	s.restarted = true
}

func (s *serialSource) Prog() *prog.Program { return s.p }
func (s *serialSource) Err() error          { return s.err }

// ChunkHighWaterBytes implements trace.ChunkAccounting.
func (s *serialSource) ChunkHighWaterBytes() int64 { return s.pool.HighWaterBytes() }

// timed runs fn under a child span and adds its time to *acc.
func (s *serialSource) timed(acc *time.Duration, name string, fn func()) {
	sp := s.span.Child("layer", name)
	t0 := time.Now()
	fn()
	*acc += time.Since(t0)
	sp.End()
}

// Next mirrors GenSource.Next with the looped restart.
func (s *serialSource) Next() (*trace.Chunk, bool) {
	t0 := time.Now()
	defer func() { s.t.next += time.Since(t0) }()
	if s.done || s.budget <= 0 {
		s.done = true
		return nil, false
	}
	c := s.pool.Get()
	want := min(s.pool.ChunkInsts(), s.budget)
	buf := c.Insts[:want]
	n := 0
	s.timed(&s.t.fill, "sim.Fill", func() {
		for n < want {
			w, running := s.sp.Fill(buf[n:want])
			n += w
			if w > 0 {
				s.restarted = false
			}
			if running {
				continue
			}
			if err := s.sp.Err(); err != nil {
				s.err, s.done = err, true
				return
			}
			if s.restarted {
				s.done = true
				return
			}
			s.restart()
		}
	})
	if n == 0 {
		c.Release()
		return nil, false
	}
	c.Insts, c.Base = buf[:n], s.base
	s.timed(&s.t.cacheAnn, "cache.AnnotateInsts", func() { s.h.AnnotateInsts(s.p, c.Insts) })
	s.timed(&s.t.bpredAnn, "bpred.AnnotateInsts", func() { s.bp.AnnotateInsts(s.p, c.Insts) })
	s.timed(&s.t.stats, "trace.Stats.Accumulate", func() {
		s.srcStats.Accumulate(s.p, c.Insts)
		s.sbStats.Accumulate(s.p, c.Insts)
	})
	s.timed(&s.t.profile, "ir.ProfileBuilder.Feed", func() { s.pb.Feed(c.Insts) })
	s.base += n
	s.budget -= n
	s.t.insts += n
	return c, true
}

// waitSource times the consumer's blocking in Next.
type waitSource struct {
	trace.Source
	wait time.Duration
}

func (w *waitSource) Next() (*trace.Chunk, bool) {
	t0 := time.Now()
	c, ok := w.Source.Next()
	w.wait += time.Since(t0)
	return c, ok
}

// streamArm streams every exemplar plainly, then serially with every
// piece timed (the outcome must match), then once more pipelined with
// the consumer's waits timed.
func (lg *ledger) streamArm(arm obs.Span) error {
	sz := lg.r.cfg.sizes
	maxDyn := sz.ledgerStreamMaxDyn
	ws, err := exemplars()
	if err != nil {
		return err
	}
	want := make([]streamOutcome, len(ws))
	t0 := time.Now()
	for i, w := range ws {
		if want[i], err = streamBaseline(w, maxDyn, sz.workers); err != nil {
			return err
		}
	}
	plain := time.Since(t0)
	runtime.GC()

	reg := obs.NewRegistry()
	var st streamTimes
	var runStream time.Duration
	start := time.Now()
	for i, w := range ws {
		sp := arm.Child("exemplar", w.Name)
		src, err := newSerialSource(w, maxDyn, &st, sp)
		if err != nil {
			sp.End()
			return err
		}
		before := st.next
		r0 := time.Now()
		res, err := exocore.RunStream(src, streamCore, exocore.RunOpts{Reg: reg})
		runStream += time.Since(r0) - (st.next - before)
		sp.End()
		if err != nil {
			return err
		}
		if err := src.Err(); err != nil {
			return err
		}
		got := streamOutcome{dyn: src.base, cycles: res.Cycles, counts: res.Counts, stats: src.srcStats, blocks: src.pb.Finish().BlockCount}
		lg.r.check(got.equal(want[i]) && src.sbStats == src.srcStats, "ledger stream %s: serial drive differs from StreamBaseline", w.Name)
	}
	traced := time.Since(start)

	var wait, total time.Duration
	for i, w := range ws {
		// The pipeline StreamBaseline builds, with the consumer's Next
		// wrapped.
		gen := w.Source(workloads.SourceConfig{MaxDyn: maxDyn, Loop: true})
		sb, err := tdg.NewStreamBuilder(gen.Prog())
		if err != nil {
			return err
		}
		pl := trace.NewPipelined(trace.Tee(gen, sb.Feed), 0)
		src := &waitSource{Source: pl}
		r0 := time.Now()
		res, err := exocore.RunStream(src, streamCore, exocore.RunOpts{})
		total += time.Since(r0)
		if err != nil {
			pl.Stop()
			return err
		}
		wait += src.wait
		lg.r.check(res.Cycles == want[i].cycles, "ledger stream %s: pipelined pass cycles differ", w.Name)
	}

	r := lg.r
	n := float64(st.insts)
	perInst := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / n }
	r.set("workloads.build_ms", st.build.Seconds()*1e3/float64(len(ws)), "ms")
	r.set("sim.fill_ns_per_inst", perInst(st.fill), "ns")
	r.set("cache.annotate_ns_per_inst", perInst(st.cacheAnn), "ns")
	r.set("bpred.annotate_ns_per_inst", perInst(st.bpredAnn), "ns")
	r.set("trace.stats_ns_per_inst", perInst(st.stats), "ns")
	r.set("ir.profile_ns_per_inst", perInst(st.profile), "ns")
	r.set("exocore.runstream_ns_per_inst", perInst(runStream), "ns")
	r.set("dg.graph_high_water_mib", mib(uint64(reg.Gauge("dg.graph_high_water_bytes").Value())), "MiB")
	r.set("trace.chunk_high_water_mib", mib(uint64(reg.Gauge("trace.chunk_high_water_bytes").Value())), "MiB")
	r.set("trace.consumer_wait_frac", wait.Seconds()/total.Seconds(), "ratio")
	layers := st.build + st.fill + st.cacheAnn + st.bpredAnn + st.stats + st.profile + runStream
	lg.account("stream", layers, traced, plain)
	return nil
}

// ---- serve ----

// serveArm boots the daemon warmed as the timed run does, sends the
// seeded sequence twice over HTTP (the second pass gives the served
// latencies), then replays it in-process plainly and traced.
func (lg *ledger) serveArm(arm obs.Span) error {
	r := lg.r
	sz := r.cfg.sizes
	seq, err := serveSequence(r.cfg.seed, sz.serveRequests)
	if err != nil {
		return err
	}
	d, err := bootServe(sz, nil)
	if err != nil {
		return err
	}
	defer d.stop()
	eng := d.eng
	reg := eng.Registry()
	ec0 := *eng.Metrics().EvalCache
	c := newClient()
	got := newResponses()
	var p2 passStats
	for pass := 0; pass < 2; pass++ {
		if p2, err = clientPass(r, c, d.url, seq, got); err != nil {
			return err
		}
	}
	c.CloseIdleConnections()
	ec1 := *eng.Metrics().EvalCache
	if err := got.verify(r, eng); err != nil {
		return err
	}

	ctx := context.Background()
	replay := func(trace bool, evalDoc, sweepDoc, rend *samples) (time.Duration, error) {
		t0 := time.Now()
		for i := range seq {
			rq := &seq[i]
			var sp obs.Span
			if trace {
				sp = arm.Child("request", rq.path())
			}
			b0 := time.Now()
			doc, err := rq.document(ctx, eng)
			b1 := time.Now()
			if err != nil {
				sp.End()
				return 0, err
			}
			body, err := render(doc)
			b2 := time.Now()
			sp.End()
			if err != nil {
				return 0, err
			}
			if trace {
				if rq.sweep {
					sweepDoc.add(b1.Sub(b0))
				} else {
					evalDoc.add(b1.Sub(b0))
				}
				rend.add(b2.Sub(b1))
				r.check(bytes.Equal(body, got.first[rq.key]), "ledger serve %s %s: traced render differs from the served body", rq.path(), rq.body)
			}
		}
		return time.Since(t0), nil
	}
	plain, err := replay(false, nil, nil, nil)
	if err != nil {
		return err
	}
	var evalDoc, sweepDoc, rend samples
	traced, err := replay(true, &evalDoc, &sweepDoc, &rend)
	if err != nil {
		return err
	}

	evalMS := durations(p2.evalLat, time.Millisecond)
	r.set("serve.evaluate_doc_us", evalDoc.medianIn(time.Microsecond), "us")
	r.set("serve.sweep_doc_ms", sweepDoc.medianIn(time.Millisecond), "ms")
	r.set("report.render_us", rend.medianIn(time.Microsecond), "us")
	r.set("serve.http_overhead_us", quantile(evalMS, 0.5)*1e3-evalPlusRenderMedianUS(&evalDoc, &rend, seq), "us")
	r.set("serve.evaluate_p50_ms", quantile(evalMS, 0.5), "ms")
	r.set("serve.evaluate_p99_ms", quantile(evalMS, 0.99), "ms")
	r.set("serve.evaluate_samples", float64(len(evalMS)), "count")
	r.set("serve.rps", float64(len(seq))/p2.wall.Seconds(), "req/s")
	r.set("serve.queue_waits", float64(reg.Histogram("serve.queue_wait_ns", nil).Count()), "count")
	r.set("serve.coalesced", float64(reg.Counter("serve.coalesced").Value()), "count")
	r.set("serve.rejected", float64(reg.Counter("serve.rejected").Value()), "count")
	hits, misses := ec1.Hits-ec0.Hits, ec1.Misses-ec0.Misses
	r.set("evalcache.miss_frac", float64(misses)/float64(hits+misses), "ratio")
	lg.account("serve", evalDoc.sum()+sweepDoc.sum()+rend.sum(), traced, plain)
	return nil
}

// evalPlusRenderMedianUS is the median, over the evaluate requests of
// the traced replay, of document build plus render, in microseconds.
func evalPlusRenderMedianUS(evalDoc, rend *samples, seq []request) float64 {
	var xs []float64
	e := 0
	for i := range seq {
		if seq[i].sweep {
			continue
		}
		xs = append(xs, float64(evalDoc.ds[e]+rend.ds[i])/1e3)
		e++
	}
	return median(xs)
}

// ---- fabric ----

// fabricProbe instruments a topology: per phase, per replica shard time
// and the shard bodies served, and store Get/Put latencies.
type fabricProbe struct {
	lg    *ledger
	phase atomic.Int32 // 0 = cold, 1 = restart

	shard  [2][fabricReplicas]busy
	gets   [2]samples
	puts   [2]samples
	bodyMu sync.Mutex
	bodies map[string][]byte // cold phase: shard request → response
}

func (p *fabricProbe) hooks() fabricHooks {
	return fabricHooks{
		persist: func(i int, st exocore.Persist) exocore.Persist {
			ph := p.phase.Load()
			return &timedPersist{p: st, gets: &p.gets[ph], puts: &p.puts[ph]}
		},
		handler: func(i int, h http.Handler) http.Handler {
			return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
				ph := p.phase.Load()
				var reqBody bytes.Buffer
				req.Body = teeBody{req.Body, &reqBody}
				cw := &captureWriter{ResponseWriter: w, code: http.StatusOK}
				sp := p.lg.tracer.Begin("fabric", "shard r"+strconv.Itoa(i+1)+" "+req.URL.Path)
				t0 := time.Now()
				h.ServeHTTP(cw, req)
				p.shard[ph][i].add(time.Since(t0))
				sp.End()
				if ph == 0 && req.URL.Path == "/v1/sweep" && cw.code == http.StatusOK {
					p.bodyMu.Lock()
					p.bodies[reqBody.String()] = cw.buf.Bytes()
					p.bodyMu.Unlock()
				}
			})
		},
	}
}

// timedPersist times a store's Get and Put.
type timedPersist struct {
	p          exocore.Persist
	gets, puts *samples
}

func (t *timedPersist) Get(key []byte) ([]byte, bool) {
	t0 := time.Now()
	v, ok := t.p.Get(key)
	t.gets.add(time.Since(t0))
	return v, ok
}

func (t *timedPersist) Put(key, val []byte) {
	t0 := time.Now()
	t.p.Put(key, val)
	t.puts.add(time.Since(t0))
}

// teeBody copies a request body as the handler reads it.
type teeBody struct {
	rc  io.ReadCloser
	buf *bytes.Buffer
}

func (t teeBody) Read(b []byte) (int, error) {
	n, err := t.rc.Read(b)
	t.buf.Write(b[:n])
	return n, err
}

func (t teeBody) Close() error { return t.rc.Close() }

// captureWriter keeps a copy of the response.
type captureWriter struct {
	http.ResponseWriter
	code int
	buf  bytes.Buffer
}

func (c *captureWriter) WriteHeader(code int) {
	c.code = code
	c.ResponseWriter.WriteHeader(code)
}

func (c *captureWriter) Write(b []byte) (int, error) {
	c.buf.Write(b)
	return c.ResponseWriter.Write(b)
}

// fabricArm runs a plain round, then an instrumented one, reading the
// coordinator's and the stores' registries between and after the
// phases, and times report.Merge over the captured cold-phase shards
// plus the aggregate part.
func (lg *ledger) fabricArm(arm obs.Span) error {
	r := lg.r
	sz := r.cfg.sizes
	dir := filepath.Join(r.cfg.workdir, "fabric-ledger-"+strconv.Itoa(os.Getpid()))
	defer os.RemoveAll(dir)
	want, err := fabricReference(sz.fabricMaxDyn, sz.workers)
	if err != nil {
		return err
	}
	fr0, err := runFabricRound(r, dir, sz.fabricMaxDyn, fabricHooks{}, want, nil, nil)
	if err != nil {
		return err
	}
	runtime.GC()

	p := &fabricProbe{lg: lg, bodies: map[string][]byte{}}
	var writes, entries, storeBytes, hits, misses int64
	var shards, steals, retries, hedges int64
	coldDone := func(t *topology) {
		for _, rep := range t.replicas {
			writes += rep.reg.Counter("store.writes").Value()
			occ := rep.st.Occupancy()
			entries += int64(occ.Entries)
			storeBytes += occ.Bytes
		}
		p.phase.Store(1)
	}
	done := func(t *topology) {
		for _, rep := range t.replicas {
			hits += rep.reg.Counter("store.hits").Value()
			misses += rep.reg.Counter("store.misses").Value()
		}
		shards = t.creg.Counter("fabric.shards").Value()
		steals = t.creg.Counter("fabric.steals").Value()
		retries = t.creg.Counter("fabric.retries").Value()
		hedges = t.creg.Counter("fabric.hedges").Value()
	}
	sp := arm.Child("phase", "rounds")
	fr, err := runFabricRound(r, dir, sz.fabricMaxDyn, p.hooks(), want, coldDone, done)
	sp.End()
	if err != nil {
		return err
	}

	// The merge the coordinator ran: every shard body plus the aggregate
	// rows, which the merged document carries.
	merged, err := report.Decode(bytes.NewReader(want))
	if err != nil {
		return err
	}
	agg := report.New(merged.Tool)
	for _, row := range merged.Results {
		if row.Bench == "" {
			agg.Add(row)
		}
	}
	aggBody, err := render(agg)
	if err != nil {
		return err
	}
	keys := make([]string, 0, len(p.bodies))
	for k := range p.bodies {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([][]byte, 0, len(keys)+1)
	for _, k := range keys {
		parts = append(parts, p.bodies[k])
	}
	parts = append(parts, aggBody)
	m0 := time.Now()
	remerged, err := report.Merge(parts...)
	mergeWall := time.Since(m0)
	r.check(err == nil && bytes.Equal(remerged, want), "ledger fabric: report.Merge over the captured shards differs from the coordinated sweep: %v", err)

	var shardSum time.Duration
	var busiest [2]time.Duration
	for ph := range p.shard {
		for i := range p.shard[ph] {
			d := p.shard[ph][i].get()
			busiest[ph] = max(busiest[ph], d)
			if ph == 0 {
				shardSum += d
			}
		}
	}
	r.set("fabric.shard_s", shardSum.Seconds(), "s")
	r.set("fabric.coord_overhead_s", (fr.cold - busiest[0]).Seconds(), "s")
	r.set("fabric.restart_s", fr.restart.Seconds(), "s")
	r.set("fabric.shards", float64(shards), "count")
	r.set("fabric.steals", float64(steals), "count")
	r.set("fabric.retries", float64(retries), "count")
	r.set("fabric.hedges", float64(hedges), "count")
	r.set("store.put_us", p.puts[0].medianIn(time.Microsecond), "us")
	r.set("store.writes", float64(writes), "count")
	r.set("store.entries", float64(entries), "count")
	r.set("store.mib", mib(uint64(storeBytes)), "MiB")
	r.set("store.open_s", fr.open.Seconds(), "s")
	r.set("store.get_us", p.gets[1].medianIn(time.Microsecond), "us")
	r.set("store.hit_ratio", float64(hits)/float64(hits+misses), "ratio")
	r.set("report.merge_ms", mergeWall.Seconds()*1e3, "ms")
	layers := busiest[0] + busiest[1] + fr.open + mergeWall
	lg.account("fabric", layers, fr.cold+fr.restart, fr0.cold+fr0.restart)
	return nil
}
