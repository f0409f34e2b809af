// Package serve is the evaluation-as-a-service layer: a long-running
// HTTP service wrapping one shared, warm runner.Engine so the expensive
// per-(benchmark, core) pipeline artifacts — traces, TDGs, scheduling
// contexts, assignment evaluations — are paid once and amortized over
// every request, instead of being rebuilt and thrown away per CLI
// invocation.
//
// The JSON API:
//
//	POST /v1/evaluate      one bench/core/BSA-set/scheduler query
//	POST /v1/sweep         a DSE sweep over a design-code list (or the
//	                       full grid); {"async": true} returns 202 + a
//	                       /resultz id
//	GET  /v1/capabilities  what this daemon can evaluate: BSA registry
//	                       (names + design-code letters), workloads,
//	                       cores, schedulers, warmed maxdyn
//	GET  /resultz/{id}     fetch an async sweep's document
//	GET  /healthz          liveness + queue/inflight snapshot + latency
//	                       p50/p95/p99
//	GET  /metricsz         the engine's internal/obs registry snapshot;
//	                       ?format=prom renders the Prometheus text
//	                       exposition format instead of JSON
//	GET  /debug/requests   flight recorder: bounded ring of recent and
//	                       slowest request summaries (id, key, status,
//	                       queue wait, latency, cache hits)
//	GET  /debug/requests/{id}/trace
//	                       one request's Chrome-trace fragment from the
//	                       shared ring tracer
//	GET  /debug/pprof/...  net/http/pprof profiles (Config.EnablePprof)
//
// Evaluation responses are the versioned exocore-result/v1 schema,
// byte-identical to the equivalent cmd/tdgsim / cmd/dse -json output
// for the same inputs (modulo the tool header and run-local metrics;
// the serve scenario of scripts/e2e gates this).
//
// Production behaviors, not the evaluation math, are this package's
// point: identical concurrent requests coalesce into one computation
// (singleflight, layered over the engine's stage memoization); a
// bounded admission queue sheds load with 429 + Retry-After instead of
// queueing without limit; every request carries a deadline and client
// disconnects cancel work at pipeline-stage boundaries; shutdown drains
// in-flight and async work before the process exits.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/pprof"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"exocore/internal/cores"
	"exocore/internal/obs"
	"exocore/internal/report"
	"exocore/internal/runner"
	"exocore/internal/store"
	"exocore/internal/workloads"
)

// Config configures a Server.
type Config struct {
	// Engine is the shared warm evaluation engine (required). Its
	// registry also receives the server's request metrics, so /metricsz
	// is one unified snapshot.
	Engine *runner.Engine
	// Concurrency bounds evaluations running at once (0 = the engine's
	// worker bound). Each admitted evaluation may itself fan out over
	// the engine's worker pool; this bounds admitted requests, not
	// goroutines.
	Concurrency int
	// QueueDepth bounds evaluations waiting for a slot before new ones
	// are rejected with 429 (0 = 4 × Concurrency).
	QueueDepth int
	// RequestTimeout is the per-request evaluation deadline (0 = 60s).
	// Requests may lower it per call via deadline_ms, never raise it.
	RequestTimeout time.Duration
	// Tracer, if non-nil, records one span per request plus the engine's
	// stage/segment spans underneath, each tagged with the request ID.
	// Pass an obs.NewRingTracer for always-on flight-recorder tracing.
	Tracer *obs.Tracer
	// Log, if non-nil, receives the per-request access-log line (info
	// level) and request-level debug records.
	Log *obs.Logger
	// EnablePprof mounts net/http/pprof under /debug/pprof/.
	EnablePprof bool
	// Role is this daemon's place in a sweep fabric ("single" when it
	// stands alone, "replica" behind a coordinator); surfaced through
	// /healthz and /v1/capabilities so operators and coordinators can
	// tell the topology apart. Empty defaults to "single".
	Role string
	// Store, if non-nil, is the persistent evaluation-unit store backing
	// the engine; /healthz reports its occupancy.
	Store *store.Store
}

// retryAfter is the Retry-After hint, in seconds, sent with every 429.
const retryAfter = "1"

// Server is the evaluation service. Create with New, mount via Handler,
// stop with Shutdown. Safe for concurrent use.
type Server struct {
	eng    *runner.Engine
	reg    *obs.Registry
	tracer *obs.Tracer
	log    *obs.Logger
	mux    *http.ServeMux
	role   string
	store  *store.Store

	flights    group
	slots      chan struct{}
	queueDepth int
	reqTimeout time.Duration
	waiting    atomic.Int64
	draining   atomic.Bool

	jobsMu  sync.Mutex
	jobs    map[string]*sweepJob
	jobSeq  atomic.Int64
	asyncWG sync.WaitGroup

	start  time.Time
	reqSeq atomic.Int64
	rec    *recorder

	mRequests, mEvaluations, mCoalesced, mRejected *obs.Counter
	mStatus2xx, mStatus4xx, mStatus5xx             *obs.Counter
	gInflight, gQueued                             *obs.Gauge
	gDroppedSpans, gRetainedSpans                  *obs.Gauge
	hLatency, hQueueWait                           *obs.Histogram
	stageHits                                      []*obs.Counter
}

// sweepJob is one async sweep: body/err are written once before done is
// closed, so readers synchronize on the channel.
type sweepJob struct {
	done chan struct{}
	body []byte
	err  error
}

// New creates a Server around a shared engine.
func New(cfg Config) (*Server, error) {
	if cfg.Engine == nil {
		return nil, errors.New("serve: Config.Engine is required")
	}
	conc := cfg.Concurrency
	if conc <= 0 {
		conc = cfg.Engine.Workers()
	}
	depth := cfg.QueueDepth
	if depth <= 0 {
		depth = 4 * conc
	}
	timeout := cfg.RequestTimeout
	if timeout <= 0 {
		timeout = 60 * time.Second
	}
	role := cfg.Role
	if role == "" {
		role = "single"
	}
	reg := cfg.Engine.Registry()
	s := &Server{
		eng:        cfg.Engine,
		reg:        reg,
		tracer:     cfg.Tracer,
		log:        cfg.Log,
		mux:        http.NewServeMux(),
		role:       role,
		store:      cfg.Store,
		slots:      make(chan struct{}, conc),
		queueDepth: depth,
		reqTimeout: timeout,
		jobs:       make(map[string]*sweepJob),
		start:      time.Now(),
		rec:        newRecorder(64, 16), // 64 recent requests, the 16 slowest

		mRequests:      reg.Counter("serve.requests"),
		mEvaluations:   reg.Counter("serve.evaluations"),
		mCoalesced:     reg.Counter("serve.coalesced"),
		mRejected:      reg.Counter("serve.rejected"),
		mStatus2xx:     reg.Counter("serve.status.2xx"),
		mStatus4xx:     reg.Counter("serve.status.4xx"),
		mStatus5xx:     reg.Counter("serve.status.5xx"),
		gInflight:      reg.Gauge("serve.inflight"),
		gQueued:        reg.Gauge("serve.queued"),
		gDroppedSpans:  reg.Gauge("obs.dropped_spans"),
		gRetainedSpans: reg.Gauge("obs.retained_spans"),
		hLatency:       reg.Histogram("serve.latency_ns", obs.DefaultWallBounds),
		hQueueWait:     reg.Histogram("serve.queue_wait_ns", obs.DefaultWallBounds),
	}
	// The engine-stage hit counters, resolved once: the flight recorder
	// attributes their growth across a request as its cache-hit count.
	for _, st := range []string{runner.StageTrace, runner.StageTDG, runner.StageSched, runner.StageEval, runner.StageReport} {
		s.stageHits = append(s.stageHits, reg.Counter("stage."+st+".hits"))
	}
	s.mux.HandleFunc("POST /v1/evaluate", s.handleEvaluate)
	s.mux.HandleFunc("POST /v1/sweep", s.handleSweep)
	s.mux.HandleFunc("GET /v1/capabilities", s.handleCapabilities)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metricsz", s.handleMetricsz)
	s.mux.HandleFunc("GET /resultz/{id}", s.handleResultz)
	s.mux.HandleFunc("GET /debug/requests", s.handleDebugRequests)
	s.mux.HandleFunc("GET /debug/requests/{id}/trace", s.handleDebugTrace)
	if cfg.EnablePprof {
		s.mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		s.mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("POST /debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	return s, nil
}

// engineHits sums the engine's stage cache-hit counters.
func (s *Server) engineHits() int64 {
	var n int64
	for _, c := range s.stageHits {
		n += c.Value()
	}
	return n
}

// statusWriter captures the response code for metrics and logging.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// Handler returns the server's HTTP handler: the route mux wrapped with
// per-request accounting — a generated request ID threaded through the
// context into every span and log record below, the latency/status
// instruments, the flight-recorder summary and one access-log line.
func (s *Server) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.mRequests.Add(1)
		id := "r" + strconv.FormatInt(s.reqSeq.Add(1), 10)
		st := &reqStats{}
		ctx := context.WithValue(obs.WithRequestID(r.Context(), id), statsKey{}, st)
		r = r.WithContext(ctx)
		w.Header().Set("X-Request-Id", id)
		hitsBefore := s.engineHits()
		sp := s.tracer.BeginCtx(ctx, "http", r.Method+" "+r.URL.Path)
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		startWall := time.Now()
		start := startWall
		s.mux.ServeHTTP(sw, r)
		wall := time.Since(start)
		s.hLatency.Observe(int64(wall))
		switch {
		case sw.code >= 500:
			s.mStatus5xx.Add(1)
		case sw.code >= 400:
			s.mStatus4xx.Add(1)
		default:
			s.mStatus2xx.Add(1)
		}
		sp.ArgInt("status", int64(sw.code)).End()
		queueWait := time.Duration(st.queueWaitNS.Load())
		s.rec.record(RequestRecord{
			ID: id, Method: r.Method, Path: r.URL.Path, Key: st.key,
			Status: sw.code, Coalesced: st.coalesced,
			QueueWaitNS: int64(queueWait), LatencyNS: int64(wall),
			CacheHits: s.engineHits() - hitsBefore, Start: startWall,
		})
		// The access-log line: one per request, correlated with the trace
		// fragment and flight-recorder summary by req=.
		s.log.InfoCtx(ctx, "request", "method", r.Method, "path", r.URL.Path,
			"key", st.key, "status", sw.code, "queue_wait", queueWait,
			"wall", wall, "coalesced", st.coalesced)
	})
}

// Shutdown drains the server: new evaluations are refused with 503 and
// running async sweeps are waited for. In-flight synchronous requests
// are drained by the caller's http.Server.Shutdown; call that first,
// then Shutdown with the same drain deadline. Returns ctx.Err() if the
// deadline passes with work still running.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	done := make(chan struct{})
	go func() {
		s.asyncWG.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("serve: drain: %w", ctx.Err())
	}
}

// errBusy rejects work when the admission queue is full.
var errBusy = errors.New("serve: admission queue full")

// admit acquires one of the bounded evaluation slots, waiting in the
// admission queue if all are busy. It fails fast with errBusy when the
// queue itself is full — the backpressure signal behind 429 — and with
// ctx.Err() when the caller gives up while queued. wait reports how long
// the caller sat in the queue (zero on immediate admission).
func (s *Server) admit(ctx context.Context) (release func(), wait time.Duration, err error) {
	acquired := false
	select {
	case s.slots <- struct{}{}:
		acquired = true
	default:
	}
	if !acquired {
		if s.waiting.Add(1) > int64(s.queueDepth) {
			s.waiting.Add(-1)
			s.mRejected.Add(1)
			return nil, 0, errBusy
		}
		s.gQueued.Set(s.waiting.Load())
		start := time.Now()
		defer func() {
			wait = time.Since(start)
			s.waiting.Add(-1)
			s.gQueued.Set(s.waiting.Load())
			s.hQueueWait.Observe(int64(wait))
		}()
		select {
		case s.slots <- struct{}{}:
		case <-ctx.Done():
			return nil, 0, ctx.Err()
		}
	}
	s.gInflight.Set(int64(len(s.slots)))
	return func() {
		<-s.slots
		s.gInflight.Set(int64(len(s.slots)))
	}, wait, nil
}

// timeoutFor resolves a request's deadline: the server default, lowered
// (never raised) by an explicit deadline_ms.
func (s *Server) timeoutFor(deadlineMS int) time.Duration {
	timeout := s.reqTimeout
	if d := time.Duration(deadlineMS) * time.Millisecond; deadlineMS > 0 && d < timeout {
		timeout = d
	}
	return timeout
}

// buildBytes is the shared execution path of every evaluation request:
// coalesce on the canonical key, pass admission control inside the
// flight (so joined requests don't consume extra slots), run the
// builder under the flight's detached context. The initiating request's
// ID is re-attached to the detached flight context so the engine's spans
// and log records stay correlated; joined requests keep their own ID on
// their (idle) handler context and are marked coalesced.
func (s *Server) buildBytes(ctx context.Context, key string, timeout time.Duration, build func(context.Context) ([]byte, error)) ([]byte, error) {
	st := statsFrom(ctx)
	reqID := obs.RequestID(ctx)
	body, shared, err := s.flights.do(ctx, key, timeout, func(fctx context.Context) ([]byte, error) {
		fctx = obs.WithRequestID(fctx, reqID)
		release, wait, err := s.admit(fctx)
		if err != nil {
			return nil, err
		}
		defer release()
		st.setQueueWait(wait)
		s.mEvaluations.Add(1)
		return build(fctx)
	})
	if shared {
		s.mCoalesced.Add(1)
		st.setCoalesced()
	}
	return body, err
}

// serveFlight runs buildBytes against an HTTP request and writes the
// outcome.
func (s *Server) serveFlight(w http.ResponseWriter, r *http.Request, key string, deadlineMS int, build func(context.Context) ([]byte, error)) {
	timeout := s.timeoutFor(deadlineMS)
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()
	body, err := s.buildBytes(ctx, key, timeout, build)
	s.writeOutcome(w, body, err)
}

// writeOutcome maps an evaluation outcome to an HTTP response.
func (s *Server) writeOutcome(w http.ResponseWriter, body []byte, err error) {
	switch {
	case err == nil:
		w.Header().Set("Content-Type", "application/json")
		w.Write(body)
	case errors.Is(err, errBusy):
		w.Header().Set("Retry-After", retryAfter)
		JSONError(w, http.StatusTooManyRequests, "admission queue full; retry later")
	case errors.Is(err, context.DeadlineExceeded):
		JSONError(w, http.StatusGatewayTimeout, "evaluation deadline exceeded")
	case errors.Is(err, context.Canceled):
		// The client is gone; the status is for the access log only.
		JSONError(w, http.StatusServiceUnavailable, "request canceled")
	default:
		s.log.Warn("evaluation failed", "err", err)
		JSONError(w, http.StatusInternalServerError, err.Error())
	}
}

func (s *Server) handleEvaluate(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		JSONError(w, http.StatusServiceUnavailable, "shutting down")
		return
	}
	var req EvalRequest
	if err := DecodeJSON(r, &req); err != nil {
		JSONError(w, http.StatusBadRequest, err.Error())
		return
	}
	q, err := resolveEval(req, s.eng)
	if err != nil {
		JSONError(w, http.StatusBadRequest, err.Error())
		return
	}
	statsFrom(r.Context()).setKey(q.key())
	s.serveFlight(w, r, q.key(), req.DeadlineMS, func(fctx context.Context) ([]byte, error) {
		doc, err := EvaluateDocument(fctx, s.eng, "exocored", q.wls, q.core, q.bsas, q.sched, s.tracer)
		if err != nil {
			return nil, err
		}
		return renderDoc(doc)
	})
}

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		JSONError(w, http.StatusServiceUnavailable, "shutting down")
		return
	}
	var req SweepRequest
	if err := DecodeJSON(r, &req); err != nil {
		JSONError(w, http.StatusBadRequest, err.Error())
		return
	}
	q, err := resolveSweep(req, s.eng)
	if err != nil {
		JSONError(w, http.StatusBadRequest, err.Error())
		return
	}
	statsFrom(r.Context()).setKey(q.key())
	build := func(fctx context.Context) ([]byte, error) {
		doc, err := SweepDocument(fctx, s.eng, "exocored", q.wls, q.designs, q.sched, q.partial)
		if err != nil {
			return nil, err
		}
		return renderDoc(doc)
	}
	if req.Async {
		id := "sweep-" + strconv.FormatInt(s.jobSeq.Add(1), 10)
		job := &sweepJob{done: make(chan struct{})}
		s.jobsMu.Lock()
		s.jobs[id] = job
		s.jobsMu.Unlock()
		timeout := s.timeoutFor(req.DeadlineMS)
		s.asyncWG.Add(1)
		go func() {
			defer s.asyncWG.Done()
			defer close(job.done)
			// The job ID doubles as the trace/request ID, so the sweep's
			// spans are retrievable from /debug/requests/{id}/trace and a
			// completion record lands in the flight recorder.
			st := &reqStats{key: q.key()}
			ctx := context.WithValue(obs.WithRequestID(context.Background(), id), statsKey{}, st)
			ctx, cancel := context.WithTimeout(ctx, timeout)
			defer cancel()
			start := time.Now()
			job.body, job.err = s.buildBytes(ctx, q.key(), timeout, build)
			status := http.StatusOK
			if job.err != nil {
				status = http.StatusInternalServerError
			}
			s.rec.record(RequestRecord{
				ID: id, Method: "ASYNC", Path: "/v1/sweep", Key: q.key(),
				Status: status, Coalesced: st.coalesced,
				QueueWaitNS: st.queueWaitNS.Load(),
				LatencyNS:   int64(time.Since(start)), Start: start,
			})
		}()
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusAccepted)
		json.NewEncoder(w).Encode(map[string]string{
			"id": id, "status": "accepted", "result": "/resultz/" + id,
		})
		return
	}
	s.serveFlight(w, r, q.key(), req.DeadlineMS, build)
}

func (s *Server) handleResultz(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.jobsMu.Lock()
	job := s.jobs[id]
	s.jobsMu.Unlock()
	if job == nil {
		JSONError(w, http.StatusNotFound, "unknown result id "+strconv.Quote(id))
		return
	}
	select {
	case <-job.done:
		s.writeOutcome(w, job.body, job.err)
	default:
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusAccepted)
		json.NewEncoder(w).Encode(map[string]string{"id": id, "status": "running"})
	}
}

// handleCapabilities reports what this daemon instance can evaluate, so
// clients discover the evaluable space instead of guessing against 400s:
// the engine's BSA registry (which -bsas may have restricted below the
// compiled-in default), the workload/core registries, the scheduler
// names, and the maxdyn budget the engine is warmed for.
func (s *Server) handleCapabilities(w http.ResponseWriter, r *http.Request) {
	reg := s.eng.BSAs()
	type bsaCap struct {
		Name    string  `json:"name"`
		Letter  string  `json:"letter"`
		AreaMM2 float64 `json:"area_mm2"`
	}
	models := reg.New()
	bsas := make([]bsaCap, 0, reg.Len())
	for _, e := range reg.Entries() {
		bsas = append(bsas, bsaCap{
			Name:    e.Name,
			Letter:  string(e.Letter),
			AreaMM2: models[e.Name].AreaMM2(),
		})
	}
	type wlCap struct {
		Name     string `json:"name"`
		Suite    string `json:"suite"`
		Category string `json:"category"`
	}
	wls := make([]wlCap, 0, len(workloads.All()))
	for _, wl := range workloads.All() {
		wls = append(wls, wlCap{Name: wl.Name, Suite: wl.Suite, Category: string(wl.Category)})
	}
	coreNames := make([]string, 0, len(cores.Configs))
	for _, c := range cores.Configs {
		coreNames = append(coreNames, c.Name)
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(map[string]any{
		"bsas":       bsas,
		"workloads":  wls,
		"cores":      coreNames,
		"schedulers": []string{"oracle", "amdahl"},
		"maxdyn":     s.eng.MaxDyn(),
		"fabric":     map[string]any{"role": s.role},
	})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	status := "ok"
	if s.draining.Load() {
		status = "draining"
	}
	w.Header().Set("Content-Type", "application/json")
	h := map[string]any{
		"status":    status,
		"role":      s.role,
		"uptime_ms": time.Since(s.start).Milliseconds(),
		"inflight":  len(s.slots),
		"queued":    s.waiting.Load(),
		"maxdyn":    s.eng.MaxDyn(),
		"latency_ns": map[string]float64{
			"p50": s.hLatency.Quantile(0.50),
			"p95": s.hLatency.Quantile(0.95),
			"p99": s.hLatency.Quantile(0.99),
		},
	}
	if s.store != nil {
		h["store"] = s.store.Occupancy()
	}
	json.NewEncoder(w).Encode(h)
}

func (s *Server) handleMetricsz(w http.ResponseWriter, r *http.Request) {
	s.gDroppedSpans.Set(s.tracer.Dropped())
	s.gRetainedSpans.Set(int64(s.tracer.Len()))
	m := s.eng.Metrics()
	if r.URL.Query().Get("format") == "prom" {
		w.Header().Set("Content-Type", obs.PromContentType)
		obs.WriteProm(w, m.Points)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(m)
}

// handleDebugRequests serves the flight recorder: the bounded ring of
// recent requests (newest first), the slowest-request leaderboard, and
// the ring tracer's retention counters.
func (s *Server) handleDebugRequests(w http.ResponseWriter, r *http.Request) {
	s.gDroppedSpans.Set(s.tracer.Dropped())
	s.gRetainedSpans.Set(int64(s.tracer.Len()))
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(map[string]any{
		"recent":         s.rec.recent(),
		"slowest":        s.rec.slow(),
		"dropped_spans":  s.tracer.Dropped(),
		"retained_spans": s.tracer.Len(),
	})
}

// handleDebugTrace serves one request's Chrome-trace fragment from the
// shared ring tracer. 404 for IDs the flight recorder no longer (or
// never) knew; a known request whose spans have been evicted from the
// ring yields a valid, possibly empty, fragment.
func (s *Server) handleDebugTrace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if _, ok := s.rec.lookup(id); !ok {
		JSONError(w, http.StatusNotFound, "unknown request id "+strconv.Quote(id))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	s.tracer.WriteRequest(w, id)
}

// renderDoc serializes a document exactly as the CLI tools do (sorted,
// indented) so responses byte-match their output.
func renderDoc(doc *report.Document) ([]byte, error) {
	var buf bytes.Buffer
	if err := doc.Write(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// DecodeJSON strictly decodes a request body of at most 1 MiB: unknown
// fields and trailing data are errors, so client typos fail loudly
// instead of silently evaluating defaults. The fabric coordinator
// decodes with it too, so both tiers accept exactly the same bodies.
func DecodeJSON(r *http.Request, dst any) error {
	dec := json.NewDecoder(http.MaxBytesReader(nil, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		return fmt.Errorf("bad request body: %w", err)
	}
	if dec.More() {
		return errors.New("bad request body: trailing data")
	}
	return nil
}

// JSONError writes an {"error": msg} document with the given status.
func JSONError(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": msg})
}
