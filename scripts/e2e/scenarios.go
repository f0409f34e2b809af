package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"time"

	"exocore/internal/bsa"
	"exocore/internal/cores"
	"exocore/internal/exocore"
	"exocore/internal/obs"
	"exocore/internal/report"
	"exocore/internal/tdg"
	"exocore/internal/trace"
	"exocore/internal/workloads"
)

// traceScenario: tdgsim's -trace output must be a well-formed, properly
// nested Chrome trace-event array with at least one span.
func traceScenario(e *env) (string, error) {
	path := filepath.Join(e.tmp, "mm-trace.json")
	if _, err := e.runTool("tdgsim", "-bench", "mm", "-trace", path); err != nil {
		return "", err
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return "", err
	}
	spans, err := obs.ValidateTrace(data)
	if err != nil {
		return "", fmt.Errorf("tdgsim -trace: %w", err)
	}
	if spans == 0 {
		return "", fmt.Errorf("tdgsim -trace wrote no spans")
	}
	return fmt.Sprintf("%d spans", spans), nil
}

// The serve and obs daemons answer this point evaluation, which must
// match tdgsim -json for the same inputs.
const (
	serveMaxDyn = "15000"
	evalReq     = `{"bench":"mm","core":"OOO2","bsas":"all","sched":"oracle","maxdyn":` + serveMaxDyn + `}`
)

// checkEvaluate posts evalReq and holds the response to tdgsim -json,
// returning the response body and its request ID.
func checkEvaluate(e *env, d *daemon) ([]byte, string, error) {
	body, reqID, err := postJSON(d.base+"/v1/evaluate", evalReq)
	if err != nil {
		return nil, "", fmt.Errorf("evaluate: %w", err)
	}
	cli, err := e.runTool("tdgsim", "-bench", "mm", "-core", "OOO2", "-bsas", "all", "-sched", "oracle",
		"-maxdyn", serveMaxDyn, "-json")
	if err != nil {
		return nil, "", err
	}
	return body, reqID, compareDocs("evaluate vs tdgsim", body, cli)
}

// serveScenario: a daemon with default flags must report healthy,
// answer /v1/evaluate and /v1/sweep byte-identically to tdgsim -json
// and dse -json, repeat a warm query byte for byte, and drain to exit 0
// on SIGTERM.
func serveScenario(e *env) (string, error) {
	d, err := startDaemon(e, "serve", "-addr", "127.0.0.1:0", "-maxdyn", serveMaxDyn)
	if err != nil {
		return "", err
	}
	defer d.kill()
	if h, err := healthz(d.base); err != nil {
		return "", err
	} else if h.Status != "ok" {
		return "", fmt.Errorf("healthz status %q, want ok", h.Status)
	}
	evalBody, _, err := checkEvaluate(e, d)
	if err != nil {
		return "", err
	}
	sweepBody, _, err := postJSON(d.base+"/v1/sweep", `{"bench":"mm","maxdyn":`+serveMaxDyn+`}`)
	if err != nil {
		return "", fmt.Errorf("sweep: %w", err)
	}
	dseBody, err := e.runTool("dse", "-bench", "mm", "-maxdyn", serveMaxDyn, "-json")
	if err != nil {
		return "", err
	}
	if err := compareDocs("sweep vs dse", sweepBody, dseBody); err != nil {
		return "", err
	}
	again, _, err := postJSON(d.base+"/v1/evaluate", evalReq)
	if err != nil {
		return "", fmt.Errorf("warm evaluate: %w", err)
	}
	if !bytes.Equal(evalBody, again) {
		return "", fmt.Errorf("warm evaluate differs from the first response")
	}
	return "evaluate and sweep match tdgsim and dse", d.drain()
}

// goldenSeries are Prometheus series names that must appear in the
// exposition: server counters and latency histogram, engine stage
// instruments, the evaluation cache, ring-tracer retention, and the
// runtime sampler's go_* metrics.
var goldenSeries = []string{
	"serve_requests_total",
	"serve_status_2xx_total",
	"serve_latency_ns_bucket",
	"serve_latency_ns_sum",
	"serve_latency_ns_count",
	"stage_trace_calls_total",
	"stage_tdg_calls_total",
	"stage_eval_wall_ns_sum",
	"evalcache_entries",
	"obs_retained_spans",
	"go_goroutines",
	"go_heap_inuse_bytes",
	"go_mem_total_bytes",
	"go_gc_cycles",
	"go_gc_pause_ns_count",
	"go_sched_latency_ns_bucket",
}

// obsScenario: a daemon with always-on flight-recorder tracing, a fast
// runtime sampler and pprof must still match tdgsim -json, expose a
// Prometheus page with at least 20 series including every golden name,
// serve a goroutine profile, retain the evaluation in /debug/requests
// with a valid trace fragment, answer the same evaluation again from
// the engine's memos alone, and drain to exit 0 on SIGTERM.
func obsScenario(e *env) (string, error) {
	d, err := startDaemon(e, "obs", "-addr", "127.0.0.1:0", "-maxdyn", serveMaxDyn,
		"-pprof", "-obs-interval", "50ms")
	if err != nil {
		return "", err
	}
	defer d.kill()
	_, reqID, err := checkEvaluate(e, d)
	if err != nil {
		return "", err
	}
	if reqID == "" {
		return "", fmt.Errorf("evaluate response has no X-Request-Id header")
	}
	series, err := checkProm(d.base)
	if err != nil {
		return "", err
	}
	if prof, _, err := get(d.base + "/debug/pprof/goroutine?debug=1"); err != nil {
		return "", fmt.Errorf("pprof: %w", err)
	} else if len(prof) == 0 {
		return "", fmt.Errorf("pprof goroutine profile is empty")
	}
	_, _, spans, err := debugRequest(d.base, reqID)
	if err != nil {
		return "", err
	}
	hits, err := checkWarmRepeat(d.base)
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("%d prom series, %d fragment spans, %d stage hits on the repeat", series, spans, hits), d.drain()
}

// checkProm scrapes the Prometheus exposition and verifies its content
// type, series breadth and the golden names.
func checkProm(base string) (int, error) {
	body, h, err := get(base + "/metricsz?format=prom")
	if err != nil {
		return 0, fmt.Errorf("metricsz prom: %w", err)
	}
	if ct := h.Get("Content-Type"); ct != obs.PromContentType {
		return 0, fmt.Errorf("metricsz prom: Content-Type %q, want %q", ct, obs.PromContentType)
	}
	series := make(map[string]bool)
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name := line
		if i := strings.IndexAny(line, "{ "); i >= 0 {
			name = line[:i]
		}
		if name == "" {
			return 0, fmt.Errorf("metricsz prom: malformed sample line %q", line)
		}
		series[name] = true
	}
	if len(series) < 20 {
		return 0, fmt.Errorf("metricsz prom: %d distinct series, want >= 20", len(series))
	}
	for _, want := range goldenSeries {
		if !series[want] {
			return 0, fmt.Errorf("metricsz prom: missing golden series %q (have %d series)", want, len(series))
		}
	}
	return len(series), nil
}

// debugRecord is the part of a /debug/requests record the scenarios
// read.
type debugRecord struct {
	ID        string `json:"id"`
	Key       string `json:"key"`
	Status    int    `json:"status"`
	LatencyNS int64  `json:"latency_ns"`
	CacheHits int64  `json:"cache_hits"`
}

// debugRequest finds reqID in the flight recorder's recent ring and
// fetches its per-request trace fragment, which must validate and hold
// at least one span; it returns the record, the fragment and the
// fragment's span count.
func debugRequest(base, reqID string) (debugRecord, []byte, int, error) {
	fail := func(format string, a ...any) (debugRecord, []byte, int, error) {
		return debugRecord{}, nil, 0, fmt.Errorf(format, a...)
	}
	var dbg struct {
		Recent []debugRecord `json:"recent"`
	}
	if err := getJSON(base+"/debug/requests", &dbg); err != nil {
		return fail("debug/requests: %w", err)
	}
	var rec *debugRecord
	for i := range dbg.Recent {
		if dbg.Recent[i].ID == reqID {
			rec = &dbg.Recent[i]
		}
	}
	if rec == nil {
		return fail("debug/requests: evaluation %s not in recent ring", reqID)
	}
	if !strings.HasPrefix(rec.Key, "eval|mm|") {
		return fail("debug/requests: record %s key %q, want eval|mm| prefix", reqID, rec.Key)
	}
	if rec.Status != http.StatusOK || rec.LatencyNS <= 0 {
		return fail("debug/requests: record %s status=%d latency=%d", reqID, rec.Status, rec.LatencyNS)
	}
	frag, _, err := get(base + "/debug/requests/" + reqID + "/trace")
	if err != nil {
		return fail("trace fragment: %w", err)
	}
	n, err := obs.ValidateTrace(frag)
	if err != nil {
		return fail("trace fragment invalid: %w", err)
	}
	if n < 1 {
		return fail("trace fragment has %d spans, want >= 1", n)
	}
	return *rec, frag, n, nil
}

// checkWarmRepeat sends the evaluation again. The engine must answer it
// from its memos: the flight recorder counts at least three stage hits
// (tdg, sched and report), and the trace fragment holds no segment
// span, because no evaluation unit is looked up or recomposed. It
// returns the hit count.
func checkWarmRepeat(base string) (int64, error) {
	_, reqID, err := postJSON(base+"/v1/evaluate", evalReq)
	if err != nil {
		return 0, fmt.Errorf("repeat evaluate: %w", err)
	}
	rec, frag, _, err := debugRequest(base, reqID)
	if err != nil {
		return 0, err
	}
	if rec.CacheHits < 3 {
		return 0, fmt.Errorf("repeat evaluate %s: %d stage cache hits, want >= 3 (tdg, sched, report)", reqID, rec.CacheHits)
	}
	var events []struct {
		Cat  string `json:"cat"`
		Name string `json:"name"`
	}
	if err := json.Unmarshal(frag, &events); err != nil {
		return 0, fmt.Errorf("repeat evaluate %s: trace fragment: %w", reqID, err)
	}
	for _, ev := range events {
		if ev.Cat == "segment" {
			return 0, fmt.Errorf("repeat evaluate %s: trace fragment has segment span %q, want the attributed run served from the report memo", reqID, ev.Name)
		}
	}
	return rec.CacheHits, nil
}

// graphScenario: one graph benchmark through dse over the full
// five-model registry must enumerate the 4-core × 2^5-subset grid,
// half of it with GS-DAE, with one bfs row per design — so registry
// growth can never silently stop reaching the exploration grid.
func graphScenario(e *env) (string, error) {
	out, err := e.runTool("dse", "-bench", "bfs", "-maxdyn", "8000", "-json")
	if err != nil {
		return "", err
	}
	doc, err := report.Decode(bytes.NewReader(out))
	if err != nil {
		return "", err
	}
	designs := map[string]bool{}
	gsdaeDesigns, benchRows := 0, 0
	for _, r := range doc.Results {
		if !designs[r.Design] {
			designs[r.Design] = true
			if _, letters, ok := strings.Cut(r.Design, "-"); ok && strings.Contains(letters, "G") {
				gsdaeDesigns++
			}
		}
		if r.Bench == "bfs" {
			benchRows++
		}
	}
	const wantDesigns = 4 * 32
	if len(designs) != wantDesigns {
		return "", fmt.Errorf("%d distinct designs, want %d (did the grid stop following the registry?)", len(designs), wantDesigns)
	}
	if gsdaeDesigns != wantDesigns/2 {
		return "", fmt.Errorf("%d GS-DAE designs, want %d", gsdaeDesigns, wantDesigns/2)
	}
	if benchRows != wantDesigns {
		return "", fmt.Errorf("%d bfs rows, want one per design (%d)", benchRows, wantDesigns)
	}
	return fmt.Sprintf("%d designs, %d with GS-DAE, %d bfs rows", len(designs), gsdaeDesigns, benchRows), nil
}

// sweepMaxRSSMiB bounds the peak resident set of a cold full-suite dse
// sweep. The exploration drops each bench's trace, TDG and contexts
// once its rows are in, so it holds the benches in progress, not the
// suite's: dse -bench all -maxdyn 20000 -workers 2 -json peaked at
// 43.2–46.2 MiB on an idle 2-vCPU host (Go 1.24) and at 43.9–48.4 MiB
// beside a race-enabled go test run; with every bench resident until
// the last design it peaked at 84.0–86.5 MiB.
const sweepMaxRSSMiB = 64

// sweepScenario: a cold sweep of every workload over the full grid
// must render one row per (design, bench) plus one per design, and stay
// under sweepMaxRSSMiB. The worker count is pinned because the benches
// in progress grow with it. The bound reads the dse child's own rusage,
// so this scenario can share its process.
func sweepScenario(e *env) (string, error) {
	out, rss, err := e.runToolRSS("dse", "-bench", "all", "-maxdyn", "20000", "-workers", "2", "-json")
	if err != nil {
		return "", err
	}
	doc, err := report.Decode(bytes.NewReader(out))
	if err != nil {
		return "", err
	}
	designs := 4 << bsa.Default().Len()
	if want := designs * (len(workloads.All()) + 1); len(doc.Results) != want {
		return "", fmt.Errorf("%d rows, want %d", len(doc.Results), want)
	}
	if rss == 0 {
		return "", fmt.Errorf("no peak RSS reported for the dse child")
	}
	if rss > sweepMaxRSSMiB {
		return "", fmt.Errorf("cold full-suite sweep peaked at %.1f MiB RSS, bound %d MiB", rss, sweepMaxRSSMiB)
	}
	return fmt.Sprintf("%d rows, peak RSS %.1f MiB (bound %d MiB)", len(doc.Results), rss, sweepMaxRSSMiB), nil
}

const (
	fabricMaxDyn = "12000"
	// sweepDesigns spans three cores so the grid shards across replicas.
	sweepDesigns = `["IO2","IO2-SD","OOO2","OOO2-S","OOO2-SDN","OOO4-N","OOO4-SD"]`
)

// fabricScenario boots two replicas (one backed by a persistent
// -store), a coordinator in front of them and a reference single
// daemon, then requires
//
//  1. a coordinated sweep to be byte-identical to the single daemon's;
//  2. the same identity when replica2 is SIGKILLed while it evaluates
//     a shard, with the coordinator's fabric.retries growing (its
//     shards failed over) and its /healthz degrading honestly;
//  3. replica1, restarted with the same -store, to come up fully warm:
//     a nonzero store occupancy at boot, the pre-kill bytes for a
//     repeated shard-shaped partial sweep, nonzero store.hits and zero
//     store.misses (it answered that shard before the kill, so every
//     unit it needs is in the store);
//  4. bad -role/-replicas/-store flags to fail fast with helpful
//     messages;
//  5. SIGTERM to drain every surviving process to a clean exit 0.
func fabricScenario(e *env) (string, error) {
	storeDir := filepath.Join(e.tmp, "store")

	// Phase 4 first: flag validation fails fast, before any daemon boots.
	if err := checkFlagValidation(e); err != nil {
		return "", err
	}

	boot := func(name string, args ...string) (*daemon, error) {
		return startDaemon(e, name, append([]string{"-maxdyn", fabricMaxDyn}, args...)...)
	}
	r1, err := boot("replica1", "-addr", "127.0.0.1:0", "-role", "replica", "-store", storeDir)
	if err != nil {
		return "", err
	}
	defer r1.kill()
	r2, err := boot("replica2", "-addr", "127.0.0.1:0", "-role", "replica")
	if err != nil {
		return "", err
	}
	defer r2.kill()
	coord, err := boot("coordinator", "-addr", "127.0.0.1:0", "-role", "coordinator", "-replicas", r1.base+","+r2.base)
	if err != nil {
		return "", err
	}
	defer coord.kill()
	single, err := boot("single", "-addr", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer single.kill()

	// Phase 1: coordinated sweep == single-daemon sweep, byte for byte.
	sweepReq := `{"bench":"mm,fft","designs":` + sweepDesigns + `,"maxdyn":` + fabricMaxDyn + `}`
	fabricBody, _, err := postJSON(coord.base+"/v1/sweep", sweepReq)
	if err != nil {
		return "", fmt.Errorf("coordinated sweep: %w", err)
	}
	singleBody, _, err := postJSON(single.base+"/v1/sweep", sweepReq)
	if err != nil {
		return "", fmt.Errorf("single-daemon sweep: %w", err)
	}
	if !bytes.Equal(fabricBody, singleBody) {
		return "", fmt.Errorf("coordinated sweep is not byte-identical to the single daemon\n--- fabric ---\n%.2000s\n--- single ---\n%.2000s", fabricBody, singleBody)
	}
	if err := checkRendered(fabricBody); err != nil {
		return "", fmt.Errorf("coordinated sweep: %w", err)
	}
	if err := checkCoordHealth(coord.base, 2, "ok"); err != nil {
		return "", err
	}

	// Seed replica1's store with a shard-shaped partial sweep before the
	// kill: this is the exact unit of work a restarted replica must serve
	// warm.
	shardReq := `{"bench":"mm","designs":["OOO2","OOO2-S","OOO2-SDN"],"partial":true,"maxdyn":` + fabricMaxDyn + `}`
	shardBefore, _, err := postJSON(r1.base+"/v1/sweep", shardReq)
	if err != nil {
		return "", fmt.Errorf("seed shard on replica1: %w", err)
	}

	// Phase 2: SIGKILL replica2 while it holds a shard; the coordinator
	// must fail its work over to the survivor with identical bytes.
	// Benchmarks neither replica has warmed keep the amdahl sweep busy
	// long enough to catch replica2 mid-shard.
	retriesBefore, err := metric(coord.base, "fabric.retries")
	if err != nil {
		return "", err
	}
	killReq := `{"bench":"gzip,vpr,parser","designs":` + sweepDesigns + `,"sched":"amdahl","maxdyn":` + fabricMaxDyn + `}`
	type sweepResult struct {
		body []byte
		err  error
	}
	done := make(chan sweepResult, 1)
	go func() {
		b, _, err := postJSON(coord.base+"/v1/sweep", killReq)
		done <- sweepResult{b, err}
	}()
	if err := awaitInflight(r2); err != nil {
		return "", err
	}
	r2.kill()
	res := <-done
	if res.err != nil {
		return "", fmt.Errorf("sweep with replica2 killed mid-shard: %w", res.err)
	}
	wantKill, _, err := postJSON(single.base+"/v1/sweep", killReq)
	if err != nil {
		return "", fmt.Errorf("single-daemon amdahl sweep: %w", err)
	}
	if !bytes.Equal(res.body, wantKill) {
		return "", fmt.Errorf("sweep completed after replica kill but diverges from the single daemon")
	}
	retriesAfter, err := metric(coord.base, "fabric.retries")
	if err != nil {
		return "", err
	}
	if retriesAfter <= retriesBefore {
		return "", fmt.Errorf("fabric.retries stayed at %d although replica2 died holding a shard", retriesAfter)
	}
	if err := checkCoordHealth(coord.base, 1, "degraded"); err != nil {
		return "", err
	}

	// Phase 3: kill replica1 and restart it on its ORIGINAL address with
	// the same -store; the ring (keyed by URL) is unchanged, and the
	// replica must come up warm.
	r1.kill()
	r1b, err := boot("replica1-restarted", "-addr", r1.addr, "-role", "replica", "-store", storeDir)
	if err != nil {
		return "", fmt.Errorf("restart replica1 on %s: %w", r1.addr, err)
	}
	defer r1b.kill()
	if h, err := healthz(r1b.base); err != nil {
		return "", err
	} else if h.Store.Entries == 0 {
		return "", fmt.Errorf("restarted replica reports an empty store; expected the pre-kill entries")
	}
	shardAfter, _, err := postJSON(r1b.base+"/v1/sweep", shardReq)
	if err != nil {
		return "", fmt.Errorf("shard on restarted replica: %w", err)
	}
	if !bytes.Equal(shardBefore, shardAfter) {
		return "", fmt.Errorf("restarted replica's shard differs from the pre-kill shard")
	}
	hits, err := metric(r1b.base, "store.hits")
	if err != nil {
		return "", err
	}
	if hits == 0 {
		return "", fmt.Errorf("restarted replica served its first shard with store.hits = 0; the persistent store was not used")
	}
	misses, err := metric(r1b.base, "store.misses")
	if err != nil {
		return "", err
	}
	if misses != 0 {
		return "", fmt.Errorf("restarted replica served its first shard with store.misses = %d; units it evaluated before the kill were not in the store", misses)
	}

	// The fabric still answers (degraded to one live replica) and still
	// matches the single daemon.
	fabricAgain, _, err := postJSON(coord.base+"/v1/sweep", sweepReq)
	if err != nil {
		return "", fmt.Errorf("coordinated sweep after restart: %w", err)
	}
	if !bytes.Equal(fabricAgain, singleBody) {
		return "", fmt.Errorf("coordinated sweep after replica restart diverges from the single daemon")
	}

	// Phase 5: everyone left drains cleanly.
	for _, d := range []*daemon{coord, r1b, single} {
		if err := d.drain(); err != nil {
			return "", err
		}
	}
	return fmt.Sprintf("fabric.retries %d -> %d across the kill, %d store hits and 0 misses after restart",
		retriesBefore, retriesAfter, hits), nil
}

// awaitInflight polls a replica's /healthz until it reports a request
// in flight, for at most 10 s.
func awaitInflight(d *daemon) error {
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		h, err := healthz(d.base)
		if err != nil {
			return err
		}
		if h.Inflight >= 1 {
			return nil
		}
		time.Sleep(2 * time.Millisecond)
	}
	return fmt.Errorf("%s had no request in flight within 10s", d.name)
}

// checkFlagValidation requires the misuse cases to exit non-zero with
// a message naming the problem. Each case runs under a timeout: a case
// that validation wrongly accepts would start serving and never exit.
func checkFlagValidation(e *env) error {
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"typoed role", []string{"-role", "cordinator"}, `did you mean "coordinator"?`},
		{"coordinator without replicas", []string{"-role", "coordinator"}, "empty replica list"},
		{"duplicate replicas", []string{"-role", "coordinator", "-replicas", "http://a:1,http://a:1"}, "duplicate replica"},
		{"blank replica entry", []string{"-role", "coordinator", "-replicas", "http://a:1,,http://b:1"}, "empty replica entry"},
		{"replicas without coordinator", []string{"-replicas", "http://a:1"}, "only meaningful with -role coordinator"},
		{"store on coordinator", []string{"-role", "coordinator", "-replicas", "http://a:1", "-store", filepath.Join(e.tmp, "reject")}, "coordinator computes nothing"},
		{"unwritable store", []string{"-store", "/proc/exocore-e2e-unwritable"}, "-store"},
	}
	for _, c := range cases {
		ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		cmd := exec.CommandContext(ctx, filepath.Join(e.bin, "exocored"), append([]string{"-addr", "127.0.0.1:0"}, c.args...)...)
		out, err := cmd.CombinedOutput()
		timedOut := ctx.Err() != nil
		cancel()
		if err == nil || timedOut {
			return fmt.Errorf("flag validation (%s): exocored accepted %v", c.name, c.args)
		}
		if !strings.Contains(string(out), c.want) {
			return fmt.Errorf("flag validation (%s): error output %q does not mention %q", c.name, out, c.want)
		}
	}
	return nil
}

// checkCoordHealth asserts the coordinator's role, status and live
// replica count.
func checkCoordHealth(base string, wantAlive int, wantStatus string) error {
	h, err := healthz(base)
	if err != nil {
		return fmt.Errorf("coordinator healthz: %w", err)
	}
	if h.Role != "coordinator" {
		return fmt.Errorf("coordinator healthz role = %q", h.Role)
	}
	if h.Status != wantStatus {
		return fmt.Errorf("coordinator healthz status = %q, want %q", h.Status, wantStatus)
	}
	alive := 0
	for _, r := range h.Replicas {
		if r.Alive {
			alive++
		}
	}
	if alive != wantAlive {
		return fmt.Errorf("coordinator healthz reports %d live replicas, want %d", alive, wantAlive)
	}
	return nil
}

const (
	// sysBudget bounds total memory obtained from the OS in the mem and
	// scale scenarios.
	sysBudget = 512 << 20
	// graphBudget bounds the µDG high-water mark, nowhere near the
	// O(trace) node count: a lean general core builds no node, and
	// transform nodes are retired at every segment end.
	graphBudget = 64 << 20
	// windowBudget bounds the µDG of the mem scenario's accelerated arm:
	// one segment's 8-byte lean nodes, far below the 14 MiB its
	// transforms build over the whole trace.
	windowBudget = 1 << 20
)

// memScenario is the lean-evaluation memory gate: a materialized
// 10M-instruction trace (16 B/inst = 160 MB, the dominant footprint)
// through exocore.Run must keep the process inside sysBudget and the µDG
// at one segment's nodes. The baseline arm's general core keeps its state
// as times and builds no µDG node at all. The accelerated arm assigns
// DP-CGRA to the innermost loop: every occurrence's transform builds
// nodes between the core stretches of one long evaluation unit, and
// retirement at each segment end frees them (~1.9M nodes, 14 MiB, if
// none were retired — under graphBudget, so that arm is held to
// windowBudget too). It is the only gate on exocore.Run's per-segment
// retirement.
func memScenario(*env) (string, error) {
	const wantDyn = 10_000_000
	w, err := workloads.ByName("mm")
	if err != nil {
		return "", err
	}
	base, err := w.Trace(wantDyn)
	if err != nil {
		return "", err
	}
	tr := base
	if base.Len() < wantDyn {
		// The workload's natural run is shorter: tile the dynamic stream
		// (same static program) until it reaches the target length.
		tiled := make([]trace.DynInst, wantDyn)
		for i := 0; i < wantDyn; i += base.Len() {
			copy(tiled[i:], base.Insts)
		}
		tr = &trace.Trace{Prog: base.Prog, Insts: tiled}
	}
	if tr.Len() < wantDyn {
		return "", fmt.Errorf("trace has %d insts, want %d", tr.Len(), wantDyn)
	}
	td, err := tdg.Build(tr)
	if err != nil {
		return "", err
	}
	reg := obs.NewRegistry()
	res, err := exocore.Run(td, cores.OOO4, nil, nil, nil, exocore.RunOpts{Reg: reg})
	if err != nil {
		return "", err
	}
	if res.Cycles <= 0 {
		return "", fmt.Errorf("implausible cycles %d", res.Cycles)
	}
	graphHigh, err := highWater(reg, "dg.graph_high_water_bytes", graphBudget, "the µDG is not bounded: nodes outlive their segment")
	if err != nil {
		return "", err
	}

	// The accelerated arm: its own registry, after the baseline (the
	// gauge reports the pooled worker's lifetime high-water).
	bsas, err := bsa.Default().Subset([]string{"DP-CGRA"})
	if err != nil {
		return "", err
	}
	models := bsas.New()
	plan := models["DP-CGRA"].Analyze(td)
	inner, depth := -1, 0
	for l := range plan.Regions {
		if d := td.Nest.Loops[l].Depth; d > depth || d == depth && l < inner {
			inner, depth = l, d
		}
	}
	if inner < 0 {
		return "", fmt.Errorf("DP-CGRA plans no loop of %s", w.Name)
	}
	accReg := obs.NewRegistry()
	acc, err := exocore.Run(td, cores.OOO4, models, map[string]*tdg.Plan{"DP-CGRA": plan},
		exocore.Assignment{inner: "DP-CGRA"}, exocore.RunOpts{Reg: accReg})
	if err != nil {
		return "", err
	}
	if acc.Cycles <= 0 || acc.DynOf("DP-CGRA") == 0 || acc.DynOf("") == 0 {
		return "", fmt.Errorf("accelerated arm: %d cycles, %d DP-CGRA and %d core insts",
			acc.Cycles, acc.DynOf("DP-CGRA"), acc.DynOf(""))
	}
	accHigh, err := highWater(accReg, "dg.graph_high_water_bytes", windowBudget, "segment ends are not retiring transform nodes")
	if err != nil {
		return "", err
	}
	sys, err := osMemory()
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("%d insts, %d cycles, µDG high-water %.1f MiB (DP-CGRA on L%d: %d cycles, %.1f MiB), sys %.1f MiB (budget %d MiB)",
		tr.Len(), res.Cycles, mib(graphHigh), inner, acc.Cycles, mib(accHigh), mib(int64(sys)), sysBudget>>20), nil
}

// scaleScenario is the paper-scale streaming gate: 200M generator-driven
// instructions (3.2 GB of DynInst if materialized) through the chunked
// source → pipelined annotation → streaming-TDG → time-direct core path,
// never materialized, inside sysBudget, with the µDG and the resident
// trace chunks bounded on their own high-water gauges. An
// overlap check first replays a smaller budget down both arms —
// materialized Build+Run versus streamed Tee+StreamBuilder+RunStream —
// and requires identical cycles, energy counts, statistics and block
// profile, so the 200M numbers mean what the materialized path would
// have said.
func scaleScenario(*env) (string, error) {
	const (
		wantDyn    = 200_000_000
		overlapDyn = 1_000_000
		// chunkBudget bounds resident trace buffers to the producer's
		// chunk, the channel's DefaultPipelineDepth and the consumer's
		// (1 MiB each at the default size). There is no churn to allow
		// for: the source's pool allocates a buffer only when every
		// earlier one is checked out.
		chunkBudget = (trace.DefaultPipelineDepth + 2) * trace.DefaultChunkInsts * 16
	)
	w, err := workloads.ByName("mm")
	if err != nil {
		return "", err
	}

	gen := w.Source(workloads.SourceConfig{MaxDyn: overlapDyn, Loop: true})
	tr, err := trace.Materialize(gen, overlapDyn)
	if err != nil {
		return "", err
	}
	td, err := tdg.Build(tr)
	if err != nil {
		return "", err
	}
	whole, err := exocore.Run(td, cores.OOO4, nil, nil, nil, exocore.RunOpts{})
	if err != nil {
		return "", err
	}
	sres, s, err := stream(w, overlapDyn, 1<<16, nil)
	if err != nil {
		return "", err
	}
	switch {
	case sres.Cycles != whole.Cycles:
		return "", fmt.Errorf("overlap cycles diverge: streamed %d, materialized %d", sres.Cycles, whole.Cycles)
	case sres.Counts != whole.Counts:
		return "", fmt.Errorf("overlap energy counts diverge")
	case s.Dyn != tr.Len():
		return "", fmt.Errorf("overlap dyn %d != %d", s.Dyn, tr.Len())
	case s.Stats != tr.ComputeStats():
		return "", fmt.Errorf("overlap trace statistics diverge")
	case !reflect.DeepEqual(s.Prof.BlockCount, td.Prof.BlockCount):
		return "", fmt.Errorf("overlap block profile diverges")
	}

	reg := obs.NewRegistry()
	res, sum, err := stream(w, wantDyn, 0, reg)
	if err != nil {
		return "", err
	}
	if sum.Dyn != wantDyn {
		return "", fmt.Errorf("streamed %d insts, want %d", sum.Dyn, wantDyn)
	}
	if res.Cycles <= 0 {
		return "", fmt.Errorf("implausible cycles %d", res.Cycles)
	}
	graphHigh, err := highWater(reg, "dg.graph_high_water_bytes", graphBudget, "the µDG is not bounded: nodes outlive their segment")
	if err != nil {
		return "", err
	}
	chunkHigh, err := highWater(reg, "trace.chunk_high_water_bytes", chunkBudget, "buffers are not being recycled")
	if err != nil {
		return "", err
	}
	sys, err := osMemory()
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("%d insts, %d cycles, µDG high-water %.1f MiB, chunk high-water %.1f MiB, sys %.1f MiB (budget %d MiB)",
		sum.Dyn, res.Cycles, mib(graphHigh), mib(chunkHigh), mib(int64(sys)), sysBudget>>20), nil
}

// stream runs the streamed arm for one budget: a generator source teed
// into a streaming TDG builder, pipelined behind a producer goroutine,
// evaluated by RunStream.
func stream(w *workloads.Workload, maxDyn, chunkInsts int, reg *obs.Registry) (*exocore.RunResult, *tdg.Stream, error) {
	gen := w.Source(workloads.SourceConfig{MaxDyn: maxDyn, ChunkInsts: chunkInsts, Loop: true})
	sb, err := tdg.NewStreamBuilder(gen.Prog())
	if err != nil {
		return nil, nil, err
	}
	src := trace.NewPipelined(trace.Tee(gen, sb.Feed), 0)
	res, err := exocore.RunStream(src, cores.OOO4, exocore.RunOpts{Reg: reg})
	if err != nil {
		src.Stop()
		return nil, nil, err
	}
	return res, sb.Finish(), nil
}

// highWater reads a high-water gauge and requires it to be set and
// within budget.
func highWater(reg *obs.Registry, gauge string, budget int64, why string) (int64, error) {
	v := reg.Gauge(gauge).Value()
	if v <= 0 {
		return 0, fmt.Errorf("%s never set", gauge)
	}
	if v > budget {
		return 0, fmt.Errorf("%s %d B exceeds %d B: %s", gauge, v, budget, why)
	}
	return v, nil
}

// osMemory collects garbage and requires the memory the process has
// obtained from the OS to fit in sysBudget.
func osMemory() (uint64, error) {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	if ms.Sys > sysBudget {
		return 0, fmt.Errorf("%d B obtained from the OS exceeds the %d B budget", ms.Sys, int64(sysBudget))
	}
	return ms.Sys, nil
}

func mib(b int64) float64 { return float64(b) / (1 << 20) }
