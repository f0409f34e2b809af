package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"exocore/internal/cli"
	"exocore/internal/cores"
	"exocore/internal/report"
	"exocore/internal/runner"
	"exocore/internal/store"
)

// testMaxDyn keeps evaluations fast; all caches still exercise for real.
const testMaxDyn = 10_000

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Engine == nil {
		cfg.Engine = runner.New(runner.Options{MaxDyn: testMaxDyn})
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(hs.Close)
	return s, hs
}

func post(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, b
}

// TestEvaluateMatchesDirectDocument gates the byte-identity contract:
// the endpoint's body is exactly the rendered EvaluateDocument, and
// modulo the tool header it is the same document cmd/tdgsim -json emits
// (both call the one builder).
func TestEvaluateMatchesDirectDocument(t *testing.T) {
	eng := runner.New(runner.Options{MaxDyn: testMaxDyn})
	_, hs := newTestServer(t, Config{Engine: eng})

	resp, body := post(t, hs.URL+"/v1/evaluate",
		`{"bench":"mm","core":"OOO2","bsas":"SIMD,NS-DF","sched":"oracle"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("Content-Type = %q", ct)
	}

	wls, err := cli.ResolveBenchSpec("mm")
	if err != nil {
		t.Fatal(err)
	}
	core, _ := cores.ConfigByName("OOO2")
	doc, err := EvaluateDocument(context.Background(), eng, "exocored",
		wls, core, []string{"SIMD", "NS-DF"}, "oracle", nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := doc.Render()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body, want) {
		t.Fatalf("response is not the rendered document\ngot:  %s\nwant: %s", body, want)
	}

	// The body must decode under the strict versioned-schema decoder.
	d, err := report.Decode(bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if d.Tool != "exocored" || len(d.Results) == 0 {
		t.Fatalf("decoded tool %q, %d results", d.Tool, len(d.Results))
	}
}

// TestSweepMatchesDirectDocument does the same for /v1/sweep with a
// design restriction.
func TestSweepMatchesDirectDocument(t *testing.T) {
	eng := runner.New(runner.Options{MaxDyn: testMaxDyn})
	_, hs := newTestServer(t, Config{Engine: eng})

	resp, body := post(t, hs.URL+"/v1/sweep",
		`{"bench":"mm,fft","designs":["IO2","OOO2-SDN"]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, body)
	}

	wls, err := cli.ResolveBenchSpec("mm,fft")
	if err != nil {
		t.Fatal(err)
	}
	doc, err := SweepDocument(context.Background(), eng, "exocored",
		wls, []string{"IO2", "OOO2-SDN"}, "oracle", false)
	if err != nil {
		t.Fatal(err)
	}
	want, err := doc.Render()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body, want) {
		t.Fatalf("sweep response is not the rendered document")
	}
}

// TestPartialSweepKeepsItsBench: a partial sweep, a fabric shard,
// leaves its bench resident, so the replica's next shard of the bench
// builds no trace, TDG or context; a full sweep over a cold bench leaves
// it cold.
func TestPartialSweepKeepsItsBench(t *testing.T) {
	eng := runner.New(runner.Options{MaxDyn: testMaxDyn})
	built := func() int64 {
		m := eng.Metrics()
		return m.Stage(runner.StageTrace).Misses + m.Stage(runner.StageTDG).Misses + m.Stage(runner.StageSched).Misses
	}
	sweep := func(bench string, designs []string, partial bool) {
		t.Helper()
		wls, err := cli.ResolveBenchSpec(bench)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := SweepDocument(context.Background(), eng, "exocored", wls, designs, "oracle", partial); err != nil {
			t.Fatal(err)
		}
	}
	sweep("mm", []string{"OOO2", "OOO2-SDN"}, true)
	n := built()
	sweep("mm", []string{"OOO2-S", "OOO2-D"}, true)
	if got := built(); got != n {
		t.Errorf("a second shard of a bench built %d artifacts, want none", got-n)
	}

	sweep("fft", []string{"OOO2", "OOO2-SDN"}, false)
	n = built()
	sweep("fft", []string{"OOO2", "OOO2-SDN"}, false)
	if got := built(); got != n+3 {
		t.Errorf("a full sweep over a cold bench left %d of its 3 artifacts resident", n+3-got)
	}
}

// TestConcurrentClientsShareOneAnswer hammers one query from many
// goroutines under -race: every response must be 200 and byte-identical.
func TestConcurrentClientsShareOneAnswer(t *testing.T) {
	_, hs := newTestServer(t, Config{})

	const clients = 16
	bodies := make([][]byte, clients)
	codes := make([]int, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(hs.URL+"/v1/evaluate", "application/json",
				strings.NewReader(`{"bench":"mm","core":"IO2"}`))
			if err != nil {
				return
			}
			defer resp.Body.Close()
			codes[i] = resp.StatusCode
			bodies[i], _ = io.ReadAll(resp.Body)
		}(i)
	}
	wg.Wait()

	for i := 0; i < clients; i++ {
		if codes[i] != http.StatusOK {
			t.Fatalf("client %d: status = %d, body %s", i, codes[i], bodies[i])
		}
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Fatalf("client %d got a different body", i)
		}
	}
}

// TestQueueOverflowRejectsWith429 fills the single slot and the
// one-deep queue by hand, then shows the next request is shed with 429
// and a Retry-After hint rather than queued without bound.
func TestQueueOverflowRejectsWith429(t *testing.T) {
	s, hs := newTestServer(t, Config{Concurrency: 1, QueueDepth: 1})

	release, _, err := s.admit(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer release()

	queued := make(chan error, 1)
	qctx, qcancel := context.WithCancel(context.Background())
	defer qcancel()
	go func() {
		rel, _, err := s.admit(qctx)
		if err == nil {
			rel()
		}
		queued <- err
	}()
	waitFor(t, func() bool { return s.waiting.Load() == 1 })

	resp, body := post(t, hs.URL+"/v1/evaluate", `{"bench":"mm"}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, body %s", resp.StatusCode, body)
	}
	if ra := resp.Header.Get("Retry-After"); ra != retryAfter {
		t.Fatalf("Retry-After = %q, want %q", ra, retryAfter)
	}
	var msg map[string]string
	if err := json.Unmarshal(body, &msg); err != nil || msg["error"] == "" {
		t.Fatalf("429 body %s not an error document (%v)", body, err)
	}

	qcancel()
	if err := <-queued; err == nil {
		t.Fatal("queued admit returned nil after cancel")
	}
}

// TestQueuedRequestDeadline504: a request stuck in the admission queue
// past its deadline comes back 504, and the slot holder is unaffected.
func TestQueuedRequestDeadline504(t *testing.T) {
	s, hs := newTestServer(t, Config{Concurrency: 1, QueueDepth: 4})

	release, _, err := s.admit(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	resp, body := post(t, hs.URL+"/v1/evaluate", `{"bench":"mm","deadline_ms":50}`)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, body %s", resp.StatusCode, body)
	}

	// Free the slot: the same query must now succeed — the timed-out
	// attempt left neither the queue nor the engine poisoned. Wait out
	// the dying flight first so the retry doesn't join it.
	release()
	waitFor(t, func() bool {
		s.flights.mu.Lock()
		defer s.flights.mu.Unlock()
		return len(s.flights.m) == 0
	})
	resp, body = post(t, hs.URL+"/v1/evaluate", `{"bench":"mm"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("after release: status = %d, body %s", resp.StatusCode, body)
	}
}

// TestBadRequests exercises the 400 paths: malformed JSON, unknown
// fields, unknown specs, budget mismatch.
func TestBadRequests(t *testing.T) {
	_, hs := newTestServer(t, Config{})
	cases := []struct {
		name, path, body, wantFrag string
	}{
		{"malformed", "/v1/evaluate", `{"bench":`, "bad request body"},
		{"unknown field", "/v1/evaluate", `{"bench":"mm","turbo":true}`, "bad request body"},
		{"missing bench", "/v1/evaluate", `{}`, "missing required field"},
		{"unknown bench", "/v1/evaluate", `{"bench":"nope"}`, "unknown workload"},
		{"unknown core", "/v1/evaluate", `{"bench":"mm","core":"Z80"}`, "unknown core"},
		{"unknown sched", "/v1/evaluate", `{"bench":"mm","sched":"lru"}`, "unknown scheduler"},
		{"maxdyn mismatch", "/v1/evaluate", `{"bench":"mm","maxdyn":123}`, "not served"},
		{"bad design", "/v1/sweep", `{"designs":["OOO3-S"]}`, "in design"},
		{"trailing brace", "/v1/evaluate", `{"bench":"mm"} }`, "trailing data"},
		{"trailing bracket", "/v1/evaluate", `{"bench":"mm"}]`, "trailing data"},
		{"sweep trailing brace", "/v1/sweep", `{"bench":"mm","designs":["IO2"]} }`, "trailing data"},
		{"sweep trailing bracket", "/v1/sweep", `{"bench":"mm","designs":["IO2"]}]`, "trailing data"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, body := post(t, hs.URL+tc.path, tc.body)
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status = %d, body %s", resp.StatusCode, body)
			}
			if !strings.Contains(string(body), tc.wantFrag) {
				t.Fatalf("body %s missing %q", body, tc.wantFrag)
			}
		})
	}
}

// TestAsyncSweepLifecycle: 202 + id, poll /resultz until done, the
// fetched document matches the synchronous answer.
func TestAsyncSweepLifecycle(t *testing.T) {
	_, hs := newTestServer(t, Config{})

	resp, body := post(t, hs.URL+"/v1/sweep", `{"bench":"mm","designs":["IO2"],"async":true}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("status = %d, body %s", resp.StatusCode, body)
	}
	var acc map[string]string
	if err := json.Unmarshal(body, &acc); err != nil {
		t.Fatal(err)
	}
	if acc["id"] == "" || acc["result"] == "" {
		t.Fatalf("accept body %s", body)
	}

	var doc []byte
	waitFor(t, func() bool {
		resp, b := get(t, hs.URL+acc["result"])
		switch resp.StatusCode {
		case http.StatusOK:
			doc = b
			return true
		case http.StatusAccepted:
			return false
		default:
			t.Fatalf("resultz status = %d, body %s", resp.StatusCode, b)
			return false
		}
	})

	resp, want := post(t, hs.URL+"/v1/sweep", `{"bench":"mm","designs":["IO2"]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sync sweep status = %d", resp.StatusCode)
	}
	if !bytes.Equal(doc, want) {
		t.Fatal("async document differs from synchronous document")
	}

	resp, _ = get(t, hs.URL+"/resultz/sweep-999")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown id status = %d", resp.StatusCode)
	}
}

// TestShutdownDrainsAsyncWork: Shutdown waits for a running async sweep
// and new work is refused with 503 while draining.
func TestShutdownDrainsAsyncWork(t *testing.T) {
	s, hs := newTestServer(t, Config{})

	_, body := post(t, hs.URL+"/v1/sweep", `{"bench":"mm","designs":["IO2","OOO2-S"],"async":true}`)
	var acc map[string]string
	if err := json.Unmarshal(body, &acc); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}

	// Draining: the job it waited for is ready, new work is refused.
	resp, _ := get(t, hs.URL+acc["result"])
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("drained job status = %d", resp.StatusCode)
	}
	resp, _ = post(t, hs.URL+"/v1/evaluate", `{"bench":"mm"}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining evaluate status = %d", resp.StatusCode)
	}
	resp, body = get(t, hs.URL+"/healthz")
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "draining") {
		t.Fatalf("healthz while draining: %d %s", resp.StatusCode, body)
	}
}

// TestHealthzAndMetricsz: liveness fields and a registry snapshot that
// includes both engine-stage and server metrics.
func TestHealthzAndMetricsz(t *testing.T) {
	_, hs := newTestServer(t, Config{})

	resp, body := get(t, hs.URL+"/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d", resp.StatusCode)
	}
	var h map[string]any
	if err := json.Unmarshal(body, &h); err != nil {
		t.Fatal(err)
	}
	if h["status"] != "ok" {
		t.Fatalf("healthz status %v", h["status"])
	}
	if _, ok := h["maxdyn"]; !ok {
		t.Fatal("healthz missing maxdyn")
	}
	if h["role"] != "single" {
		t.Fatalf("healthz role = %v, want single by default", h["role"])
	}
	if _, ok := h["store"]; ok {
		t.Fatal("healthz reports a store without one configured")
	}

	// One evaluation so stage counters move.
	if resp, b := post(t, hs.URL+"/v1/evaluate", `{"bench":"mm"}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("evaluate = %d %s", resp.StatusCode, b)
	}
	resp, body = get(t, hs.URL+"/metricsz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metricsz = %d", resp.StatusCode)
	}
	var m struct {
		Stages []struct {
			Stage  string `json:"stage"`
			Misses int64  `json:"cache_misses"`
		} `json:"stages"`
	}
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatalf("metricsz body: %v", err)
	}
	if len(m.Stages) == 0 {
		t.Fatal("metricsz has no stage counters")
	}
}

// TestFabricFieldsSurface: a replica-role daemon with a store reports
// both through /healthz, and /v1/capabilities names its fabric role.
func TestFabricFieldsSurface(t *testing.T) {
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, hs := newTestServer(t, Config{Role: "replica", Store: st})

	_, body := get(t, hs.URL+"/healthz")
	var h struct {
		Role  string `json:"role"`
		Store *struct {
			Dir string `json:"dir"`
		} `json:"store"`
	}
	if err := json.Unmarshal(body, &h); err != nil {
		t.Fatal(err)
	}
	if h.Role != "replica" {
		t.Fatalf("healthz role = %q", h.Role)
	}
	if h.Store == nil || h.Store.Dir == "" {
		t.Fatalf("healthz store occupancy missing: %s", body)
	}

	_, body = get(t, hs.URL+"/v1/capabilities")
	var caps struct {
		Fabric struct {
			Role string `json:"role"`
		} `json:"fabric"`
	}
	if err := json.Unmarshal(body, &caps); err != nil {
		t.Fatal(err)
	}
	if caps.Fabric.Role != "replica" {
		t.Fatalf("capabilities fabric role = %q", caps.Fabric.Role)
	}
}

// TestFlightCoalesces pins the singleflight itself: ten concurrent
// callers, one execution.
func TestFlightCoalesces(t *testing.T) {
	var g group
	var calls int32
	started := make(chan struct{})
	release := make(chan struct{})
	fn := func(ctx context.Context) ([]byte, error) {
		close(started)
		<-release
		calls++
		return []byte("x"), nil
	}

	var wg sync.WaitGroup
	results := make([][]byte, 10)
	wg.Add(1)
	go func() {
		defer wg.Done()
		results[0], _, _ = g.do(context.Background(), "k", time.Minute, fn)
	}()
	<-started
	for i := 1; i < 10; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], _, _ = g.do(context.Background(), "k", time.Minute, fn)
		}(i)
	}
	// Every joiner must be parked on the flight before it finishes, or a
	// late arrival would start (and count) a second flight.
	waitFor(t, func() bool {
		g.mu.Lock()
		defer g.mu.Unlock()
		f := g.m["k"]
		return f != nil && f.refs == 10
	})
	close(release)
	wg.Wait()

	if calls != 1 {
		t.Fatalf("fn ran %d times, want 1", calls)
	}
	for i, r := range results {
		if string(r) != "x" {
			t.Fatalf("caller %d got %q", i, r)
		}
	}
}

// TestFlightLastLeaverCancels: when every waiter gives up, the flight's
// detached context is canceled so abandoned work stops.
func TestFlightLastLeaverCancels(t *testing.T) {
	var g group
	flightCtx := make(chan context.Context, 1)
	fn := func(ctx context.Context) ([]byte, error) {
		flightCtx <- ctx
		<-ctx.Done()
		return nil, ctx.Err()
	}

	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, _, err := g.do(ctx, "k", time.Minute, fn)
		errc <- err
	}()
	fctx := <-flightCtx

	cancel() // the only caller leaves
	if err := <-errc; err == nil {
		t.Fatal("caller returned nil after cancel")
	}
	select {
	case <-fctx.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("flight context not canceled after last caller left")
	}
}

func get(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, b
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("condition not reached in 30s")
}
