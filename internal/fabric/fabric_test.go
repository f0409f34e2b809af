package fabric

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"exocore/internal/cli"
	"exocore/internal/cores"
	"exocore/internal/obs"
	"exocore/internal/runner"
	"exocore/internal/serve"
)

// testMaxDyn keeps evaluations fast; all caches still exercise for real.
const testMaxDyn = 10_000

// newReplica spins up a real evaluation daemon (engine + serve layer)
// on an httptest listener, optionally wrapped in middleware.
func newReplica(t *testing.T, wrap func(http.Handler) http.Handler) *httptest.Server {
	t.Helper()
	eng := runner.New(runner.Options{MaxDyn: testMaxDyn})
	s, err := serve.New(serve.Config{Engine: eng, Role: "replica"})
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	if wrap != nil {
		h = wrap(h)
	}
	ts := httptest.NewServer(h)
	t.Cleanup(ts.Close)
	return ts
}

// singleDaemonBytes renders the same sweep through one fresh daemon —
// the byte-identity reference for every coordinator test.
func singleDaemonBytes(t *testing.T, bench string, designs []string, sched string) []byte {
	t.Helper()
	eng := runner.New(runner.Options{MaxDyn: testMaxDyn})
	wls, err := cli.ResolveBenchSpec(bench)
	if err != nil {
		t.Fatal(err)
	}
	doc, err := serve.SweepDocument(context.Background(), eng, "exocored", wls, designs, sched, false)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := doc.Write(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

var testSweep = serve.SweepRequest{
	Bench:   "mm,fft",
	Designs: []string{"IO2", "OOO2-S", "OOO2-SD", "OOO4-N"},
	Sched:   "oracle",
}

// TestSweepMatchesSingleDaemon is the fabric's core contract: a sweep
// sharded over two replicas merges into exactly the bytes one daemon
// would have produced.
func TestSweepMatchesSingleDaemon(t *testing.T) {
	r1, r2 := newReplica(t, nil), newReplica(t, nil)
	reg := obs.NewRegistry()
	c, err := New(Config{Replicas: []string{r1.URL, r2.URL}, Reg: reg})
	if err != nil {
		t.Fatal(err)
	}
	p, err := c.planSweep(testSweep)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.run(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	want := singleDaemonBytes(t, testSweep.Bench, testSweep.Designs, testSweep.Sched)
	if !bytes.Equal(got, want) {
		t.Errorf("coordinated sweep diverges from single daemon\nwant:\n%s\ngot:\n%s", want, got)
	}
	// 2 benches × 3 distinct cores = 6 shards, none lost.
	if n := reg.Counter("fabric.shards").Value(); n != 6 {
		t.Errorf("fabric.shards = %d, want 6", n)
	}
	if n := reg.Counter("fabric.errors").Value(); n != 0 {
		t.Errorf("fabric.errors = %d, want 0", n)
	}
}

// TestSweepSurvivesReplicaKilledMidSweep: one replica serves exactly
// one shard and then drops every connection — the coordinator must
// retry its lost work onto the survivor and still produce identical
// bytes.
func TestSweepSurvivesReplicaKilledMidSweep(t *testing.T) {
	var served atomic.Int32
	dying := newReplica(t, func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/v1/sweep" && served.Add(1) > 1 {
				panic(http.ErrAbortHandler) // connection torn down, like a killed process
			}
			h.ServeHTTP(w, r)
		})
	})
	healthy := newReplica(t, nil)
	reg := obs.NewRegistry()
	c, err := New(Config{Replicas: []string{dying.URL, healthy.URL}, Reg: reg})
	if err != nil {
		t.Fatal(err)
	}
	p, err := c.planSweep(testSweep)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.run(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	want := singleDaemonBytes(t, testSweep.Bench, testSweep.Designs, testSweep.Sched)
	if !bytes.Equal(got, want) {
		t.Error("sweep after mid-sweep replica loss diverges from single daemon")
	}
	if served.Load() < 2 {
		t.Fatalf("replica died before the sweep touched it (%d requests)", served.Load())
	}
	if n := reg.Counter("fabric.retries").Value(); n == 0 {
		t.Error("fabric.retries = 0; the dead replica's shards were never retried")
	}
}

// TestSweepRetriesBusyReplica: a 429 with Retry-After is not a failure;
// the shard is retried and the sweep completes identically.
func TestSweepRetriesBusyReplica(t *testing.T) {
	var rejected atomic.Int32
	busy := newReplica(t, func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/v1/sweep" && rejected.Add(1) == 1 {
				w.Header().Set("Retry-After", "1")
				w.WriteHeader(http.StatusTooManyRequests)
				json.NewEncoder(w).Encode(map[string]string{"error": "admission queue full"})
				return
			}
			h.ServeHTTP(w, r)
		})
	})
	other := newReplica(t, nil)
	reg := obs.NewRegistry()
	c, err := New(Config{Replicas: []string{busy.URL, other.URL}, Reg: reg})
	if err != nil {
		t.Fatal(err)
	}
	p, err := c.planSweep(testSweep)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.run(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, singleDaemonBytes(t, testSweep.Bench, testSweep.Designs, testSweep.Sched)) {
		t.Error("sweep through a briefly-busy replica diverges from single daemon")
	}
	if reg.Counter("fabric.retries").Value() == 0 {
		t.Error("fabric.retries = 0 after a 429")
	}
}

// TestSweepFailsOverSchemaSkewedShard: a replica whose first sweep
// answer is a 200 that report.Decode rejects (one field misspelt, as a
// replica on another schema would write it) costs a retry on the next
// replica, not the sweep.
func TestSweepFailsOverSchemaSkewedShard(t *testing.T) {
	var answered atomic.Int32
	skewed := newReplica(t, func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path != "/v1/sweep" || answered.Add(1) != 1 {
				h.ServeHTTP(w, r)
				return
			}
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, r)
			body := bytes.Replace(rec.Body.Bytes(), []byte(`"cycles"`), []byte(`"cycels"`), 1)
			if rec.Code != http.StatusOK || bytes.Equal(body, rec.Body.Bytes()) {
				t.Errorf("the replica's first sweep answer (status %d) has no cycles field to misspell", rec.Code)
			}
			w.WriteHeader(rec.Code)
			w.Write(body)
		})
	})
	other := newReplica(t, nil)
	reg := obs.NewRegistry()
	c, err := New(Config{Replicas: []string{skewed.URL, other.URL}, Reg: reg})
	if err != nil {
		t.Fatal(err)
	}
	p, err := c.planSweep(testSweep)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.run(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	if answered.Load() == 0 {
		t.Fatal("no shard reached the skewed replica")
	}
	if !bytes.Equal(got, singleDaemonBytes(t, testSweep.Bench, testSweep.Designs, testSweep.Sched)) {
		t.Error("sweep through a schema-skewed shard diverges from single daemon")
	}
	if reg.Counter("fabric.retries").Value() == 0 {
		t.Error("fabric.retries = 0 after a rejected shard body")
	}
}

// TestSweepHedgesStragglers: a replica that stalls gets its shards
// speculatively duplicated onto the next replica; the sweep finishes
// fast and correct.
func TestSweepHedgesStragglers(t *testing.T) {
	slow := newReplica(t, func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/v1/sweep" {
				time.Sleep(400 * time.Millisecond)
			}
			h.ServeHTTP(w, r)
		})
	})
	fast := newReplica(t, nil)
	reg := obs.NewRegistry()
	c, err := New(Config{
		Replicas:   []string{slow.URL, fast.URL},
		HedgeAfter: 30 * time.Millisecond,
		Reg:        reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	p, err := c.planSweep(testSweep)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.run(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, singleDaemonBytes(t, testSweep.Bench, testSweep.Designs, testSweep.Sched)) {
		t.Error("hedged sweep diverges from single daemon")
	}
	if reg.Counter("fabric.hedges").Value() == 0 {
		t.Error("fabric.hedges = 0; the straggler was never hedged")
	}
}

// TestEvaluateWithoutCoreGoesToDefaultOwner: a /v1/evaluate that names
// no core is routed by cores.Default, the core the replica evaluates it
// on, so it lands on that cell's owner and on no other replica.
func TestEvaluateWithoutCoreGoesToDefaultOwner(t *testing.T) {
	var urls []string
	evals := make(map[string]*atomic.Int32)
	for range 3 {
		n := new(atomic.Int32)
		rep := newReplica(t, func(h http.Handler) http.Handler {
			return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if r.URL.Path == "/v1/evaluate" {
					n.Add(1)
				}
				h.ServeHTTP(w, r)
			})
		})
		urls = append(urls, rep.URL)
		evals[rep.URL] = n
	}
	c, err := New(Config{Replicas: urls})
	if err != nil {
		t.Fatal(err)
	}
	cs := httptest.NewServer(c.Handler())
	defer cs.Close()

	resp, err := http.Post(cs.URL+"/v1/evaluate", "application/json", strings.NewReader(`{"bench":"mm","bsas":"none"}`))
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("evaluate: status %d, body %s (%v)", resp.StatusCode, body, err)
	}
	owner := c.Ring().Owner("mm|" + cores.Default.Name)
	for url, n := range evals {
		want := int32(0)
		if url == owner {
			want = 1
		}
		if got := n.Load(); got != want {
			t.Errorf("replica %s served %d evaluations, want %d (owner %s)", url, got, want, owner)
		}
	}
}

// TestPlanRejections: requests a single daemon would 400 are rejected
// before any shard is dispatched, plus the coordinator-only rules.
func TestPlanRejections(t *testing.T) {
	c, err := New(Config{Replicas: []string{"http://unused:1"}})
	if err != nil {
		t.Fatal(err)
	}
	for name, req := range map[string]serve.SweepRequest{
		"async":      {Async: true},
		"partial":    {Partial: true},
		"bad sched":  {Sched: "rand"},
		"bad design": {Designs: []string{"OOO2-Z$"}},
		"bad bench":  {Bench: "nonesuch"},
		"bad core":   {Designs: []string{"XYZ-S"}},
	} {
		if _, err := c.planSweep(req); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if _, err := c.planSweep(serve.SweepRequest{Bench: "mm"}); err != nil {
		t.Errorf("plain full-grid sweep rejected: %v", err)
	}
}

// TestHandlerEndpoints drives the coordinator over HTTP: sweep parity,
// the evaluate proxy, topology-aware healthz/capabilities, metricsz.
func TestHandlerEndpoints(t *testing.T) {
	r1, r2 := newReplica(t, nil), newReplica(t, nil)
	reg := obs.NewRegistry()
	c, err := New(Config{Replicas: []string{r1.URL, r2.URL}, Reg: reg})
	if err != nil {
		t.Fatal(err)
	}
	cs := httptest.NewServer(c.Handler())
	defer cs.Close()

	post := func(path, body string) (*http.Response, []byte) {
		t.Helper()
		resp, err := http.Post(cs.URL+path, "application/json", strings.NewReader(body))
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
	get := func(path string) []byte {
		t.Helper()
		resp, err := http.Get(cs.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d, body %s", path, resp.StatusCode, b)
		}
		return b
	}

	// Sweep over HTTP matches the single daemon.
	resp, body := post("/v1/sweep", `{"bench":"mm","designs":["IO2","OOO2-S"]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sweep status %d: %s", resp.StatusCode, body)
	}
	if want := singleDaemonBytes(t, "mm", []string{"IO2", "OOO2-S"}, ""); !bytes.Equal(body, want) {
		t.Error("HTTP sweep diverges from single daemon")
	}

	// Async is a coordinator-side 400, not a replica error.
	if resp, body = post("/v1/sweep", `{"bench":"mm","async":true}`); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("async sweep: status %d, body %s", resp.StatusCode, body)
	}

	// The evaluate proxy answers with the owning replica's exact bytes.
	evalBody := `{"bench":"mm","core":"OOO2","bsas":"SIMD","sched":"oracle"}`
	resp, body = post("/v1/evaluate", evalBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("evaluate status %d: %s", resp.StatusCode, body)
	}
	owner := c.Ring().Owner("mm|OOO2")
	direct, err := http.Post(owner+"/v1/evaluate", "application/json", strings.NewReader(evalBody))
	if err != nil {
		t.Fatal(err)
	}
	want, err := io.ReadAll(direct.Body)
	direct.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body, want) {
		t.Error("proxied evaluation diverges from the owner replica")
	}
	// Replica 400s pass through (the owner's answer is the answer).
	if resp, _ = post("/v1/evaluate", `{"bench":"nonesuch"}`); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad evaluate: status %d, want 400", resp.StatusCode)
	}
	// Data after the body is a coordinator-side 400 on both endpoints.
	for _, tc := range []struct{ path, body string }{
		{"/v1/evaluate", evalBody + " }"},
		{"/v1/evaluate", evalBody + "]"},
		{"/v1/sweep", `{"bench":"mm","designs":["IO2"]} }`},
		{"/v1/sweep", `{"bench":"mm","designs":["IO2"]}]`},
	} {
		if resp, body = post(tc.path, tc.body); resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "trailing data") {
			t.Errorf("%s %s: status %d, body %s; want 400 for trailing data", tc.path, tc.body, resp.StatusCode, body)
		}
	}

	// healthz: coordinator role, both replicas alive.
	var hz struct {
		Status   string          `json:"status"`
		Role     string          `json:"role"`
		Replicas []replicaHealth `json:"replicas"`
	}
	if err := json.Unmarshal(get("/healthz"), &hz); err != nil {
		t.Fatal(err)
	}
	if hz.Status != "ok" || hz.Role != "coordinator" || len(hz.Replicas) != 2 {
		t.Errorf("healthz = %+v", hz)
	}
	for _, rh := range hz.Replicas {
		if !rh.Alive {
			t.Errorf("replica %s reported dead", rh.URL)
		}
	}

	// capabilities: replica capabilities plus the fabric topology.
	var caps map[string]any
	if err := json.Unmarshal(get("/v1/capabilities"), &caps); err != nil {
		t.Fatal(err)
	}
	fab, _ := caps["fabric"].(map[string]any)
	if fab == nil || fab["role"] != "coordinator" {
		t.Errorf("capabilities fabric section = %v", caps["fabric"])
	}
	if _, ok := caps["maxdyn"]; !ok {
		t.Error("capabilities lost the replica's maxdyn")
	}

	// metricsz carries the fabric instruments.
	if m := string(get("/metricsz")); !strings.Contains(m, "fabric.shards") {
		t.Errorf("metricsz lacks fabric.shards:\n%s", m)
	}

	// Kill a replica: healthz degrades but reports the survivor alive.
	r2.Close()
	if err := json.Unmarshal(get("/healthz"), &hz); err != nil {
		t.Fatal(err)
	}
	alive := 0
	for _, rh := range hz.Replicas {
		if rh.Alive {
			alive++
		}
	}
	if hz.Status != "degraded" || alive != 1 {
		t.Errorf("healthz after replica loss = %+v", hz)
	}
}
