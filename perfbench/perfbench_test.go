package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"sync/atomic"
	"testing"
)

// tinySizes shrinks every job so each workload runs in seconds.
func tinySizes() sizes {
	return sizes{
		workers: 2, setupReps: 1, minJobs: 1,
		sweepMaxDyn: 2000, warmMaxDyn: 1000,
		streamMaxDyn: 20_000, overlapMaxDyn: 5000,
		serveMaxDyn: 2000, serveRequests: 200,
		fabricMaxDyn:       2000,
		ledgerStreamMaxDyn: 20_000,
	}
}

// tinyConfig is a configuration for workload at tinySizes whose
// expected sweep digest is the tiny sweep's own.
func tinyConfig(t *testing.T, workload string, trace bool) config {
	t.Helper()
	sz := tinySizes()
	doc, err := sweepDocument(sz.sweepMaxDyn, sz.workers)
	if err != nil {
		t.Fatal(err)
	}
	return config{workload: workload, seed: 7, seconds: 0.01, trace: trace,
		workdir: t.TempDir(), sizes: sz, sweepDigest: digest(doc)}
}

// declared reads the metric names and units BENCHMARK.json declares.
func declared(t *testing.T) (endToEnd, perLayer map[string]string) {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range b.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range b.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	return endToEnd, perLayer
}

// runTiny runs one invocation and returns its run and finish error.
func runTiny(t *testing.T, cfg config) (*run, error) {
	t.Helper()
	r := newRun(cfg, io.Discard)
	if err := runWorkload(r); err != nil {
		t.Fatalf("%s (trace %v): %v", cfg.workload, cfg.trace, err)
	}
	var out bytes.Buffer
	return r, r.finish(&out)
}

// requireMetrics checks that the run reported exactly the declared
// metrics, each with its declared unit.
func requireMetrics(t *testing.T, r *run, want map[string]string) {
	t.Helper()
	for name, unit := range want {
		m, ok := r.metrics[name]
		switch {
		case !ok:
			t.Errorf("%s: metric %s missing", r.cfg.workload, name)
		case m.Unit != unit:
			t.Errorf("%s: metric %s has unit %q, BENCHMARK.json says %q", r.cfg.workload, name, m.Unit, unit)
		}
	}
	for name := range r.metrics {
		if _, ok := want[name]; !ok {
			t.Errorf("%s: metric %s is not declared in BENCHMARK.json", r.cfg.workload, name)
		}
	}
}

func TestEveryWorkloadReportsEveryMetric(t *testing.T) {
	endToEnd, perLayer := declared(t)
	for _, w := range workloadNames {
		r, err := runTiny(t, tinyConfig(t, w, false))
		if err != nil {
			t.Errorf("%s: %v", w, err)
		}
		requireMetrics(t, r, endToEnd)
	}
	r, err := runTiny(t, tinyConfig(t, "sweep", true))
	if err != nil {
		t.Errorf("ledger: %v", err)
	}
	requireMetrics(t, r, perLayer)
}

func TestWrongDigestIsAFailure(t *testing.T) {
	cfg := tinyConfig(t, "sweep", false)
	cfg.sweepDigest = "0000"
	r, err := runTiny(t, cfg)
	if err == nil || r.failed.Load() == 0 {
		t.Fatalf("a wrong expected digest passed: err %v, failed %d", err, r.failed.Load())
	}
}

// tamperNth corrupts the nth response the served handler writes.
func tamperNth(n int64) func(http.Handler) http.Handler {
	var seen atomic.Int64
	return func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			body := rec.Body.Bytes()
			if seen.Add(1) == n {
				body = bytes.Replace(body, []byte(`"cycles": `), []byte(`"cycles": 1`), 1)
			}
			for k, v := range rec.Header() {
				w.Header()[k] = v
			}
			w.WriteHeader(rec.Code)
			w.Write(body)
		})
	}
}

func TestTamperedResponseIsAFailure(t *testing.T) {
	for _, n := range []int64{1, 150} {
		cfg := tinyConfig(t, "serve", false)
		cfg.wrapServe = tamperNth(n)
		r, err := runTiny(t, cfg)
		if err == nil || r.failed.Load() == 0 {
			t.Errorf("response %d tampered, yet the run passed: err %v, failed %d", n, err, r.failed.Load())
		}
	}
}
