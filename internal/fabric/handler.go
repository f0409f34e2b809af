// The coordinator's HTTP surface: the same /v1/sweep contract as a
// single daemon (minus async), /v1/evaluate proxied to the owning
// replica, and topology-aware /healthz, /v1/capabilities and /metricsz.
package fabric

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"time"

	"exocore/internal/cores"
	"exocore/internal/obs"
	"exocore/internal/serve"
)

// probeTimeout bounds one replica liveness probe.
const probeTimeout = 2 * time.Second

// Handler returns the coordinator's HTTP handler.
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/sweep", c.handleSweep)
	mux.HandleFunc("POST /v1/evaluate", c.handleEvaluate)
	mux.HandleFunc("GET /v1/capabilities", c.handleCapabilities)
	mux.HandleFunc("GET /healthz", c.handleHealthz)
	mux.HandleFunc("GET /metricsz", c.handleMetricsz)
	return mux
}

func (c *Coordinator) handleSweep(w http.ResponseWriter, r *http.Request) {
	var req serve.SweepRequest
	if err := serve.DecodeJSON(r, &req); err != nil {
		serve.JSONError(w, http.StatusBadRequest, err.Error())
		return
	}
	p, err := c.planSweep(req)
	if err != nil {
		serve.JSONError(w, http.StatusBadRequest, err.Error())
		return
	}
	timeout := c.reqTimeout
	if d := time.Duration(req.DeadlineMS) * time.Millisecond; req.DeadlineMS > 0 && d < timeout {
		timeout = d
	}
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()
	body, err := c.run(ctx, p)
	switch {
	case err == nil:
		w.Header().Set("Content-Type", "application/json")
		w.Write(body)
	case errors.Is(err, context.DeadlineExceeded):
		serve.JSONError(w, http.StatusGatewayTimeout, "sweep deadline exceeded")
	default:
		// A shard the whole replica set could not serve: the fabric is the
		// failing gateway, not the request.
		serve.JSONError(w, http.StatusBadGateway, err.Error())
	}
}

// handleEvaluate proxies a point evaluation to the replica owning its
// (bench, core) cell, failing over in ring order, so interactive
// queries land on the replica whose caches (and store) are already
// specialized to that cell by the sweep sharding.
func (c *Coordinator) handleEvaluate(w http.ResponseWriter, r *http.Request) {
	var req serve.EvalRequest
	if err := serve.DecodeJSON(r, &req); err != nil {
		serve.JSONError(w, http.StatusBadRequest, err.Error())
		return
	}
	core := req.Core
	if core == "" {
		core = cores.Default.Name
	}
	body, err := json.Marshal(req)
	if err != nil {
		serve.JSONError(w, http.StatusInternalServerError, err.Error())
		return
	}
	var lastErr error = errNoReplica
	for _, rep := range c.ring.Ordered(req.Bench + "|" + core) {
		out, status, _, err := c.post(r.Context(), rep, "/v1/evaluate", body)
		if err != nil {
			c.mRetries.Add(1)
			lastErr = fmt.Errorf("%s: %w", rep, err)
			continue
		}
		if status >= 500 {
			c.mRetries.Add(1)
			lastErr = fmt.Errorf("%s: %s", rep, errorBody(status, out))
			continue
		}
		// 2xx and 4xx pass through: the owner's answer is the answer.
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(status)
		w.Write(out)
		return
	}
	serve.JSONError(w, http.StatusBadGateway, lastErr.Error())
}

// replicaHealth is one replica's probed liveness.
type replicaHealth struct {
	URL    string `json:"url"`
	Alive  bool   `json:"alive"`
	Status string `json:"status,omitempty"`
	Error  string `json:"error,omitempty"`
}

// probeReplicas checks every replica's /healthz concurrently.
func (c *Coordinator) probeReplicas(ctx context.Context) []replicaHealth {
	reps := c.ring.Replicas()
	out := make([]replicaHealth, len(reps))
	var wg sync.WaitGroup
	for i, rep := range reps {
		wg.Add(1)
		go func(i int, rep string) {
			defer wg.Done()
			out[i] = c.probeOne(ctx, rep)
		}(i, rep)
	}
	wg.Wait()
	sort.Slice(out, func(a, b int) bool { return out[a].URL < out[b].URL })
	return out
}

func (c *Coordinator) probeOne(ctx context.Context, rep string) replicaHealth {
	h := replicaHealth{URL: rep}
	ctx, cancel := context.WithTimeout(ctx, probeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, rep+"/healthz", nil)
	if err != nil {
		h.Error = err.Error()
		return h
	}
	resp, err := c.client.Do(req)
	if err != nil {
		h.Error = err.Error()
		return h
	}
	defer resp.Body.Close()
	var body struct {
		Status string `json:"status"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil || resp.StatusCode != http.StatusOK {
		h.Error = fmt.Sprintf("unexpected /healthz response (status %d)", resp.StatusCode)
		return h
	}
	h.Alive = true
	h.Status = body.Status
	return h
}

// handleHealthz reports the coordinator's own liveness plus a probe of
// the whole replica set: "ok" with every replica answering, "degraded"
// while the fabric can still make progress on the survivors, "down"
// when no replica answers.
func (c *Coordinator) handleHealthz(w http.ResponseWriter, r *http.Request) {
	replicas := c.probeReplicas(r.Context())
	alive := 0
	for _, rh := range replicas {
		if rh.Alive {
			alive++
		}
	}
	status := "ok"
	switch {
	case alive == 0:
		status = "down"
	case alive < len(replicas):
		status = "degraded"
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{
		"status":    status,
		"role":      "coordinator",
		"uptime_ms": time.Since(c.start).Milliseconds(),
		"replicas":  replicas,
	})
}

// handleCapabilities serves the evaluable space — fetched from the
// first live replica, since the coordinator evaluates nothing itself —
// with the fabric topology (role, replica set, per-replica liveness)
// grafted on.
func (c *Coordinator) handleCapabilities(w http.ResponseWriter, r *http.Request) {
	replicas := c.probeReplicas(r.Context())
	var caps map[string]any
	var lastErr error = errNoReplica
	for _, rh := range replicas {
		if !rh.Alive {
			continue
		}
		caps, lastErr = c.fetchCapabilities(r.Context(), rh.URL)
		if lastErr == nil {
			break
		}
	}
	if caps == nil {
		serve.JSONError(w, http.StatusBadGateway, lastErr.Error())
		return
	}
	caps["fabric"] = map[string]any{
		"role":     "coordinator",
		"replicas": replicas,
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(caps)
}

func (c *Coordinator) fetchCapabilities(ctx context.Context, rep string) (map[string]any, error) {
	ctx, cancel := context.WithTimeout(ctx, probeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, rep+"/v1/capabilities", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: %s", rep, errorBody(resp.StatusCode, body))
	}
	var caps map[string]any
	if err := json.Unmarshal(body, &caps); err != nil {
		return nil, fmt.Errorf("%s: %w", rep, err)
	}
	return caps, nil
}

func (c *Coordinator) handleMetricsz(w http.ResponseWriter, r *http.Request) {
	points := c.reg.Snapshot()
	if r.URL.Query().Get("format") == "prom" {
		w.Header().Set("Content-Type", obs.PromContentType)
		obs.WriteProm(w, points)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(map[string]any{"points": points})
}
