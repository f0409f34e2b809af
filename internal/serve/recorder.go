// The request flight recorder: a bounded ring of recently completed
// request summaries plus a bounded leaderboard of the slowest ones,
// surfaced at GET /debug/requests. Each record carries the request ID
// that also tags the request's spans in the ring tracer and its access-
// log line, so the three planes (summaries, traces, logs) correlate.
package serve

import (
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// RequestRecord is one completed request's flight-recorder summary.
type RequestRecord struct {
	ID     string `json:"id"`
	Method string `json:"method"`
	Path   string `json:"path"`
	// Key is the canonical coalescing key for evaluation requests
	// (empty for other routes).
	Key    string `json:"key,omitempty"`
	Status int    `json:"status"`
	// Coalesced marks a request that joined another request's in-flight
	// computation instead of starting its own.
	Coalesced   bool  `json:"coalesced,omitempty"`
	QueueWaitNS int64 `json:"queue_wait_ns"`
	LatencyNS   int64 `json:"latency_ns"`
	// CacheHits is the engine-stage cache-hit growth observed across the
	// request (approximate under concurrent requests, exact when serial).
	CacheHits int64     `json:"cache_hits"`
	Start     time.Time `json:"start"`
}

// recorder keeps the two bounded views. Safe for concurrent use.
type recorder struct {
	mu      sync.Mutex
	ring    []RequestRecord // circular, insertion order
	next    int
	n       int
	slowest []RequestRecord // sorted by LatencyNS descending
	slowCap int
}

func newRecorder(recent, slow int) *recorder {
	return &recorder{ring: make([]RequestRecord, recent), slowCap: slow}
}

// record adds one completed request to the ring and, if it ranks, to the
// slowest leaderboard.
func (r *recorder) record(rec RequestRecord) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.ring[r.next] = rec
	r.next = (r.next + 1) % len(r.ring)
	if r.n < len(r.ring) {
		r.n++
	}
	// Insert into the slowest list (descending), bounded at slowCap.
	i := len(r.slowest)
	for i > 0 && r.slowest[i-1].LatencyNS < rec.LatencyNS {
		i--
	}
	if i >= r.slowCap {
		return
	}
	r.slowest = append(r.slowest, RequestRecord{})
	copy(r.slowest[i+1:], r.slowest[i:])
	r.slowest[i] = rec
	if len(r.slowest) > r.slowCap {
		r.slowest = r.slowest[:r.slowCap]
	}
}

// recent returns the retained records, newest first.
func (r *recorder) recent() []RequestRecord {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]RequestRecord, 0, r.n)
	for i := 0; i < r.n; i++ {
		out = append(out, r.ring[((r.next-1-i)%len(r.ring)+len(r.ring))%len(r.ring)])
	}
	return out
}

// slow returns the slowest-request leaderboard, slowest first.
func (r *recorder) slow() []RequestRecord {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]RequestRecord(nil), r.slowest...)
}

// lookup finds a retained record by request ID (recent ring first, then
// the slowest leaderboard, whose entries may outlive the ring).
func (r *recorder) lookup(id string) (RequestRecord, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := 0; i < r.n; i++ {
		if rec := r.ring[((r.next-1-i)%len(r.ring)+len(r.ring))%len(r.ring)]; rec.ID == id {
			return rec, true
		}
	}
	for _, rec := range r.slowest {
		if rec.ID == id {
			return rec, true
		}
	}
	return RequestRecord{}, false
}

// reqStats is the per-request scratch the handler chain fills in as the
// request progresses: the resolved coalescing key, whether the request
// joined another flight, and how long it waited for an admission slot.
// It travels in the request context; the queue wait is written from the
// flight goroutine while the handler goroutine may time out and read
// early, hence the atomic.
type reqStats struct {
	key         string
	coalesced   bool
	queueWaitNS atomic.Int64
}

func (st *reqStats) setKey(key string) {
	if st != nil {
		st.key = key
	}
}

func (st *reqStats) setQueueWait(d time.Duration) {
	if st != nil {
		st.queueWaitNS.Store(int64(d))
	}
}

func (st *reqStats) setCoalesced() {
	if st != nil {
		st.coalesced = true
	}
}

// statsKey carries the *reqStats through the request context.
type statsKey struct{}

// statsFrom returns the request's stats scratch, or nil (every method is
// nil-safe) for contexts outside the handler chain.
func statsFrom(ctx context.Context) *reqStats {
	st, _ := ctx.Value(statsKey{}).(*reqStats)
	return st
}
