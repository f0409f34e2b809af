// The coordinator: plans a sweep into (benchmark, core) shards, drives
// them across the replica set, and reassembles the partial documents
// into the exact bytes a single daemon would have produced.
package fabric

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"exocore/internal/bsa"
	"exocore/internal/cli"
	"exocore/internal/dse"
	"exocore/internal/obs"
	"exocore/internal/report"
	"exocore/internal/sched"
	"exocore/internal/serve"
	"exocore/internal/workloads"
)

// Config configures a Coordinator.
type Config struct {
	// Replicas is the replica daemon base-URL set (required; validate
	// flag input with ParseReplicas first).
	Replicas []string
	// Client issues the replica HTTP requests (nil = http.DefaultClient).
	Client *http.Client
	// RequestTimeout bounds one coordinated sweep (0 = 10min); requests
	// may lower it via deadline_ms, never raise it.
	RequestTimeout time.Duration
	// HedgeAfter duplicates a shard onto the next replica in ring order
	// when its first dispatch has not answered after this long, taking
	// whichever finishes first (0 disables hedging).
	HedgeAfter time.Duration
	// Reg receives the fabric.* instruments (nil = a private registry).
	Reg *obs.Registry
	// Log, if non-nil, receives shard-level dispatch records.
	Log *obs.Logger
}

// Coordinator shards sweeps over a replica set. Create with New; safe
// for concurrent use.
type Coordinator struct {
	ring       *Ring
	client     *http.Client
	reqTimeout time.Duration
	hedgeAfter time.Duration
	reg        *obs.Registry
	log        *obs.Logger
	start      time.Time

	mSweeps, mShards, mSteals, mRetries, mHedges, mErrors *obs.Counter
	gReplicas                                             *obs.Gauge
}

// New creates a Coordinator over a replica set.
func New(cfg Config) (*Coordinator, error) {
	ring, err := NewRing(cfg.Replicas)
	if err != nil {
		return nil, err
	}
	client := cfg.Client
	if client == nil {
		client = http.DefaultClient
	}
	timeout := cfg.RequestTimeout
	if timeout <= 0 {
		timeout = 10 * time.Minute
	}
	reg := cfg.Reg
	if reg == nil {
		reg = obs.NewRegistry()
	}
	c := &Coordinator{
		ring:       ring,
		client:     client,
		reqTimeout: timeout,
		hedgeAfter: cfg.HedgeAfter,
		reg:        reg,
		log:        cfg.Log,
		start:      time.Now(),

		mSweeps:   reg.Counter("fabric.sweeps"),
		mShards:   reg.Counter("fabric.shards"),
		mSteals:   reg.Counter("fabric.steals"),
		mRetries:  reg.Counter("fabric.retries"),
		mHedges:   reg.Counter("fabric.hedges"),
		mErrors:   reg.Counter("fabric.errors"),
		gReplicas: reg.Gauge("fabric.replicas"),
	}
	c.gReplicas.Set(int64(len(ring.Replicas())))
	return c, nil
}

// Ring returns the coordinator's placement ring.
func (c *Coordinator) Ring() *Ring { return c.ring }

// shard is one dispatch unit: every design of one core, on one
// benchmark. The key is the ring placement key — the same (bench, core)
// always hashes to the same replica, so that replica's trace/TDG/context
// memos and persistent store stay specialized to it.
type shard struct {
	idx   int
	bench string
	core  string
	key   string
	body  []byte // marshaled partial SweepRequest, shared by every attempt
}

// plan is a validated, sharded sweep.
type plan struct {
	shards []*shard
	shell  *dse.Exploration
}

// planSweep validates the request exactly as a single daemon would and
// splits it into (bench, core) shards. Errors are client errors (400s).
func (c *Coordinator) planSweep(req serve.SweepRequest) (*plan, error) {
	if req.Async {
		return nil, fmt.Errorf("fabric: async sweeps are not supported in coordinator mode (poll the replicas' /resultz directly)")
	}
	if req.Partial {
		return nil, fmt.Errorf("fabric: partial sweeps are shard payloads; request them from a replica, not the coordinator")
	}
	if _, err := sched.Resolve(req.Sched); err != nil {
		return nil, err
	}
	spec := req.Bench
	if spec == "" {
		spec = "all"
	}
	wls, err := cli.ResolveBenchSpec(spec)
	if err != nil {
		return nil, err
	}
	// The default registry is the fabric's design vocabulary; replicas
	// running a restricted -bsas set reject codes they cannot evaluate
	// and the shard error propagates.
	reg := bsa.Default()
	codes, err := dse.GridCodes(reg, req.Designs, nil)
	if err != nil {
		return nil, err
	}
	shell, err := dse.NewShell(reg, req.Designs, nil)
	if err != nil {
		return nil, err
	}
	// Group the grid's codes by core, preserving grid order within each
	// group, then cut one shard per (bench, core group).
	var coreOrder []string
	byCore := make(map[string][]string)
	for _, code := range codes {
		core, _, err := dse.ParseDesignCodeIn(reg, code)
		if err != nil {
			return nil, err
		}
		if _, ok := byCore[core.Name]; !ok {
			coreOrder = append(coreOrder, core.Name)
		}
		byCore[core.Name] = append(byCore[core.Name], code)
	}
	p := &plan{shell: shell}
	for _, wl := range wls {
		for _, core := range coreOrder {
			body, err := json.Marshal(serve.SweepRequest{
				Bench:      wl.Name,
				Sched:      req.Sched,
				Designs:    byCore[core],
				MaxDyn:     req.MaxDyn,
				DeadlineMS: req.DeadlineMS,
				Partial:    true,
			})
			if err != nil {
				return nil, err
			}
			p.shards = append(p.shards, &shard{
				idx:   len(p.shards),
				bench: wl.Name,
				core:  core,
				key:   wl.Name + "|" + core,
				body:  body,
			})
		}
	}
	return p, nil
}

// run dispatches a plan's shards and merges the partial documents. The
// result is byte-identical to POSTing the same request at a single
// daemon (the fabric scenario of scripts/e2e gates this).
func (c *Coordinator) run(ctx context.Context, p *plan) ([]byte, error) {
	c.mSweeps.Add(1)
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	d := newDispatcher(c.ring, p.shards)
	parts := make([][]byte, len(p.shards))
	var (
		mu       sync.Mutex // guards shell feeding and firstErr
		firstErr error
		wg       sync.WaitGroup
	)
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
			cancel() // one lost shard fails the sweep; stop the rest early
		}
		mu.Unlock()
	}
	// One worker per replica: each drains its own queue first, then
	// steals pending shards from stragglers, so a slow or dead replica
	// never strands work that a healthy one could run.
	for _, rep := range c.ring.Replicas() {
		wg.Add(1)
		go func(rep string) {
			defer wg.Done()
			for {
				sh, stolen := d.take(rep)
				if sh == nil || ctx.Err() != nil {
					return
				}
				if stolen {
					c.mSteals.Add(1)
				}
				c.mShards.Add(1)
				body, doc, err := c.runShardHedged(ctx, sh, rep)
				if err != nil {
					c.mErrors.Add(1)
					fail(fmt.Errorf("fabric: shard %s: %w", sh.key, err))
					return
				}
				mu.Lock()
				err = absorb(p.shell, doc)
				mu.Unlock()
				if err != nil {
					fail(fmt.Errorf("fabric: shard %s: %w", sh.key, err))
					return
				}
				parts[sh.idx] = body
			}
		}(rep)
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}

	// Reassembly: normalization runs over the complete grid through the
	// same code path a single daemon uses, so the aggregate floats agree
	// bit for bit; the merge is a strict ordered union of the shards'
	// per-bench rows and the recomputed aggregates.
	p.shell.Normalize()
	agg := report.New("exocored") // the tool name replicas stamp on their shards
	p.shell.AppendAggregates(agg)
	aggBody, err := agg.Render()
	if err != nil {
		return nil, err
	}
	return report.Merge(append(parts, aggBody)...)
}

// absorb feeds one shard's per-bench rows, decoded by runShard, into
// the shell.
func absorb(shell *dse.Exploration, doc *report.Document) error {
	for _, r := range doc.Results {
		if r.Bench == "" {
			return fmt.Errorf("shard returned an aggregate row for design %q; want per-bench rows only", r.Design)
		}
		err := shell.AddBench(r.Design, dse.BenchResult{
			Bench: r.Bench, Category: workloads.Category(r.Category),
			Cycles: r.Cycles, EnergyNJ: r.EnergyNJ,
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// dispatcher is the work-stealing shard pool: one FIFO queue per owner
// replica, planned by ring placement.
type dispatcher struct {
	mu     sync.Mutex
	queues map[string][]*shard
	order  []string
}

func newDispatcher(ring *Ring, shards []*shard) *dispatcher {
	d := &dispatcher{queues: make(map[string][]*shard), order: ring.Replicas()}
	for _, sh := range shards {
		owner := ring.Owner(sh.key)
		d.queues[owner] = append(d.queues[owner], sh)
	}
	return d
}

// take pops the next shard for a replica: its own queue first (FIFO),
// else a steal from the back of the longest other queue — the work its
// owner is least likely to reach soon. Returns nil when no work is
// pending anywhere.
func (d *dispatcher) take(rep string) (sh *shard, stolen bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if q := d.queues[rep]; len(q) > 0 {
		sh, d.queues[rep] = q[0], q[1:]
		return sh, false
	}
	victim := ""
	for _, other := range d.order {
		if other != rep && len(d.queues[other]) > len(d.queues[victim]) {
			victim = other
		}
	}
	if victim == "" {
		return nil, false
	}
	q := d.queues[victim]
	sh, d.queues[victim] = q[len(q)-1], q[:len(q)-1]
	return sh, true
}

// runShardHedged runs one shard, duplicating it onto the next replica
// in ring order if the first dispatch is still unanswered after the
// hedge delay; the first success wins and cancels the loser.
func (c *Coordinator) runShardHedged(ctx context.Context, sh *shard, first string) ([]byte, *report.Document, error) {
	if c.hedgeAfter <= 0 {
		return c.runShard(ctx, sh, first, 0)
	}
	hctx, cancel := context.WithCancel(ctx)
	defer cancel()
	type result struct {
		body []byte
		doc  *report.Document
		err  error
	}
	ch := make(chan result, 2)
	launch := func(offset int) {
		go func() {
			body, doc, err := c.runShard(hctx, sh, first, offset)
			ch <- result{body, doc, err}
		}()
	}
	launch(0)
	inflight, hedged := 1, false
	timer := time.NewTimer(c.hedgeAfter)
	defer timer.Stop()
	var lastErr error
	for {
		select {
		case r := <-ch:
			inflight--
			if r.err == nil {
				return r.body, r.doc, nil
			}
			lastErr = r.err
			if inflight == 0 {
				return nil, nil, lastErr
			}
		case <-timer.C:
			if !hedged {
				hedged = true
				c.mHedges.Add(1)
				c.log.Info("hedging shard", "shard", sh.key, "after", c.hedgeAfter)
				inflight++
				launch(1) // start one replica further along the failover order
			}
		case <-ctx.Done():
			return nil, nil, ctx.Err()
		}
	}
}

// runShard posts a shard to replicas in failover order — the ring order
// from its key, rotated so the executing worker's replica goes first —
// retrying transport errors, 5xx and 429 (honoring Retry-After) until
// the attempt budget, three per replica, runs out, and returns the body
// with its decoded document. A 200 body that report.Decode rejects
// (truncated, or written to another schema) is retried like a 5xx: that
// replica is broken, not the request. 4xx responses are permanent: the
// request itself is wrong and no replica will answer differently.
func (c *Coordinator) runShard(ctx context.Context, sh *shard, first string, offset int) ([]byte, *report.Document, error) {
	seq := rotateTo(c.ring.Ordered(sh.key), first)
	attempts := 3 * len(seq)
	var lastErr error
	for attempt := 0; attempt < attempts; attempt++ {
		if err := ctx.Err(); err != nil {
			if lastErr != nil {
				return nil, nil, fmt.Errorf("%w (last attempt: %v)", err, lastErr)
			}
			return nil, nil, err
		}
		rep := seq[(offset+attempt)%len(seq)]
		body, status, retryAfter, err := c.post(ctx, rep, "/v1/sweep", sh.body)
		switch {
		case err == nil && status == http.StatusOK:
			doc, derr := report.Decode(bytes.NewReader(body))
			if derr == nil {
				return body, doc, nil
			}
			lastErr = fmt.Errorf("%s: %w", rep, derr)
		case err == nil && status == http.StatusTooManyRequests:
			lastErr = fmt.Errorf("%s: busy (429)", rep)
			sleepCtx(ctx, retryAfter)
		case err == nil && status >= 400 && status < 500:
			return nil, nil, fmt.Errorf("%s: %s", rep, errorBody(status, body))
		case err == nil:
			lastErr = fmt.Errorf("%s: %s", rep, errorBody(status, body))
		default:
			lastErr = fmt.Errorf("%s: %w", rep, err)
		}
		c.mRetries.Add(1)
		c.log.Info("shard retry", "shard", sh.key, "replica", rep, "err", lastErr)
	}
	return nil, nil, fmt.Errorf("gave up after %d attempts: %w", attempts, lastErr)
}

// post issues one replica request; the Retry-After hint (capped at 2s
// so a busy replica cannot stall the whole sweep) rides back with 429s.
func (c *Coordinator) post(ctx context.Context, rep, path string, body []byte) ([]byte, int, time.Duration, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, rep+path, bytes.NewReader(body))
	if err != nil {
		return nil, 0, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.client.Do(req)
	if err != nil {
		return nil, 0, 0, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, 0, 0, err
	}
	retryAfter := 100 * time.Millisecond
	if s, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && s > 0 {
		retryAfter = min(time.Duration(s)*time.Second, 2*time.Second)
	}
	return out, resp.StatusCode, retryAfter, nil
}

// errorBody extracts a replica's {"error": ...} payload for messages.
func errorBody(status int, body []byte) string {
	var e struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(body, &e) == nil && e.Error != "" {
		return fmt.Sprintf("%d: %s", status, e.Error)
	}
	return fmt.Sprintf("unexpected status %d", status)
}

// rotateTo rotates seq so that first leads, preserving cyclic order.
func rotateTo(seq []string, first string) []string {
	for i, s := range seq {
		if s == first {
			return append(append([]string(nil), seq[i:]...), seq[:i]...)
		}
	}
	return seq
}

func sleepCtx(ctx context.Context, d time.Duration) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-ctx.Done():
	}
}

var errNoReplica = errors.New("fabric: no live replica")
