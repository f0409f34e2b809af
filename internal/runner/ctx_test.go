package runner

import (
	"context"
	"errors"
	"testing"
	"time"

	"exocore/internal/cores"
)

// A canceled ctx must abort every stage at its boundary with the ctx
// error, and the cancellation must NOT be cached: the same key computed
// again under a live ctx succeeds. This is the invariant that keeps a
// disconnected client from poisoning a long-lived serving engine.
func TestStageCancellationIsNotCached(t *testing.T) {
	e := New(Options{MaxDyn: testMaxDyn})
	w := testWorkload(t, "mm")
	core := cores.OOO2

	canceled, cancel := context.WithCancel(context.Background())
	cancel()

	if _, err := e.TraceCtx(canceled, w); !errors.Is(err, context.Canceled) {
		t.Fatalf("TraceCtx under canceled ctx: err = %v, want context.Canceled", err)
	}
	if _, err := e.TDGCtx(canceled, w); !errors.Is(err, context.Canceled) {
		t.Fatalf("TDGCtx under canceled ctx: err = %v, want context.Canceled", err)
	}
	if _, err := e.ContextCtx(canceled, w, core); !errors.Is(err, context.Canceled) {
		t.Fatalf("ContextCtx under canceled ctx: err = %v, want context.Canceled", err)
	}
	if _, _, err := e.EvaluateCtx(canceled, w, core, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("EvaluateCtx under canceled ctx: err = %v, want context.Canceled", err)
	}
	if _, err := e.ReportCtx(canceled, w, core, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("ReportCtx under canceled ctx: err = %v, want context.Canceled", err)
	}

	// The canceled attempts must not have poisoned any memo: the same
	// engine now serves the full pipeline under a live ctx (a cached
	// cancellation would surface context.Canceled here instead).
	if _, _, err := e.EvaluateCtx(context.Background(), w, core, nil); err != nil {
		t.Fatalf("EvaluateCtx after canceled attempts: %v", err)
	}
	hitsBefore := e.Metrics().Stage(StageEval).Hits
	if _, _, err := e.EvaluateCtx(context.Background(), w, core, nil); err != nil {
		t.Fatalf("repeat EvaluateCtx: %v", err)
	}
	if hits := e.Metrics().Stage(StageEval).Hits; hits != hitsBefore+1 {
		t.Fatalf("eval hits %d -> %d, want the successful result cached", hitsBefore, hits)
	}
	if _, err := e.ReportCtx(context.Background(), w, core, nil); err != nil {
		t.Fatalf("ReportCtx after canceled attempts: %v", err)
	}
	hitsBefore = e.Metrics().Stage(StageReport).Hits
	if _, err := e.ReportCtx(context.Background(), w, core, nil); err != nil {
		t.Fatalf("repeat ReportCtx: %v", err)
	}
	if hits := e.Metrics().Stage(StageReport).Hits; hits != hitsBefore+1 {
		t.Fatalf("report hits %d -> %d, want the successful result cached", hitsBefore, hits)
	}
}

// Waiters blocked on another caller's in-flight computation must unblock
// when their own ctx is done, without waiting for the computation.
func TestMemoWaiterUnblocksOnCancel(t *testing.T) {
	var m memo[int]
	release := make(chan struct{})
	started := make(chan struct{})
	go func() {
		m.getCtx(context.Background(), "k", func(context.Context) (int, error) {
			close(started)
			<-release
			return 42, nil
		})
	}()
	<-started

	ctx, cancel := context.WithCancel(context.Background())
	go cancel()
	_, _, _, err := m.getCtx(ctx, "k", func(context.Context) (int, error) {
		t.Error("waiter must not recompute an in-flight key")
		return 0, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("waiter err = %v, want context.Canceled", err)
	}
	close(release)

	// The winner's value is cached and served normally.
	v, hit, _, err := m.getCtx(context.Background(), "k", func(context.Context) (int, error) {
		return 0, errors.New("must not recompute")
	})
	if err != nil || !hit || v != 42 {
		t.Fatalf("post-flight lookup = (%d, hit=%v, %v), want (42, true, nil)", v, hit, err)
	}
}

// A deadline error from the computation itself is evicted, not cached.
func TestMemoDoesNotCacheDeadlineErrors(t *testing.T) {
	var m memo[int]
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	_, _, _, err := m.getCtx(ctx, "k", func(ctx context.Context) (int, error) {
		return 0, ctx.Err()
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
	if m.len() != 0 {
		t.Fatalf("memo kept %d entries after deadline failure, want 0", m.len())
	}

	// Genuine (non-cancellation) errors stay cached: a failed stage fails
	// identically instead of being retried.
	boom := errors.New("boom")
	m.getCtx(context.Background(), "k", func(context.Context) (int, error) { return 0, boom })
	_, hit, _, err := m.getCtx(context.Background(), "k", func(context.Context) (int, error) {
		return 0, errors.New("must not recompute")
	})
	if !hit || !errors.Is(err, boom) {
		t.Fatalf("cached error lookup = (hit=%v, %v), want (true, boom)", hit, err)
	}
}

// Cancelling mid-sweep stops workers from claiming new indices.
func TestForEachCtxCancelStopsNewWork(t *testing.T) {
	e := New(Options{MaxDyn: testMaxDyn, Workers: 2})
	ctx, cancel := context.WithCancel(context.Background())
	const n = 1000
	ran := make([]bool, n)
	err := e.ForEachCtx(ctx, n, func(i int) error {
		ran[i] = true
		if i == 3 {
			cancel()
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	total := 0
	for _, r := range ran {
		if r {
			total++
		}
	}
	if total == n {
		t.Fatal("all indices ran despite cancellation")
	}
	// MapCtx delegates to the same loop; spot-check the plumbing.
	if _, err := MapCtx(ctx, e, 4, func(i int) (int, error) { return i, nil }); !errors.Is(err, context.Canceled) {
		t.Fatalf("MapCtx err = %v, want context.Canceled", err)
	}
}
