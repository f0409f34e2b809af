package runner

import (
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"exocore/internal/cores"
	"exocore/internal/exocore"
	"exocore/internal/sched"
	"exocore/internal/trace"
	"exocore/internal/workloads"
)

const testMaxDyn = 10_000

func testWorkload(t *testing.T, name string) *workloads.Workload {
	t.Helper()
	w, err := workloads.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestStageCacheHitMissAccounting(t *testing.T) {
	e := New(Options{MaxDyn: testMaxDyn})
	w := testWorkload(t, "mm")

	if _, err := e.Trace(w); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Trace(w); err != nil {
		t.Fatal(err)
	}
	m := e.Metrics()
	tr := m.Stage(StageTrace)
	if tr.Calls != 2 || tr.Misses != 1 || tr.Hits != 1 {
		t.Errorf("trace stage = %+v, want calls=2 misses=1 hits=1", tr)
	}
	if tr.Insts != testMaxDyn {
		t.Errorf("trace insts = %d, want %d (only misses count work)", tr.Insts, testMaxDyn)
	}

	// TDG miss reuses the cached trace (a third trace call, a hit).
	if _, err := e.TDG(w); err != nil {
		t.Fatal(err)
	}
	m = e.Metrics()
	if got := m.Stage(StageTrace).Hits; got != 2 {
		t.Errorf("trace hits after TDG = %d, want 2", got)
	}
	if td := m.Stage(StageTDG); td.Misses != 1 || td.WallNS <= 0 {
		t.Errorf("tdg stage = %+v, want misses=1 and wall > 0", td)
	}

	// Context miss chains TDG (hit) internally.
	if _, err := e.Context(w, cores.OOO2); err != nil {
		t.Fatal(err)
	}
	m = e.Metrics()
	if got := m.Stage(StageTDG).Hits; got != 1 {
		t.Errorf("tdg hits after Context = %d, want 1", got)
	}
	if sc := m.Stage(StageSched); sc.Misses != 1 {
		t.Errorf("sched stage = %+v, want misses=1", sc)
	}
}

func TestConcurrentSingleflight(t *testing.T) {
	e := New(Options{MaxDyn: testMaxDyn, Workers: 8})
	w := testWorkload(t, "mm")

	const callers = 16
	ctxs := make([]*sched.Context, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sc, err := e.Context(w, cores.OOO2)
			if err != nil {
				t.Error(err)
				return
			}
			ctxs[i] = sc
		}(i)
	}
	wg.Wait()

	for i := 1; i < callers; i++ {
		if ctxs[i] != ctxs[0] {
			t.Fatalf("caller %d got a different context instance", i)
		}
	}
	m := e.Metrics().Stage(StageSched)
	if m.Misses != 1 {
		t.Errorf("sched misses = %d, want 1 (computed exactly once)", m.Misses)
	}
	if m.Hits != callers-1 {
		t.Errorf("sched hits = %d, want %d", m.Hits, callers-1)
	}
}

func TestEvaluateCachedMatchesUncached(t *testing.T) {
	e := New(Options{MaxDyn: testMaxDyn})
	w := testWorkload(t, "cjpeg")
	core := cores.OOO2

	sc, err := e.Context(w, core)
	if err != nil {
		t.Fatal(err)
	}
	assign := sc.Oracle(e.BSAs().Names())

	// Fresh, uncached evaluation straight on the scheduling context.
	wantCycles, wantEnergy, err := sc.Evaluate(assign)
	if err != nil {
		t.Fatal(err)
	}

	// First engine call computes, second is served from cache; both must
	// be identical to the uncached result.
	for i, wantHit := range []bool{false, true} {
		cycles, energy, err := e.Evaluate(w, core, assign)
		if err != nil {
			t.Fatal(err)
		}
		if cycles != wantCycles || energy != wantEnergy {
			t.Errorf("call %d: got (%d, %g), uncached (%d, %g)",
				i, cycles, energy, wantCycles, wantEnergy)
		}
		m := e.Metrics().Stage(StageEval)
		if wantHit && m.Hits == 0 {
			t.Error("second evaluation not served from cache")
		}
	}
}

func TestEvaluateDistinctAssignmentsDistinctEntries(t *testing.T) {
	e := New(Options{MaxDyn: testMaxDyn})
	w := testWorkload(t, "cjpeg")
	sc, err := e.Context(w, cores.OOO2)
	if err != nil {
		t.Fatal(err)
	}
	oracle := sc.Oracle(e.BSAs().Names())
	none := exocore.Assignment{}
	c1, _, err := e.Evaluate(w, cores.OOO2, oracle)
	if err != nil {
		t.Fatal(err)
	}
	c2, _, err := e.Evaluate(w, cores.OOO2, none)
	if err != nil {
		t.Fatal(err)
	}
	if len(oracle) > 0 && c1 == c2 {
		t.Errorf("oracle (%d) and empty (%d) assignment collided in cache", c1, c2)
	}
	if got := e.evals.len(); got != 2 {
		t.Errorf("eval cache entries = %d, want 2", got)
	}
}

func TestAssignmentKeyCanonical(t *testing.T) {
	a := exocore.Assignment{3: "SIMD", 1: "NS-DF", 2: "Trace-P"}
	b := exocore.Assignment{2: "Trace-P", 1: "NS-DF", 3: "SIMD"}
	if AssignmentKey(a) != AssignmentKey(b) {
		t.Errorf("same assignment, different keys: %q vs %q", AssignmentKey(a), AssignmentKey(b))
	}
	if AssignmentKey(a) != "1=NS-DF;2=Trace-P;3=SIMD;" {
		t.Errorf("key = %q", AssignmentKey(a))
	}
	if AssignmentKey(nil) != "" {
		t.Errorf("nil assignment key = %q, want empty", AssignmentKey(nil))
	}
}

func TestErrorsAreCached(t *testing.T) {
	var computes int
	var m memo[int]
	want := errors.New("boom")
	for i := 0; i < 3; i++ {
		_, _, _, err := m.get("k", func() (int, error) {
			computes++
			return 0, want
		})
		if err != want {
			t.Fatalf("call %d: err = %v", i, err)
		}
	}
	if computes != 1 {
		t.Errorf("computes = %d, want 1 (errors cached, not retried)", computes)
	}
}

func TestForEachFirstErrorDeterministic(t *testing.T) {
	e := New(Options{MaxDyn: testMaxDyn, Workers: 8})
	err := e.ForEach(100, func(i int) error {
		if i%10 == 7 { // 7, 17, 27, ... all fail
			return errors.New(string(rune('a' + i/10)))
		}
		return nil
	})
	if err == nil || err.Error() != "a" {
		t.Errorf("err = %v, want the lowest failing index's error %q", err, "a")
	}
}

func TestMapPreservesOrder(t *testing.T) {
	e := New(Options{MaxDyn: testMaxDyn, Workers: 8})
	out, err := Map(e, 64, func(i int) (int, error) { return i * i, nil })
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != i*i {
			t.Fatalf("out[%d] = %d, want %d", i, v, i*i)
		}
	}
}

func TestProgressEvents(t *testing.T) {
	var events []Event
	e := New(Options{MaxDyn: testMaxDyn, Progress: func(ev Event) { events = append(events, ev) }})
	w := testWorkload(t, "mm")
	if _, err := e.Trace(w); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Trace(w); err != nil {
		t.Fatal(err)
	}
	if len(events) != 2 {
		t.Fatalf("events = %d, want 2", len(events))
	}
	if events[0].CacheHit || !events[1].CacheHit {
		t.Errorf("expected miss then hit, got %+v", events)
	}
	if events[0].Stage != StageTrace || events[0].Key != "mm" {
		t.Errorf("event = %+v", events[0])
	}
}

// TestDroppedEngineIsCollected holds process-wide state to keeping no
// engine alive: once an engine that ran Evaluate and Report on an
// offload design is dropped and another has booted and evaluated on
// another core, the first engine's trace is collected. A registry of
// shared pools keyed by TDG, or a pooled worker keeping the context of
// its last transform, would keep it reachable.
func TestDroppedEngineIsCollected(t *testing.T) {
	w := testWorkload(t, "mm")
	use := func(e *Engine, core cores.Config) {
		t.Helper()
		sc, err := e.Context(w, core)
		if err != nil {
			t.Fatal(err)
		}
		a := exocore.Assignment{}
		for l := range sc.Plans["NS-DF"].Regions {
			a[l] = "NS-DF"
		}
		if len(a) == 0 {
			t.Fatal("NS-DF plans no loop of mm")
		}
		if _, _, err := e.Evaluate(w, core, a); err != nil {
			t.Fatal(err)
		}
		if _, err := e.Report(w, core, a); err != nil {
			t.Fatal(err)
		}
	}
	collected := make(chan struct{})
	func() {
		e := New(Options{MaxDyn: testMaxDyn})
		tr, err := e.Trace(w)
		if err != nil {
			t.Fatal(err)
		}
		runtime.SetFinalizer(&tr.Insts[0], func(*trace.DynInst) { close(collected) })
		use(e, cores.OOO2)
	}()
	next := New(Options{MaxDyn: testMaxDyn})
	use(next, cores.OOO4)
	deadline := time.Now().Add(10 * time.Second)
	for done := false; !done; {
		runtime.GC()
		select {
		case <-collected:
			done = true
		case <-time.After(10 * time.Millisecond):
			if time.Now().After(deadline) {
				t.Fatal("a dropped engine's trace is still reachable 10 s after another engine booted")
			}
		}
	}
	runtime.KeepAlive(next)
}
