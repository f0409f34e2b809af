package exocore

import (
	"reflect"
	"sort"
	"sync"
	"testing"

	"exocore/internal/cores"
	"exocore/internal/energy"
)

// mapPersist is an in-memory Persist for tests, copying keys and
// values (the engine reuses its scratch buffers between calls).
type mapPersist struct {
	mu   sync.Mutex
	m    map[string][]byte
	gets int
	hits int
	puts int
}

func newMapPersist() *mapPersist { return &mapPersist{m: make(map[string][]byte)} }

func (p *mapPersist) Get(key []byte) ([]byte, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.gets++
	v, ok := p.m[string(key)]
	if ok {
		p.hits++
	}
	return append([]byte(nil), v...), ok
}

func (p *mapPersist) Put(key, val []byte) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.puts++
	p.m[string(key)] = append([]byte(nil), val...)
}

// TestPersistWarmRestartMatchesCold is the correctness gate for the
// durable tier: a fresh Cache attached to a Persist populated by a
// previous Cache (simulating a daemon restart) must produce results
// deeply identical to a cold run, while actually serving outcomes from
// the persist layer.
func TestPersistWarmRestartMatchesCold(t *testing.T) {
	td := buildTDG(t, "cjpeg", 15000)
	bsas := allBSAs()
	plans := analyzeAll(td, bsas)

	var assigns []Assignment
	assigns = append(assigns, nil)
	var names []string
	for name := range bsas {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		full := Assignment{}
		for l := range plans[name].Regions {
			full[l] = name
		}
		if len(full) > 0 {
			assigns = append(assigns, full)
		}
	}

	run := func(c *Cache, assign Assignment) *RunResult {
		t.Helper()
		res, err := Run(td, cores.OOO2, bsas, plans, assign, RunOpts{Cache: c})
		if err != nil {
			t.Fatalf("run %v: %v", assign, err)
		}
		return res
	}

	// Cold process: populate the persist layer.
	p := newMapPersist()
	c1 := NewCache(cores.OOO2)
	c1.AttachPersist(p, "u1|cjpeg/OOO2/15000|")
	var want []*RunResult
	for _, a := range assigns {
		want = append(want, run(c1, a))
	}
	if p.puts == 0 {
		t.Fatal("cold run persisted nothing")
	}

	// Restarted process: fresh cache, same store and namespace.
	p.gets, p.hits = 0, 0
	c2 := NewCache(cores.OOO2)
	c2.AttachPersist(p, "u1|cjpeg/OOO2/15000|")
	for i, a := range assigns {
		got := run(c2, a)
		if !reflect.DeepEqual(want[i], got) {
			t.Errorf("assign %d: warm-restart result diverges\ncold: %+v\nwarm: %+v", i, want[i], got)
		}
	}
	if p.hits == 0 {
		t.Error("warm restart never hit the persist layer")
	}
	t.Logf("warm restart: %d/%d persist hits, %d entries", p.hits, p.gets, len(p.m))

	// A different namespace must not cross-contaminate.
	c3 := NewCache(cores.OOO2)
	c3.AttachPersist(p, "u1|cjpeg/OOO4/15000|")
	before := p.hits
	run(c3, nil)
	if p.hits != before {
		t.Error("foreign namespace served a hit")
	}
}

// TestPersistSkipsClassAttribution checks that class-attributed runs
// bypass the persist layer in both directions: nothing persisted, and
// a classless persisted outcome never satisfies a RecordRegions run.
func TestPersistSkipsClassAttribution(t *testing.T) {
	td := buildTDG(t, "mm", 15000)
	bsas := allBSAs()
	plans := analyzeAll(td, bsas)

	ref, err := Run(td, cores.OOO2, bsas, plans, nil, RunOpts{RecordRegions: true})
	if err != nil {
		t.Fatal(err)
	}

	p := newMapPersist()
	c1 := NewCache(cores.OOO2)
	c1.AttachPersist(p, "ns|")
	if _, err := Run(td, cores.OOO2, bsas, plans, nil, RunOpts{Cache: c1, RecordRegions: true}); err != nil {
		t.Fatal(err)
	}
	if p.puts != 0 || p.gets != 0 {
		t.Fatalf("RecordRegions run touched the persist layer (%d gets, %d puts)", p.gets, p.puts)
	}

	// Populate classlessly (a fresh cache, so misses actually reach the
	// persist layer), then demand classes from yet another fresh cache:
	// the classless entries must be bypassed and the result must carry
	// regions.
	c1b := NewCache(cores.OOO2)
	c1b.AttachPersist(p, "ns|")
	if _, err := Run(td, cores.OOO2, bsas, plans, nil, RunOpts{Cache: c1b}); err != nil {
		t.Fatal(err)
	}
	if p.puts == 0 {
		t.Fatal("classless run persisted nothing")
	}
	c2 := NewCache(cores.OOO2)
	c2.AttachPersist(p, "ns|")
	got, err := Run(td, cores.OOO2, bsas, plans, nil, RunOpts{Cache: c2, RecordRegions: true})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ref.Regions, got.Regions) {
		t.Error("RecordRegions through a warm persist layer diverges from the uncached reference")
	}
}

// TestOutcomeCodecRoundTrip exercises the value encoding directly,
// including the prefix-aliased form and malformed input.
func TestOutcomeCodecRoundTrip(t *testing.T) {
	o := &unitOutcome{
		segDurs:   []int64{10, 0, 1 << 40},
		segCounts: make([]energy.Counts, 3),
	}
	o.segCounts[0][0] = 7
	o.segCounts[2][1] = -3 // deltas are non-negative in practice; codec must not care
	raw := encodeOutcome(o, nil)
	got := decodeOutcome(raw)
	if got == nil {
		t.Fatal("decode failed")
	}
	if got.n() != 3 || got.dur(2) != 1<<40 || got.counts(0)[0] != 7 || got.counts(2)[1] != -3 {
		t.Fatalf("round trip mismatch: %+v", got)
	}

	// Prefix-aliased outcome flattens through the accessors.
	pre := &unitOutcome{
		segDurs:    o.segDurs[:2:2],
		segCounts:  o.segCounts[:2:2],
		nsegs:      3,
		lastDur:    99,
		lastCounts: energy.Counts{5},
	}
	got = decodeOutcome(encodeOutcome(pre, nil))
	if got == nil || got.n() != 3 || got.dur(2) != 99 || got.counts(2)[0] != 5 {
		t.Fatalf("prefix round trip mismatch: %+v", got)
	}

	for _, bad := range [][]byte{nil, {}, {2}, raw[:len(raw)-1], append(append([]byte{}, raw...), 0)} {
		if decodeOutcome(bad) != nil {
			t.Errorf("decode accepted malformed input %v", bad)
		}
	}
}
