package exocore

import (
	"bytes"
	"encoding/binary"
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
	c1 := NewCache(td)
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
	c2 := NewCache(td)
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
	c3 := NewCache(td)
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
	c1 := NewCache(td)
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
	c1b := NewCache(td)
	c1b.AttachPersist(p, "ns|")
	if _, err := Run(td, cores.OOO2, bsas, plans, nil, RunOpts{Cache: c1b}); err != nil {
		t.Fatal(err)
	}
	if p.puts == 0 {
		t.Fatal("classless run persisted nothing")
	}
	c2 := NewCache(td)
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
// including malformed input.
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
	if !reflect.DeepEqual(got, o) {
		t.Fatalf("round trip mismatch: %+v", got)
	}

	for _, bad := range [][]byte{nil, {}, {2}, raw[:len(raw)-1], append(append([]byte{}, raw...), 0)} {
		if decodeOutcome(bad) != nil {
			t.Errorf("decode accepted malformed input %v", bad)
		}
	}
}

// A segment count the value's bytes cannot hold is rejected before
// anything is sized by it: seven bytes claiming 1<<24 segments decode to
// nil without allocating.
func TestOutcomeCountBoundedByBytes(t *testing.T) {
	raw := []byte{outcomeVersion}
	raw = binary.AppendUvarint(raw, uint64(energy.NumEvents))
	raw = binary.AppendUvarint(raw, 1<<24)
	raw = append(raw, 0)
	if len(raw) != 7 {
		t.Fatalf("value is %d bytes, want 7", len(raw))
	}
	var got *unitOutcome
	allocs := testing.AllocsPerRun(1, func() { got = decodeOutcome(raw) })
	if got != nil {
		t.Fatal("decode accepted a segment count its bytes cannot hold")
	}
	if allocs != 0 {
		t.Fatalf("decode made %v allocations before rejecting, want 0", allocs)
	}
}

// FuzzDecodeOutcome: decoding any persisted value must not panic, and an
// accepted value must decode to the same outcome again once re-encoded.
func FuzzDecodeOutcome(f *testing.F) {
	o := &unitOutcome{
		segDurs:   []int64{10, 0, 1 << 40},
		segCounts: make([]energy.Counts, 3),
	}
	o.segCounts[0][0] = 7
	o.segCounts[2][1] = -3
	good := encodeOutcome(o, nil)
	huge := binary.AppendUvarint(binary.AppendUvarint([]byte{outcomeVersion}, uint64(energy.NumEvents)), 1<<24)
	for _, seed := range [][]byte{good, good[:len(good)-1], append(huge, 0), {2}, nil} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		o := decodeOutcome(raw)
		if o == nil {
			return
		}
		if again := decodeOutcome(encodeOutcome(o, nil)); !reflect.DeepEqual(again, o) {
			t.Fatalf("%x decodes to %+v, its re-encoding to %+v", raw, o, again)
		}
	})
}

// TestUnitKeyBytes pins appendKey's encoding for three unit shapes: a
// pure general-core unit, a configuration-resident offload solo unit and
// a general core, SIMD, general core unit. The key bytes name persisted
// outcomes, so a store written by an earlier build stays warm only while
// they hold.
func TestUnitKeyBytes(t *testing.T) {
	for _, tc := range []struct {
		name string
		u    unit
		want []byte
	}{
		{"gpp", unit{
			segs:  []Segment{{LoopID: -1, Start: 0, End: 4000}},
			names: []string{""}, cfgRes: []bool{false},
		}, []byte{0x0, 0xa0, 0x1f, 0x1, 0x0, 0x0, 0x0, 0x0}},
		{"offload-resident", unit{
			segs:  []Segment{{LoopID: 12, Start: 1500, End: 2100}},
			names: []string{"NS-DF"}, cfgRes: []bool{true},
		}, []byte{0xdc, 0xb, 0xb4, 0x10, 0x1, 0x0, 0xd, 0x5, 'N', 'S', '-', 'D', 'F', 0x1}},
		{"gpp-simd-gpp", unit{
			segs:  []Segment{{LoopID: -1, Start: 300, End: 420}, {LoopID: 5, Start: 420, End: 900}, {LoopID: -1, Start: 900, End: 1000}},
			names: []string{"", "SIMD", ""}, cfgRes: []bool{false, false, false},
		}, []byte{0xac, 0x2, 0xe8, 0x7, 0x3, 0x0, 0x0, 0x0, 0x0, 0x78, 0x6, 0x4, 'S', 'I', 'M', 'D', 0x0, 0xd8, 0x4, 0x0, 0x0, 0x0}},
	} {
		if got := appendKey(nil, &tc.u); !bytes.Equal(got, tc.want) {
			t.Errorf("%s: appendKey = %#v, want %#v", tc.name, got, tc.want)
		}
	}
}
