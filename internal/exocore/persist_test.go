package exocore

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"sort"
	"sync"
	"testing"

	"exocore/internal/bsa"
	"exocore/internal/cores"
	"exocore/internal/dg"
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

// recordingPersist serves nothing and keeps every Put as it came: the
// key copied (the engine reuses its key buffer), the value as is.
type recordingPersist struct {
	mu   sync.Mutex
	puts []recordedPut
}

type recordedPut struct{ key, val []byte }

func (p *recordingPersist) Get([]byte) ([]byte, bool) { return nil, false }

func (p *recordingPersist) Put(key, val []byte) {
	p.mu.Lock()
	p.puts = append(p.puts, recordedPut{append([]byte(nil), key...), val})
	p.mu.Unlock()
}

// TestPersistPutsTheMemoBytes holds the durable store to the memo's one
// encoding: every value a Run writes through is the memo's own entry for
// its key, the same bytes in the same allocation. It covers the quick
// set (cli.QuickSet) on two cores, so the second core's shared-pool hits
// write through as well, under no BSAs, each single BSA and all BSAs.
func TestPersistPutsTheMemoBytes(t *testing.T) {
	for _, bench := range []string{"mm", "nbody", "cjpeg", "mcf", "gzip", "stencil"} {
		td := buildTDG(t, bench, 4000)
		bsas := bsa.Default().New()
		plans := analyzeAll(td, bsas)
		names := make([]string, 0, len(bsas))
		for name := range bsas {
			names = append(names, name)
		}
		sort.Strings(names)
		assigns := []Assignment{nil}
		all := Assignment{}
		for _, name := range names {
			one := Assignment{}
			for l := range plans[name].Regions {
				one[l] = name
				if _, taken := all[l]; !taken {
					all[l] = name
				}
			}
			assigns = append(assigns, one)
		}
		assigns = append(assigns, all)

		for _, core := range []cores.Config{cores.OOO2, cores.OOO4} {
			p := &recordingPersist{}
			c := NewCache(td)
			ns := bench + "/" + core.Name + "|"
			c.AttachPersist(p, ns)
			for _, a := range assigns {
				if _, err := Run(td, core, bsas, plans, a, RunOpts{Cache: c}); err != nil {
					t.Fatal(err)
				}
			}
			if len(p.puts) == 0 {
				t.Fatalf("%s on %s: nothing written through", bench, core.Name)
			}
			for _, put := range p.puts {
				key, ok := bytes.CutPrefix(put.key, []byte(ns))
				if !ok {
					t.Fatalf("%s on %s: put key %q lacks the namespace", bench, core.Name, put.key)
				}
				memo, _, ok := c.memo.get(keyHash(key), key)
				if !ok || !bytes.Equal(put.val, memo) || &put.val[0] != &memo[0] {
					t.Fatalf("%s on %s: put %x for key %x, the memo holds %x", bench, core.Name, put.val, key, memo)
				}
			}
			t.Logf("%s on %s: %d puts, %d shared hits", bench, core.Name, len(p.puts), c.Stats().SharedHits)
		}
	}
}

// codecSegs returns the three segments the codec tests share: durations
// 10, 0 and 1<<40, one count on the first and a negative delta on the
// last (deltas are non-negative in practice; the codec must not care).
func codecSegs() ([]int64, []energy.Counts) {
	counts := make([]energy.Counts, 3)
	counts[0][0] = 7
	counts[2][1] = -3
	return []int64{10, 0, 1 << 40}, counts
}

// encodeSegs writes an outcome value the way evalUnit does.
func encodeSegs(durs []int64, counts []energy.Counts) []byte {
	b := appendOutcomeHeader(nil, len(durs))
	for i, d := range durs {
		b = appendSegment(b, d, &counts[i])
	}
	return b
}

// decodeSegs reads a checked outcome value back segment by segment, the
// way composition does.
func decodeSegs(raw []byte) ([]int64, []energy.Counts) {
	n, p, _ := outcomeBody(raw)
	durs, counts := make([]int64, n), make([]energy.Counts, n)
	for i := range durs {
		durs[i], p = nextSegment(p, &counts[i])
	}
	return durs, counts
}

// TestOutcomeBytes pins the outcomeVersion 1 bytes of a three-segment
// outcome. They are both the memo's form and the durable store's value,
// so a store written by an earlier build stays warm only while they
// hold.
func TestOutcomeBytes(t *testing.T) {
	zeros := func(n int) []byte { return make([]byte, n) }
	var want []byte
	want = append(want, 0x1, 0x21, 0x3)                     // version, 33 events, 3 segments
	want = append(want, 0xa, 0xe)                           // duration 10, event 0: +7
	want = append(want, zeros(32)...)                       // events 1-32: 0
	want = append(want, 0x0)                                // duration 0
	want = append(want, zeros(33)...)                       // events 0-32: 0
	want = append(want, 0x80, 0x80, 0x80, 0x80, 0x80, 0x20) // duration 1<<40
	want = append(want, 0x0, 0x5)                           // event 0: 0, event 1: -3
	want = append(want, zeros(31)...)                       // events 2-32: 0
	if energy.NumEvents != 33 {
		t.Fatalf("energy.NumEvents = %d: a new event changes every outcome value, so it needs a new outcomeVersion", energy.NumEvents)
	}
	if got := encodeSegs(codecSegs()); !bytes.Equal(got, want) {
		t.Errorf("outcome value = %#v\nwant %#v", got, want)
	}
}

// TestOutcomeCodecRoundTrip exercises the value encoding directly,
// including malformed input.
func TestOutcomeCodecRoundTrip(t *testing.T) {
	durs, counts := codecSegs()
	raw := encodeSegs(durs, counts)
	if n, ok := checkOutcome(raw); !ok || n != len(durs) {
		t.Fatalf("checkOutcome = %d, %v; want %d, true", n, ok, len(durs))
	}
	gotDurs, gotCounts := decodeSegs(raw)
	if !reflect.DeepEqual(gotDurs, durs) || !reflect.DeepEqual(gotCounts, counts) {
		t.Fatalf("round trip mismatch: %v %+v", gotDurs, gotCounts)
	}

	for _, bad := range [][]byte{nil, {}, {2}, raw[:len(raw)-1], append(append([]byte{}, raw...), 0)} {
		if _, ok := checkOutcome(bad); ok {
			t.Errorf("checkOutcome accepted malformed input %v", bad)
		}
	}
}

// A segment count the value's bytes cannot hold is rejected before
// anything walks it: seven bytes claiming 1<<24 segments are rejected
// without allocating.
func TestOutcomeCountBoundedByBytes(t *testing.T) {
	raw := []byte{outcomeVersion}
	raw = binary.AppendUvarint(raw, uint64(energy.NumEvents))
	raw = binary.AppendUvarint(raw, 1<<24)
	raw = append(raw, 0)
	if len(raw) != 7 {
		t.Fatalf("value is %d bytes, want 7", len(raw))
	}
	var ok bool
	allocs := testing.AllocsPerRun(1, func() { _, ok = checkOutcome(raw) })
	if ok {
		t.Fatal("checkOutcome accepted a segment count its bytes cannot hold")
	}
	if allocs != 0 {
		t.Fatalf("checkOutcome made %v allocations before rejecting, want 0", allocs)
	}
}

// FuzzDecodeOutcome: checking any persisted value must not panic; an
// accepted value must decode to the same segments again once
// re-encoded, and must compose without a panic into exactly the sums of
// its segments.
func FuzzDecodeOutcome(f *testing.F) {
	good := encodeSegs(codecSegs())
	huge := binary.AppendUvarint(binary.AppendUvarint([]byte{outcomeVersion}, uint64(energy.NumEvents)), 1<<24)
	for _, seed := range [][]byte{good, good[:len(good)-1], append(huge, 0), {2}, nil} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		n, ok := checkOutcome(raw)
		if !ok {
			return
		}
		durs, counts := decodeSegs(raw)
		again := encodeSegs(durs, counts)
		if m, ok := checkOutcome(again); !ok || m != n {
			t.Fatalf("%x re-encodes to %x, which checks as %d segments, %v", raw, again, m, ok)
		}
		if d2, c2 := decodeSegs(again); !reflect.DeepEqual(d2, durs) || !reflect.DeepEqual(c2, counts) {
			t.Fatalf("%x decodes to %v %+v, its re-encoding to %v %+v", raw, durs, counts, d2, c2)
		}

		u := unit{segs: make([]Segment, n), names: make([]string, n), cfgRes: make([]bool, n)}
		for i := range u.segs {
			u.segs[i] = Segment{LoopID: -1, Start: i, End: i + 1}
		}
		comp := composer{res: &RunResult{}, opts: &RunOpts{RecordSegments: true, RecordRegions: true}}
		comp.add(&u, &unitOutcome{enc: raw, classes: make([][dg.NumEdgeClasses]int64, n)})
		var cycles int64
		var sum energy.Counts
		for i, d := range durs {
			cycles += d
			sum.AddCounts(&counts[i])
		}
		if comp.at != cycles || comp.res.Counts != sum || len(comp.res.Segments) != n {
			t.Fatalf("%x composes to %d cycles, %+v over %d segments; its segments sum to %d, %+v over %d",
				raw, comp.at, comp.res.Counts, len(comp.res.Segments), cycles, sum, n)
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
