package exocore

import (
	"bytes"
	"reflect"
	"sort"
	"sync"
	"testing"

	"exocore/internal/cores"
	"exocore/internal/dg"
	"exocore/internal/energy"
	"exocore/internal/tdg"
)

// TestCachedRunMatchesUncached is the correctness gate for the
// evaluation-unit cache: for every assignment, a cache-backed Run must be
// deeply identical — cycles, energy counts, per-model attribution,
// offload cycles and segment timeline — to the cache-disabled Run, and a
// second cache-backed Run (served from memoized outcomes) must reproduce
// the first.
func TestCachedRunMatchesUncached(t *testing.T) {
	for _, bench := range []string{"mm", "cjpeg", "gzip"} {
		td := buildTDG(t, bench, 15000)
		bsas := allBSAs()
		plans := analyzeAll(td, bsas)
		cache := NewCache(td)

		assigns := []Assignment{nil, {}}
		var names []string
		for name := range bsas {
			names = append(names, name)
		}
		sort.Strings(names)
		mixed := Assignment{}
		for k, name := range names {
			full := Assignment{}
			var loops []int
			for l := range plans[name].Regions {
				loops = append(loops, l)
			}
			sort.Ints(loops)
			for n, l := range loops {
				full[l] = name
				if (n+k)%len(names) == 0 {
					mixed[l] = name
				}
			}
			if len(full) > 0 {
				assigns = append(assigns, full)
			}
		}
		if len(mixed) > 0 {
			assigns = append(assigns, mixed)
		}

		for n, assign := range assigns {
			opts := RunOpts{RecordSegments: true}
			want, err := Run(td, cores.OOO2, bsas, plans, assign, opts)
			if err != nil {
				t.Fatalf("%s assign %d uncached: %v", bench, n, err)
			}
			opts.Cache = cache
			got, err := Run(td, cores.OOO2, bsas, plans, assign, opts)
			if err != nil {
				t.Fatalf("%s assign %d cached: %v", bench, n, err)
			}
			if !reflect.DeepEqual(want, got) {
				t.Errorf("%s assign %d (%v): cached result diverges\nuncached: %+v\ncached:   %+v",
					bench, n, assign, want, got)
			}
			again, err := Run(td, cores.OOO2, bsas, plans, assign, opts)
			if err != nil {
				t.Fatalf("%s assign %d cached rerun: %v", bench, n, err)
			}
			if !reflect.DeepEqual(got, again) {
				t.Errorf("%s assign %d: memoized rerun diverges from first cached run", bench, n)
			}
		}

		s := cache.Stats()
		if s.Hits == 0 {
			t.Errorf("%s: no cache hits across %d assignments", bench, len(assigns))
		}
		if s.Entries == 0 || s.Entries > s.Misses {
			t.Errorf("%s: implausible cache stats %+v", bench, s)
		}
		if s.BytesReused == 0 {
			t.Errorf("%s: worker pool never reused an arena", bench)
		}
		t.Logf("%s: %d assignments, cache stats %+v", bench, len(assigns), s)
	}
}

// TestCacheConcurrentRuns drives one Cache from concurrent goroutines (as
// dse.Explore does through a shared sched.Context) and checks results
// stay identical to a serial uncached reference.
func TestCacheConcurrentRuns(t *testing.T) {
	td := buildTDG(t, "mm", 15000)
	bsas := allBSAs()
	plans := analyzeAll(td, bsas)

	assign := Assignment{}
	for l := range plans["SIMD"].Regions {
		assign[l] = "SIMD"
	}
	ref, err := Run(td, cores.OOO2, bsas, plans, assign, RunOpts{})
	if err != nil {
		t.Fatal(err)
	}

	cache := NewCache(td)
	const goroutines = 8
	results := make([]*RunResult, goroutines)
	errs := make([]error, goroutines)
	done := make(chan int)
	for g := 0; g < goroutines; g++ {
		go func(g int) {
			results[g], errs[g] = Run(td, cores.OOO2, bsas, plans, assign, RunOpts{Cache: cache})
			done <- g
		}(g)
	}
	for g := 0; g < goroutines; g++ {
		<-done
	}
	for g := 0; g < goroutines; g++ {
		if errs[g] != nil {
			t.Fatalf("goroutine %d: %v", g, errs[g])
		}
		if !reflect.DeepEqual(ref, results[g]) {
			t.Errorf("goroutine %d diverged from the serial uncached reference", g)
		}
	}
}

// TestStoreReplacesClasslessEntry pins the store rule that lets
// class-attributed runs share a cache with sweeps: a class-attributed
// outcome replaces a class-less entry for the same key and comes back
// from store, a class-less outcome never displaces a class-attributed
// one, and the key counts as one entry. Both outcomes hold the same
// encoded value, as they do in the engine; the resident bytes follow the
// entry that stays.
func TestStoreReplacesClasslessEntry(t *testing.T) {
	c := NewCache(new(tdg.TDG))
	k := appendKey(nil, &unit{
		segs:  []Segment{{LoopID: -1, Start: 0, End: 100}},
		names: []string{""}, cfgRes: []bool{false},
	})
	var counts energy.Counts
	enc := appendSegment(appendOutcomeHeader(nil, 1), 7, &counts)
	plain := unitOutcome{enc: enc}
	classed := unitOutcome{enc: enc, classes: make([][dg.NumEdgeClasses]int64, 1)}
	classed.classes[0][dg.EdgeData] = 7

	if got := c.store(k, plain); got.classes != nil || !bytes.Equal(got.enc, enc) {
		t.Fatal("first store did not keep its outcome")
	}
	if got := c.store(k, classed); got.classes == nil || !bytes.Equal(got.enc, enc) {
		t.Fatal("class-attributed store got the class-less entry back")
	}
	if got, ok := c.lookup(k); !ok || got.classes == nil {
		t.Error("lookup after replacement returned the class-less entry")
	}
	if got := c.store(k, plain); got.classes == nil {
		t.Error("class-less store displaced the class-attributed entry")
	}
	s := c.Stats()
	if s.Entries != 1 {
		t.Errorf("entries = %d after three stores of one key, want 1", s.Entries)
	}
	if want := int64(len(k) + len(enc) + 8*int(dg.NumEdgeClasses)); s.ResidentBytes != want {
		t.Errorf("resident bytes = %d, want %d (key, value and one segment's classes)", s.ResidentBytes, want)
	}
}

// TestCacheConcurrentRegionRuns mixes class-attributed and plain Runs on
// one fresh cache per round, the way a daemon's region request races a
// sweep on a shared scheduling context: the plain runs evaluate faster
// and usually store first, so every class-attributed run must still get
// its classes back and match the cache-less reference exactly.
func TestCacheConcurrentRegionRuns(t *testing.T) {
	td := buildTDG(t, "mm", 4000)
	bsas := allBSAs()
	plans := analyzeAll(td, bsas)
	offload := Assignment{}
	for l := range plans["NS-DF"].Regions {
		offload[l] = "NS-DF"
	}
	assigns := []Assignment{nil, offload}
	refs := make([]*RunResult, len(assigns))
	for i, a := range assigns {
		var err error
		if refs[i], err = Run(td, cores.OOO2, bsas, plans, a, RunOpts{RecordRegions: true}); err != nil {
			t.Fatal(err)
		}
	}

	const rounds, goroutines = 40, 4
	for r := 0; r < rounds; r++ {
		assign, ref := assigns[r%len(assigns)], refs[r%len(assigns)]
		cache := NewCache(td)
		results := make([]*RunResult, goroutines)
		errs := make([]error, goroutines)
		start := make(chan struct{})
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				<-start
				results[g], errs[g] = Run(td, cores.OOO2, bsas, plans, assign,
					RunOpts{Cache: cache, RecordRegions: g%2 == 0})
			}(g)
		}
		close(start)
		wg.Wait()
		for g, res := range results {
			if errs[g] != nil {
				t.Fatalf("round %d goroutine %d: %v", r, g, errs[g])
			}
			if res.Cycles != ref.Cycles || res.Counts != ref.Counts {
				t.Errorf("round %d goroutine %d: totals diverge from the cache-less reference", r, g)
			}
			if g%2 == 0 && !reflect.DeepEqual(res.Regions, ref.Regions) {
				t.Errorf("round %d goroutine %d: region table diverges from the cache-less reference", r, g)
			}
		}
	}
}

// TestSharedPoolServesSiblingCore pins the cross-core shared pool to the
// cache's construction: two caches built on one TDG share its pool, so an
// NS-DF solo unit one core evaluated reaches the other core as a shared
// hit, and that core's result still equals its cache-less Run.
func TestSharedPoolServesSiblingCore(t *testing.T) {
	td := buildTDG(t, "mm", 15000)
	bsas := allBSAs()
	plans := analyzeAll(td, bsas)
	var loops []int
	for l := range plans["NS-DF"].Regions {
		loops = append(loops, l)
	}
	if len(loops) == 0 {
		t.Fatal("NS-DF plans no loop of mm")
	}
	sort.Ints(loops)
	assign := Assignment{loops[0]: "NS-DF"}

	first, second := NewCache(td), NewCache(td)
	if _, err := Run(td, cores.OOO2, bsas, plans, assign, RunOpts{Cache: first}); err != nil {
		t.Fatal(err)
	}
	got, err := Run(td, cores.OOO4, bsas, plans, assign, RunOpts{Cache: second})
	if err != nil {
		t.Fatal(err)
	}
	if n := second.Stats().SharedHits; n < 1 {
		t.Errorf("OOO4 cache counted %d shared hits after OOO2 evaluated the NS-DF solo, want >= 1", n)
	}
	want, err := Run(td, cores.OOO4, bsas, plans, assign, RunOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if got.Cycles != want.Cycles || got.Counts != want.Counts || !reflect.DeepEqual(got.Models, want.Models) {
		t.Errorf("OOO4 through the shared pool diverges from its cache-less Run\nshared:     %+v\ncache-less: %+v", got, want)
	}
}

// TestWarmRunAllocsIndependentOfUnits holds composition to allocating
// nothing per unit or segment: once every unit is a memo hit, a Run
// allocates the same number of objects, beyond what splitting its trace
// (Segmentize, unitize) allocates, for mm's 82 Trace-P units as for one
// unit — the general core alone, or the 82 SIMD segments that share one
// pipeline.
func TestWarmRunAllocsIndependentOfUnits(t *testing.T) {
	td := buildTDG(t, "mm", 15000)
	bsas := allBSAs()
	plans := analyzeAll(td, bsas)
	every := func(name string) Assignment {
		a := Assignment{}
		for l := range plans[name].Regions {
			a[l] = name
		}
		return a
	}
	cache := NewCache(td)
	measure := func(assign Assignment) (units int, beyondSplit float64) {
		t.Helper()
		run := func() {
			if _, err := Run(td, cores.OOO2, bsas, plans, assign, RunOpts{Cache: cache}); err != nil {
				t.Fatal(err)
			}
		}
		run() // memoizes every unit
		units = len(unitize(td, Segmentize(td, assign), assign, bsas))
		split := testing.AllocsPerRun(20, func() { unitize(td, Segmentize(td, assign), assign, bsas) })
		return units, testing.AllocsPerRun(20, run) - split
	}
	_, gpp := measure(nil)
	simdUnits, simd := measure(every("SIMD"))
	manyUnits, many := measure(every("Trace-P"))
	if simdUnits != 1 || manyUnits < 10 {
		t.Fatalf("SIMD and Trace-P form %d and %d units, want 1 and at least 10", simdUnits, manyUnits)
	}
	if many != gpp || simd != gpp {
		t.Errorf("a warm Run allocates %v objects beyond its split for %d Trace-P units, %v for the SIMD unit and %v for the general core alone",
			many, manyUnits, simd, gpp)
	}
	t.Logf("warm Run beyond its split: %v objects (general core), %v (SIMD unit), %v (%d Trace-P units)", gpp, simd, many, manyUnits)
}
