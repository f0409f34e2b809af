package exocore

import (
	"reflect"
	"sort"
	"sync"
	"testing"

	"exocore/internal/cores"
	"exocore/internal/obs"
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
// stay identical to a serial uncached reference, for SIMD's one
// core-resident unit and Trace-P's many solo units. Goroutines that miss
// the same unit at once each evaluate it and the first store wins, so
// the memo must still count each key as one entry and its resident
// bytes as exactly its keys and values, whether an entry holds its
// record or refers to the shared pool's (Trace-P units that retire no
// core µop).
func TestCacheConcurrentRuns(t *testing.T) {
	td := buildTDG(t, "mm", 15000)
	bsas := allBSAs()
	plans := analyzeAll(td, bsas)

	cache := NewCache(td)
	const goroutines = 8
	var lookups int64
	for _, name := range []string{"SIMD", "Trace-P"} {
		assign := Assignment{}
		for l := range plans[name].Regions {
			assign[l] = name
		}
		ref, err := Run(td, cores.OOO2, bsas, plans, assign, RunOpts{})
		if err != nil {
			t.Fatal(err)
		}
		results := make([]*RunResult, goroutines)
		errs := make([]error, goroutines)
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				results[g], errs[g] = Run(td, cores.OOO2, bsas, plans, assign, RunOpts{Cache: cache})
			}(g)
		}
		wg.Wait()
		for g := 0; g < goroutines; g++ {
			if errs[g] != nil {
				t.Fatalf("%s goroutine %d: %v", name, g, errs[g])
			}
			if !reflect.DeepEqual(ref, results[g]) {
				t.Errorf("%s goroutine %d diverged from the serial uncached reference", name, g)
			}
		}
		lookups += goroutines * int64(len(unitize(td, Segmentize(td, assign), assign, bsas)))
	}

	var keys, resident, pooled int64
	cache.memo.each(func(k, enc []byte, inPool bool) {
		keys++
		resident += int64(len(k) + len(enc))
		if inPool {
			pooled++
		}
	})
	s := cache.Stats()
	if keys < 10 || s.Entries != keys {
		t.Errorf("entries = %d, the memo holds %d keys (want at least 10)", s.Entries, keys)
	}
	if s.ResidentBytes != resident {
		t.Errorf("resident bytes = %d, the memo's keys and values take %d", s.ResidentBytes, resident)
	}
	if s.Misses < s.Entries || s.Hits+s.Misses != lookups {
		t.Errorf("cache stats %+v over %d unit lookups", s, lookups)
	}
	if pooled == 0 {
		t.Error("no memo entry refers to the shared pool: the test no longer races pool references")
	}
}

// TestCacheConcurrentRegionRuns races attributed Runs against lean Runs
// on one fresh cache per round, the way a region request can race a
// sweep on a shared scheduling context. The attributed runs alternate
// between two core configs, so the attributions they borrow cross
// configs and goroutines. Attributed runs ignore the cache: every one
// must match its core's cache-less reference, and the round must leave
// the cache's counters and a counting Persist's gets and puts exactly
// where the lean runs alone leave them.
func TestCacheConcurrentRegionRuns(t *testing.T) {
	td := buildTDG(t, "mm", 4000)
	bsas := allBSAs()
	plans := analyzeAll(td, bsas)
	offload := Assignment{}
	for l := range plans["NS-DF"].Regions {
		offload[l] = "NS-DF"
	}
	assigns := []Assignment{nil, offload}

	// Each round's lean goroutine runs its assignment twice in a row, so
	// its counters are deterministic: compare them with the same two
	// runs alone. A warm-up first publishes the NS-DF units to the TDG's
	// shared pool, so every round finds them there.
	type counters struct {
		stats      CacheStats
		gets, puts int
	}
	lean := func(c *Cache, a Assignment) (*RunResult, error) {
		if _, err := Run(td, cores.OOO2, bsas, plans, a, RunOpts{Cache: c}); err != nil {
			return nil, err
		}
		return Run(td, cores.OOO2, bsas, plans, a, RunOpts{Cache: c})
	}
	count := func(c *Cache, p *mapPersist) counters {
		s := c.Stats()
		s.BytesReused = 0 // arena reuse depends on the worker pool's state
		return counters{s, p.gets, p.puts}
	}
	attrCores := []cores.Config{cores.OOO2, cores.OOO4}
	refs := make([][]*RunResult, len(assigns))
	leanRefs := make([]*RunResult, len(assigns))
	want := make([]counters, len(assigns))
	for i, a := range assigns {
		var err error
		for _, core := range attrCores {
			ref, err := Run(td, core, bsas, plans, a, RunOpts{RecordRegions: true})
			if err != nil {
				t.Fatal(err)
			}
			refs[i] = append(refs[i], ref)
		}
		if _, err := lean(NewCache(td), a); err != nil {
			t.Fatal(err)
		}
		c, p := NewCache(td), newMapPersist()
		c.AttachPersist(p, "ns|")
		if leanRefs[i], err = lean(c, a); err != nil {
			t.Fatal(err)
		}
		want[i] = count(c, p)
	}
	if want[1].stats.SharedHits == 0 {
		t.Fatal("the NS-DF assignment served no shared hits: the test no longer covers the shared pool")
	}

	const rounds, goroutines = 40, 5
	for r := 0; r < rounds; r++ {
		i := r % len(assigns)
		cache, p := NewCache(td), newMapPersist()
		cache.AttachPersist(p, "ns|")
		results := make([]*RunResult, goroutines)
		errs := make([]error, goroutines)
		start := make(chan struct{})
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				<-start
				if g == 0 {
					results[g], errs[g] = lean(cache, assigns[i])
					return
				}
				results[g], errs[g] = Run(td, attrCores[g%2], bsas, plans, assigns[i],
					RunOpts{Cache: cache, RecordRegions: true})
			}(g)
		}
		close(start)
		wg.Wait()
		for g, res := range results {
			if errs[g] != nil {
				t.Fatalf("round %d goroutine %d: %v", r, g, errs[g])
			}
			if g == 0 {
				if !reflect.DeepEqual(res, leanRefs[i]) {
					t.Errorf("round %d: the lean run diverges from its reference", r)
				}
			} else if !reflect.DeepEqual(res, refs[i][g%2]) {
				t.Errorf("round %d goroutine %d: attributed %s run diverges from the cache-less reference", r, g, attrCores[g%2].Name)
			}
		}
		if got := count(cache, p); got != want[i] {
			t.Errorf("round %d: attributed runs moved the cache's counters: %+v, lean runs alone %+v", r, got, want[i])
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

// TestSharedPoolOutlivesOtherTDGs holds a TDG's shared pool to the TDG's
// life, however many other TDGs build caches meanwhile: an NS-DF solo
// unit OOO2 evaluated reaches a later OOO4 cache of the same TDG as a
// shared hit after 40 other TDGs have built caches.
func TestSharedPoolOutlivesOtherTDGs(t *testing.T) {
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
	if _, err := Run(td, cores.OOO2, bsas, plans, assign, RunOpts{Cache: NewCache(td)}); err != nil {
		t.Fatal(err)
	}
	for i := range 40 {
		NewCache(buildTDG(t, "mm", 1000+i))
	}
	second := NewCache(td)
	if _, err := Run(td, cores.OOO4, bsas, plans, assign, RunOpts{Cache: second}); err != nil {
		t.Fatal(err)
	}
	if n := second.Stats().SharedHits; n < 1 {
		t.Errorf("OOO4 cache counted %d shared hits after 40 other TDGs built caches, want >= 1", n)
	}
}

// TestAttributedRunsLeaveWorkersLean holds the pooled workers to what
// lean runs leave in them: attributed runs of a 100k trace on two cores
// evaluate on a borrowed attribution, so after them the same lean runs
// leave the workers of both configs holding exactly the bytes they hold
// after those lean runs alone. The serial attributed runs leave one
// attribution on the free list, and the next attributed run takes it
// instead of making another and reports its graph's high water in the
// dg.graph_high_water_bytes gauge.
func TestAttributedRunsLeaveWorkersLean(t *testing.T) {
	td := buildTDG(t, "mm", 100_000)
	bsas := allBSAs()
	plans := analyzeAll(td, bsas)
	every := Assignment{}
	for _, name := range []string{"SIMD", "NS-DF"} {
		for l := range plans[name].Regions {
			if _, taken := every[l]; !taken {
				every[l] = name
			}
		}
	}
	assigns := []Assignment{nil, every}
	cs := []cores.Config{cores.OOO2, cores.OOO4}
	runAll := func(opts RunOpts) {
		t.Helper()
		for _, core := range cs {
			for _, a := range assigns {
				if _, err := Run(td, core, bsas, plans, a, opts); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	held := func() (n int64) {
		for _, core := range cs {
			n += pooledWorkerBytes(core)
		}
		return n
	}

	emptyPools()
	runAll(RunOpts{})
	want := held()

	emptyPools()
	runAll(RunOpts{RecordRegions: true})
	pooled := pooledAttributions()
	if len(pooled) != 1 {
		t.Fatalf("serial attributed runs left %d attributions on the free list, want 1", len(pooled))
	}
	runAll(RunOpts{})
	if got := held(); got != want {
		t.Errorf("after attributed runs the pooled workers hold %d B, after the lean runs alone %d B", got, want)
	}
	reg := obs.NewRegistry()
	if _, err := Run(td, cores.OOO2, bsas, plans, every, RunOpts{RecordRegions: true, Reg: reg}); err != nil {
		t.Fatal(err)
	}
	if again := pooledAttributions(); len(again) != 1 || again[0] != pooled[0] {
		t.Errorf("a second attributed run left %d attributions on the free list, want the one it took", len(again))
	}
	if got, want := reg.Gauge("dg.graph_high_water_bytes").Value(), pooled[0].g.HighWaterBytes(); got != want {
		t.Errorf("the attributed run's graph high water gauge reads %d B, its attribution graph's high water is %d B", got, want)
	}
	if a := pooled[0]; a.g.Lean() || a.log.MemBytes() == 0 {
		t.Errorf("the pooled attribution holds a lean graph or an empty log (%d B)", a.log.MemBytes())
	}
}
