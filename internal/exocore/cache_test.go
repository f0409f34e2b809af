package exocore

import (
	"reflect"
	"sort"
	"sync"
	"testing"

	"exocore/internal/cores"
	"exocore/internal/dg"
	"exocore/internal/energy"
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
		cache := NewCache(cores.OOO2)

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

	cache := NewCache(cores.OOO2)
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
// one, and the key counts as one entry.
func TestStoreReplacesClasslessEntry(t *testing.T) {
	c := NewCache(cores.OOO2)
	k := appendKey(nil, &unit{
		segs:  []Segment{{LoopID: -1, Start: 0, End: 100}},
		names: []string{""}, cfgRes: []bool{false},
	})
	plain := &unitOutcome{segDurs: []int64{7}, segCounts: make([]energy.Counts, 1)}
	classed := &unitOutcome{segDurs: []int64{7}, segCounts: make([]energy.Counts, 1),
		segClasses: make([][dg.NumEdgeClasses]int64, 1)}

	if got := c.store(k, plain); got != plain {
		t.Fatal("first store did not keep its outcome")
	}
	if got := c.store(k, classed); got != classed {
		t.Fatal("class-attributed store got the class-less entry back")
	}
	if got := c.lookup(k); got != classed {
		t.Error("lookup after replacement returned the class-less entry")
	}
	if got := c.store(k, plain); got != classed {
		t.Error("class-less store displaced the class-attributed entry")
	}
	if n := c.Stats().Entries; n != 1 {
		t.Errorf("entries = %d after three stores of one key, want 1", n)
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
		cache := NewCache(cores.OOO2)
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
