package cache

import (
	"testing"
	"testing/quick"

	"exocore/internal/isa"
	"exocore/internal/prog"
	"exocore/internal/trace"
)

func TestDirectReuseHits(t *testing.T) {
	c := New(Config{SizeBytes: 1024, Ways: 2, LineBytes: 64, Latency: 1})
	if c.Access(0) {
		t.Error("cold access should miss")
	}
	if !c.Access(0) {
		t.Error("repeat access should hit")
	}
	if !c.Access(8) {
		t.Error("same-line access should hit")
	}
	hits, misses := c.Stats()
	if hits != 2 || misses != 1 {
		t.Errorf("hits=%d misses=%d, want 2/1", hits, misses)
	}
}

func TestLRUEviction(t *testing.T) {
	// 2 ways, 1 set of 2 lines: size = 2*64.
	c := New(Config{SizeBytes: 128, Ways: 2, LineBytes: 64, Latency: 1})
	c.Access(0)       // miss, fill
	c.Access(64)      // miss, fill (set is the same: only 1 set)
	c.Access(0)       // hit, 0 is MRU
	c.Access(128)     // miss, evicts 64
	if !c.Access(0) { // still resident
		t.Error("LRU evicted the MRU line")
	}
	if c.Access(64) {
		t.Error("64 should have been evicted")
	}
}

func TestWorkingSetFits(t *testing.T) {
	c := New(Config{SizeBytes: 4096, Ways: 4, LineBytes: 64, Latency: 1})
	// Touch 4KB twice: second pass must be all hits.
	for pass := 0; pass < 2; pass++ {
		for a := uint64(0); a < 4096; a += 64 {
			c.Access(a)
		}
	}
	hits, misses := c.Stats()
	if misses != 64 || hits != 64 {
		t.Errorf("hits=%d misses=%d, want 64/64", hits, misses)
	}
}

func TestHierarchyLevels(t *testing.T) {
	h := DefaultHierarchy()
	lat, lvl := h.Access(0)
	if lvl != trace.LevelMem || lat != h.MemLat {
		t.Errorf("cold access: lat=%d lvl=%v, want mem", lat, lvl)
	}
	lat, lvl = h.Access(0)
	if lvl != trace.LevelL1 || lat != 4 {
		t.Errorf("warm access: lat=%d lvl=%v, want L1/4", lat, lvl)
	}
	// Evict from L1 (64KiB, 2-way) but not L2: stream 128KiB then re-touch 0.
	for a := uint64(64); a < 128<<10; a += 64 {
		h.Access(a)
	}
	lat, lvl = h.Access(0)
	if lvl != trace.LevelL2 || lat != 22 {
		t.Errorf("L1-evicted access: lat=%d lvl=%v, want L2/22", lat, lvl)
	}
}

func TestAnnotateSetsLatencies(t *testing.T) {
	b := prog.NewBuilder("t")
	b.MovI(isa.R(1), 0)
	b.Ld(isa.R(2), isa.R(1), 0)
	b.Ld(isa.R(3), isa.R(1), 0)
	p := b.MustBuild()
	tr := &trace.Trace{Prog: p, Insts: []trace.DynInst{
		{SI: 0}, {SI: 1, Addr: 0}, {SI: 2, Addr: 0},
	}}
	DefaultHierarchy().Annotate(tr)
	if tr.Insts[0].MemLat != 0 || tr.Insts[0].Level != trace.LevelNone {
		t.Error("non-mem inst annotated")
	}
	if tr.Insts[1].Level != trace.LevelMem {
		t.Errorf("first load level = %v, want mem", tr.Insts[1].Level)
	}
	if tr.Insts[2].Level != trace.LevelL1 || tr.Insts[2].MemLat != 4 {
		t.Errorf("second load = %v/%d, want L1/4", tr.Insts[2].Level, tr.Insts[2].MemLat)
	}
}

func TestNextLinePrefetchHelpsStreams(t *testing.T) {
	miss := func(prefetch bool) int {
		h := DefaultHierarchy()
		h.NextLinePrefetch = prefetch
		misses := 0
		for a := uint64(0); a < 256<<10; a += 8 {
			if _, lvl := h.Access(a); lvl != trace.LevelL1 {
				misses++
			}
		}
		return misses
	}
	without, with := miss(false), miss(true)
	if with >= without {
		t.Errorf("prefetcher did not reduce stream misses: %d vs %d", with, without)
	}
	h := DefaultHierarchy()
	h.NextLinePrefetch = true
	h.Access(0)
	if h.prefetches == 0 {
		t.Error("prefetch counter not incremented")
	}
}

func TestAccessAlwaysHitsAfterFill(t *testing.T) {
	c := New(Config{SizeBytes: 8192, Ways: 2, LineBytes: 64, Latency: 1})
	f := func(addr uint64) bool {
		c.Access(addr)
		return c.Access(addr)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
