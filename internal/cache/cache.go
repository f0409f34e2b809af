// Package cache models a set-associative write-allocate cache hierarchy
// with LRU replacement. The hierarchy annotates each memory operation in a
// dynamic trace with the latency and level that served it; those
// annotations become the execute→complete edge weights in the µDG. The
// default geometry matches the paper's common configuration (§4): 2-way
// 32KiB I$, 64KiB L1D$ (4-cycle), 8-way 2MB L2$ (22-cycle hit).
package cache

import (
	"exocore/internal/prog"
	"exocore/internal/trace"
)

// Config describes one cache level.
type Config struct {
	SizeBytes int
	Ways      int
	LineBytes int
	Latency   int // access (hit) latency in cycles
}

// Cache is one set-associative LRU cache level.
type Cache struct {
	cfg      Config
	sets     int
	lineBits uint
	// Way state is stored flat (set*Ways+way): three allocations per
	// cache regardless of set count. lru holds a per-set use counter.
	tags   []uint64
	valid  []bool
	lru    []uint64
	useClk uint64
	hits   uint64
	misses uint64
}

// New returns a cache with the given geometry. SizeBytes must be a
// multiple of Ways*LineBytes.
func New(cfg Config) *Cache {
	if cfg.LineBytes <= 0 {
		cfg.LineBytes = 64
	}
	sets := cfg.SizeBytes / (cfg.Ways * cfg.LineBytes)
	if sets < 1 {
		sets = 1
	}
	c := &Cache{cfg: cfg, sets: sets}
	for b := cfg.LineBytes; b > 1; b >>= 1 {
		c.lineBits++
	}
	n := sets * cfg.Ways
	c.tags = make([]uint64, n)
	c.valid = make([]bool, n)
	c.lru = make([]uint64, n)
	return c
}

// Access looks up addr, filling on miss, and reports whether it hit.
func (c *Cache) Access(addr uint64) bool {
	line := addr >> c.lineBits
	set := int(line % uint64(c.sets))
	tag := line / uint64(c.sets)
	c.useClk++
	base := set * c.cfg.Ways
	ways := c.tags[base : base+c.cfg.Ways]
	for w := range ways {
		if c.valid[base+w] && ways[w] == tag {
			c.lru[base+w] = c.useClk
			c.hits++
			return true
		}
	}
	c.misses++
	// Fill: choose invalid way or LRU victim.
	victim := 0
	var oldest uint64 = ^uint64(0)
	for w := range ways {
		if !c.valid[base+w] {
			victim = w
			oldest = 0
			break
		}
		if c.lru[base+w] < oldest {
			oldest = c.lru[base+w]
			victim = w
		}
	}
	c.valid[base+victim] = true
	c.tags[base+victim] = tag
	c.lru[base+victim] = c.useClk
	return false
}

// Stats returns (hits, misses).
func (c *Cache) Stats() (uint64, uint64) { return c.hits, c.misses }

// Latency returns the configured hit latency.
func (c *Cache) Latency() int { return c.cfg.Latency }

// Hierarchy is an L1D + L2 + DRAM hierarchy shared by the general core and
// all BSAs (the paper's ExoCores share the cache hierarchy and virtual
// memory so execution can migrate without copying state).
type Hierarchy struct {
	L1D    *Cache
	L2     *Cache
	MemLat int
	// NextLinePrefetch installs the successor line into L1 on every L1
	// miss (a simple stream prefetcher; off by default to match the
	// paper's configuration — used by the prefetch ablation).
	NextLinePrefetch bool

	prefetches uint64
}

// DefaultHierarchy returns the paper's §4 configuration.
func DefaultHierarchy() *Hierarchy {
	return &Hierarchy{
		L1D:    New(Config{SizeBytes: 64 << 10, Ways: 2, LineBytes: 64, Latency: 4}),
		L2:     New(Config{SizeBytes: 2 << 20, Ways: 8, LineBytes: 64, Latency: 22}),
		MemLat: 110,
	}
}

// Access runs one access through the hierarchy and returns the total
// latency and the level that served it.
func (h *Hierarchy) Access(addr uint64) (int, trace.MemLevel) {
	if h.L1D.Access(addr) {
		return h.L1D.Latency(), trace.LevelL1
	}
	if h.NextLinePrefetch {
		// Pull the successor line toward the core alongside the demand
		// fill (latency of the prefetch itself is hidden).
		next := addr + uint64(h.L1D.cfg.LineBytes)
		h.L1D.Access(next)
		h.L2.Access(next)
		h.prefetches++
	}
	if h.L2.Access(addr) {
		return h.L2.Latency(), trace.LevelL2
	}
	return h.MemLat, trace.LevelMem
}

// Annotate replays every memory operation in t through a fresh copy of the
// hierarchy configuration, setting MemLat and Level on each. Non-memory
// instructions are untouched.
func (h *Hierarchy) Annotate(t *trace.Trace) {
	h.AnnotateInsts(t.Prog, t.Insts)
}

// AnnotateInsts is Annotate over one chunk of a dynamic trace. Cache
// state (tags, LRU clocks, hit/miss counters) lives in the hierarchy and
// carries across calls, so annotating a trace chunk-by-chunk produces
// exactly the bytes the whole-trace scan does, at any chunk size.
func (h *Hierarchy) AnnotateInsts(p *prog.Program, insts []trace.DynInst) {
	for i := range insts {
		d := &insts[i]
		op := p.Insts[d.SI].Op
		if !op.IsMem() {
			continue
		}
		lat, lvl := h.Access(d.Addr)
		d.MemLat = uint16(lat)
		d.Level = lvl
	}
}
