package exocore_test

import (
	"testing"

	"exocore/internal/cli"
	"exocore/internal/cores"
	"exocore/internal/dse"
	"exocore/internal/exocore"
	"exocore/internal/runner"
	"exocore/internal/workloads"
)

// TestQuickSweepMemoHeldBytes bounds what the unit memo holds with its
// overhead, over the quick-set sweep internal/dse's
// TestQuickSweepMemoBytesPerEntry runs (10k instructions, IO2 and OOO2):
// every cache's arena chunks and index slots, plus each TDG's shared
// pool once, at most 150 B per memoized entry. It reads 136–139 over
// 2229 entries, whose keys and values take 90, so the 12 caches and 6
// pools hold about 305 kB where Go maps held 405 kB: their arenas'
// chunks grow from 256 B, so a lightly used one holds no mostly empty
// 16 KiB chunk. A bigger slot, a lower load factor, a per-entry object
// in the table or a whole first chunk would show here.
func TestQuickSweepMemoHeldBytes(t *testing.T) {
	var ws []*workloads.Workload
	for _, name := range cli.QuickSet {
		w, err := workloads.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		ws = append(ws, w)
	}
	cs := []cores.Config{cores.IO2, cores.OOO2}
	eng := runner.New(runner.Options{MaxDyn: 10_000})
	// Resident benches keep their contexts through the exploration, so
	// the held bytes below are those of the caches the sweep filled.
	for _, w := range ws {
		if _, err := eng.Trace(w); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := dse.Explore(dse.Options{Workloads: ws, Cores: cs, Engine: eng}); err != nil {
		t.Fatal(err)
	}
	var memo, pool int64
	for _, w := range ws {
		for i, core := range cs {
			sc, err := eng.Context(w, core)
			if err != nil {
				t.Fatal(err)
			}
			memo += exocore.MemoHeldBytes(sc.Cache)
			if i == 0 {
				pool += exocore.PoolHeldBytes(sc.Cache)
			}
		}
	}
	ec := eng.Metrics().EvalCache
	perEntry := float64(memo+pool) / float64(ec.Entries)
	if perEntry > 150 {
		t.Errorf("the memo holds %.1f B per entry (%d B in caches, %d B in pools, %d entries), want at most 150",
			perEntry, memo, pool, ec.Entries)
	}
	t.Logf("memo: %d entries, %d resident bytes; held %d B in caches and %d B in pools, %.1f B per entry",
		ec.Entries, ec.ResidentBytes, memo, pool, perEntry)
}
