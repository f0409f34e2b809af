package runner

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"exocore/internal/cores"
	"exocore/internal/obs"
	"exocore/internal/store"
)

// TestEngineWarmRestartThroughStore is the end-to-end gate for -store:
// two engines sharing one store directory (simulating a daemon
// restart) must agree exactly on every evaluation, and the second must
// come up warm — its first evaluations served partly from disk.
func TestEngineWarmRestartThroughStore(t *testing.T) {
	dir := t.TempDir()
	w := testWorkload(t, "cjpeg")
	assigns := []map[int]string{nil}

	open := func(reg *obs.Registry) *store.Store {
		t.Helper()
		s, err := store.Open(dir, store.Options{Reg: reg})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}

	reg1 := obs.NewRegistry()
	e1 := New(Options{MaxDyn: testMaxDyn, Persist: open(reg1), Reg: reg1})
	sc, err := e1.Context(w, cores.OOO2)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range sc.Candidates {
		assigns = append(assigns, map[int]string{c.LoopID: c.BSA})
	}
	type meas struct {
		cycles int64
		energy float64
	}
	var want []meas
	for _, a := range assigns {
		cyc, nj, err := e1.Evaluate(w, cores.OOO2, a)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, meas{cyc, nj})
	}
	if reg1.Counter("store.writes").Value() == 0 {
		t.Fatal("first engine wrote nothing to the store")
	}

	reg2 := obs.NewRegistry()
	e2 := New(Options{MaxDyn: testMaxDyn, Persist: open(reg2), Reg: reg2})
	for i, a := range assigns {
		cyc, nj, err := e2.Evaluate(w, cores.OOO2, a)
		if err != nil {
			t.Fatal(err)
		}
		if cyc != want[i].cycles || nj != want[i].energy {
			t.Errorf("assign %v: warm engine = (%d, %g), cold = (%d, %g)",
				a, cyc, nj, want[i].cycles, want[i].energy)
		}
	}
	if hits := reg2.Counter("store.hits").Value(); hits == 0 {
		t.Error("restarted engine never hit the store")
	} else {
		t.Logf("restarted engine: %d store hits", hits)
	}

	// A different budget must namespace apart: no cross-hits.
	reg3 := obs.NewRegistry()
	e3 := New(Options{MaxDyn: testMaxDyn / 2, Persist: open(reg3), Reg: reg3})
	if _, _, err := e3.Evaluate(w, cores.OOO2, nil); err != nil {
		t.Fatal(err)
	}
	if hits := reg3.Counter("store.hits").Value(); hits != 0 {
		t.Errorf("budget %d engine hit %d entries persisted under budget %d",
			testMaxDyn/2, hits, testMaxDyn)
	}
}

// TestEngineUncachedWhenStoreWritesFail: a store that cannot write (a
// regular file sits at every object shard directory's path, as a full
// disk would refuse them) must leave evaluation exactly as without a
// store, with every failed write counted in store.write_errors.
func TestEngineUncachedWhenStoreWritesFail(t *testing.T) {
	dir := t.TempDir()
	reg := obs.NewRegistry()
	s, err := store.Open(dir, store.Options{Reg: reg})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 256; i++ {
		if err := os.WriteFile(filepath.Join(dir, "objects", fmt.Sprintf("%02x", i)), nil, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	w := testWorkload(t, "cjpeg")
	broken := New(Options{MaxDyn: testMaxDyn, Persist: s, Reg: reg})
	plain := New(Options{MaxDyn: testMaxDyn})
	sc, err := plain.Context(w, cores.OOO2)
	if err != nil {
		t.Fatal(err)
	}
	assigns := []map[int]string{nil}
	for _, c := range sc.Candidates {
		assigns = append(assigns, map[int]string{c.LoopID: c.BSA})
	}
	for _, a := range assigns {
		cyc, nj, err := broken.Evaluate(w, cores.OOO2, a)
		if err != nil {
			t.Fatal(err)
		}
		wantCyc, wantNJ, err := plain.Evaluate(w, cores.OOO2, a)
		if err != nil {
			t.Fatal(err)
		}
		if cyc != wantCyc || nj != wantNJ {
			t.Errorf("assign %v: through the failing store = (%d, %g), without a store (%d, %g)",
				a, cyc, nj, wantCyc, wantNJ)
		}
	}
	if n := reg.Counter("store.write_errors").Value(); n == 0 {
		t.Error("no failed write was counted")
	}
	if n := reg.Counter("store.writes").Value(); n != 0 {
		t.Errorf("store.writes = %d, want 0", n)
	}
	if s.Len() != 0 {
		t.Errorf("store holds %d entries, want 0", s.Len())
	}
}
