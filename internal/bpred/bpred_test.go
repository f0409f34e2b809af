package bpred

import (
	"testing"

	"exocore/internal/isa"
	"exocore/internal/prog"
	"exocore/internal/trace"
)

func TestAlwaysTakenLearned(t *testing.T) {
	p := New(DefaultConfig())
	misses := 0
	for i := 0; i < 1000; i++ {
		if !p.Predict(10, true) {
			misses++
		}
	}
	if misses > 2 {
		t.Errorf("always-taken branch mispredicted %d times", misses)
	}
}

func TestAlternatingLearnedByGshare(t *testing.T) {
	p := New(DefaultConfig())
	misses := 0
	for i := 0; i < 2000; i++ {
		if !p.Predict(20, i%2 == 0) {
			misses++
		}
	}
	// Gshare should lock onto the pattern after warmup.
	if rate := float64(misses) / 2000; rate > 0.1 {
		t.Errorf("alternating pattern miss rate = %.2f, want < 0.1", rate)
	}
}

func TestRandomishBranchMissRate(t *testing.T) {
	p := New(DefaultConfig())
	// Deterministic LCG as a stand-in for data-dependent branches.
	x := uint64(12345)
	misses := 0
	const n = 5000
	for i := 0; i < n; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		if !p.Predict(30, x>>63 == 1) {
			misses++
		}
	}
	rate := float64(misses) / n
	if rate < 0.2 {
		t.Errorf("pseudo-random branch miss rate = %.2f, implausibly low", rate)
	}
}

func TestStatsAccumulate(t *testing.T) {
	p := New(DefaultConfig())
	for i := 0; i < 100; i++ {
		p.Predict(1, true)
	}
	lookups, _ := p.Stats()
	if lookups != 100 {
		t.Errorf("lookups = %d, want 100", lookups)
	}
}

func TestAnnotateMarksMispredictions(t *testing.T) {
	b := prog.NewBuilder("t")
	b.Label("loop")
	b.SubI(isa.R(1), isa.R(1), 1)
	b.Bne(isa.R(1), isa.RZ, "loop")
	p := b.MustBuild()

	// 10 taken iterations then a not-taken exit: the exit should be the
	// (likely) mispredicted one once warmed up.
	var insts []trace.DynInst
	for i := 0; i < 10; i++ {
		insts = append(insts, trace.DynInst{SI: 0}, trace.DynInst{SI: 1, Flags: trace.FlagTaken})
	}
	insts = append(insts, trace.DynInst{SI: 0}, trace.DynInst{SI: 1}) // not taken
	tr := &trace.Trace{Prog: p, Insts: insts}
	New(DefaultConfig()).Annotate(tr)

	last := &tr.Insts[len(tr.Insts)-1]
	if !last.Mispredicted() {
		t.Error("loop-exit branch should be mispredicted")
	}
	mid := &tr.Insts[9]
	if mid.Mispredicted() {
		t.Error("steady-state taken branch should be predicted")
	}
}

func TestBump(t *testing.T) {
	if bump(3, true) != 3 || bump(0, false) != 0 {
		t.Error("bump must saturate")
	}
	if bump(1, true) != 2 || bump(2, false) != 1 {
		t.Error("bump must move counters")
	}
}
