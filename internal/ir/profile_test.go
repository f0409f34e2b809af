package ir

import (
	"reflect"
	"testing"

	"exocore/internal/isa"
	"exocore/internal/prog"
	"exocore/internal/sim"
	"exocore/internal/trace"
	"exocore/internal/workloads"
)

// matchesReference requires ProfileBuilder, fed tr whole and in chunks
// that split loops and blocks anywhere, to build exactly the profile of
// the reference builder fed tr whole. It returns that profile.
func matchesReference(t *testing.T, name string, p *prog.Program, tr *trace.Trace) *Profile {
	t.Helper()
	cfg := mustCFG(t, p)
	nest := BuildLoopNest(cfg)
	ref := newRefProfileBuilder(cfg, nest)
	ref.Feed(tr.Insts)
	want := ref.Finish()
	for _, chunk := range []int{len(tr.Insts), 1, 313, 4096} {
		pb := NewProfileBuilder(cfg, nest)
		for lo := 0; lo < len(tr.Insts); lo += chunk {
			pb.Feed(tr.Insts[lo:min(lo+chunk, len(tr.Insts))])
		}
		got := pb.Finish()
		switch {
		case !reflect.DeepEqual(got.BlockCount, want.BlockCount):
			t.Fatalf("%s chunk %d: block counts %v, reference %v", name, chunk, got.BlockCount, want.BlockCount)
		case !reflect.DeepEqual(got.Strides, want.Strides):
			t.Fatalf("%s chunk %d: strides %v, reference %v", name, chunk, got.Strides, want.Strides)
		case !reflect.DeepEqual(got.Loops, want.Loops):
			for i := range got.Loops {
				if !reflect.DeepEqual(got.Loops[i], want.Loops[i]) {
					t.Fatalf("%s chunk %d: loop %d profile %+v, reference %+v", name, chunk, i, got.Loops[i], want.Loops[i])
				}
			}
		case !reflect.DeepEqual(got, want):
			t.Fatalf("%s chunk %d: profile differs from the reference", name, chunk)
		}
	}
	return want
}

// TestProfileBuilderMatchesReference pins ProfileBuilder to the
// map-based reference on every registered workload.
func TestProfileBuilderMatchesReference(t *testing.T) {
	for _, w := range workloads.All() {
		tr, err := w.Trace(25_000)
		if err != nil {
			t.Fatal(err)
		}
		matchesReference(t, w.Name, tr.Prog, tr)
	}
}

// memLoop is a one-block loop body after a one-instruction prologue:
// si 1 loads, si 2 stores.
func memLoop() *prog.Program {
	b := prog.NewBuilder("memloop")
	b.MovI(isa.R(1), 0)
	b.Label("loop")
	b.Ld(isa.R(2), isa.R(3), 0)
	b.St(isa.R(2), isa.R(4), 0)
	b.SubI(isa.R(1), isa.R(1), 1)
	b.Bne(isa.R(1), isa.RZ, "loop")
	return b.MustBuild()
}

// memLoopTrace hand-builds iters passes through memLoop's body, with
// the load and store addresses of each iteration chosen by addr.
func memLoopTrace(iters int, addr func(iter int) (ld, st uint64)) *trace.Trace {
	p := memLoop()
	insts := []trace.DynInst{{SI: 0}}
	for it := 0; it < iters; it++ {
		ld, st := addr(it)
		insts = append(insts,
			trace.DynInst{SI: 1, Addr: ld},
			trace.DynInst{SI: 2, Addr: st},
			trace.DynInst{SI: 3},
			trace.DynInst{SI: 4, Flags: trace.FlagTaken})
	}
	return &trace.Trace{Prog: p, Insts: insts}
}

// TestProfileStrideOverflow gives a load more distinct deltas than the
// inline slots hold, with the top frequency tied between an inline
// delta (8) and an overflow one (-8): the tie goes to -8.
func TestProfileStrideOverflow(t *testing.T) {
	deltas := []int64{8, 16, 32, 64, 8, 8, 8, 8, -8, -8, -8, -8, -8, 40, 40}
	distinct := map[int64]bool{}
	for _, d := range deltas {
		distinct[d] = true
	}
	if len(distinct) <= strideSlots {
		t.Fatalf("%d distinct deltas do not overflow %d inline slots", len(distinct), strideSlots)
	}
	addrs := []uint64{0x10000}
	for _, d := range deltas {
		addrs = append(addrs, uint64(int64(addrs[len(addrs)-1])+d))
	}
	tr := memLoopTrace(len(addrs), func(it int) (uint64, uint64) { return addrs[it], 0x8000 })
	prof := matchesReference(t, "stride overflow", tr.Prog, tr)
	want := StrideInfo{Samples: int64(len(deltas)), Dominant: -8, Consistent: 5.0 / float64(len(deltas))}
	if got := prof.Strides[1]; got != want {
		t.Fatalf("load stride %+v, want %+v", got, want)
	}
}

// TestProfileStrideTableGrows gives a load 4001 distinct deltas, each
// once, so the overflow table grows from 16 slots to 8192, then three
// more each of 24 and -24: the top count is tied between two deltas
// that live in the table, and the tie goes to -24.
func TestProfileStrideTableGrows(t *testing.T) {
	const distinct = 4001 // prime, so i*7919 mod distinct visits every residue once
	var deltas []int64
	for i := range distinct {
		deltas = append(deltas, 8*int64(i*7919%distinct-distinct/2))
	}
	for range 3 {
		deltas = append(deltas, 24, -24)
	}
	addrs := []uint64{1 << 40}
	for _, d := range deltas {
		addrs = append(addrs, uint64(int64(addrs[len(addrs)-1])+d))
	}
	tr := memLoopTrace(len(addrs), func(it int) (uint64, uint64) { return addrs[it], 0x8000 })
	prof := matchesReference(t, "stride table growth", tr.Prog, tr)
	want := StrideInfo{Samples: int64(len(deltas)), Dominant: -24, Consistent: 4.0 / float64(len(deltas))}
	if got := prof.Strides[1]; got != want {
		t.Fatalf("load stride %+v, want %+v", got, want)
	}
}

// TestProfileDepTrackBound runs one loop occurrence over more than
// maxDepTrack distinct words (a fresh load and store address every
// iteration). Once the table holds maxDepTrack addresses it is frozen:
// a record made before the freeze is neither refreshed nor cleared, and
// an address first touched after it is never tracked.
func TestProfileDepTrackBound(t *testing.T) {
	const (
		iters = maxDepTrack + 100
		x     = 0x10 // re-touched word
	)
	fresh := func(it int) (uint64, uint64) { return 0x100000 + 16*uint64(it), 0x100008 + 16*uint64(it) }

	// x is loaded in the first iteration and loaded then stored in the
	// last: the frozen record still says "loaded in iteration 1", so the
	// store closes a carried dependence. Refreshing the record at the
	// last iteration's load would hide it.
	tr := memLoopTrace(iters, func(it int) (uint64, uint64) {
		ld, st := fresh(it)
		switch it {
		case 0:
			ld = x
		case iters - 1:
			ld, st = x, x
		}
		return ld, st
	})
	if prof := matchesReference(t, "frozen record", tr.Prog, tr); !prof.Loops[0].CarriedMemDep {
		t.Fatal("store to a word loaded before the freeze: want a carried dependence")
	}

	// y is stored and loaded again only after the freeze: untracked.
	const y = 0x20
	tr = memLoopTrace(iters, func(it int) (uint64, uint64) {
		ld, st := fresh(it)
		switch it {
		case iters - 10:
			st = y
		case iters - 5:
			ld = y
		}
		return ld, st
	})
	if prof := matchesReference(t, "untracked word", tr.Prog, tr); prof.Loops[0].CarriedMemDep {
		t.Fatal("word first touched after the freeze: want no carried dependence")
	}
}

// TestProfileSelfLoop covers a program that is one block branching to
// itself, so the block never changes: every iteration is detected by
// the backwards static step, and the loop's instruction count is only
// credited when Finish closes it.
func TestProfileSelfLoop(t *testing.T) {
	b := prog.NewBuilder("selfloop")
	b.Label("loop")
	b.Ld(isa.R(2), isa.R(3), 0)
	b.AddI(isa.R(3), isa.R(3), 8)
	b.SubI(isa.R(1), isa.R(1), 1)
	b.Bne(isa.R(1), isa.RZ, "loop")
	p := b.MustBuild()
	tr := traceOf(t, p, func(st *sim.State) { st.SetInt(isa.R(1), 40) })
	prof := matchesReference(t, "self loop", p, tr)
	lp := prof.Loops[0]
	if lp.Entries != 1 || lp.Iterations != 40 || lp.DynInsts != int64(tr.Len()) || prof.BlockCount[0] != 40 {
		t.Fatalf("self loop: entries %d iterations %d dyn %d blocks %v, want 1, 40, %d, [40]",
			lp.Entries, lp.Iterations, lp.DynInsts, prof.BlockCount, tr.Len())
	}
}
