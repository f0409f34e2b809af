package exocore

import (
	"testing"

	"exocore/internal/bpred"
	"exocore/internal/cache"
	"exocore/internal/isa"
	"exocore/internal/prog"
	"exocore/internal/sim"
	"exocore/internal/tdg"
	"exocore/internal/trace"
)

// synthTDG executes an authored program and builds its TDG, mirroring the
// quickstart pipeline (simulate, annotate caches and branch prediction,
// reconstruct).
func synthTDG(t *testing.T, p *prog.Program, init func(*sim.State)) *tdg.TDG {
	t.Helper()
	st := sim.NewState()
	if init != nil {
		init(st)
	}
	tr, err := sim.Run(p, st, sim.Config{MaxDyn: 100_000})
	if err != nil {
		t.Fatal(err)
	}
	cache.DefaultHierarchy().Annotate(tr)
	bpred.New(bpred.DefaultConfig()).Annotate(tr)
	td, err := tdg.Build(tr)
	if err != nil {
		t.Fatal(err)
	}
	return td
}

// checkCoverage asserts the segments exactly partition [0, trace length).
func checkCoverage(t *testing.T, td *tdg.TDG, segs []Segment) {
	t.Helper()
	last := 0
	for _, s := range segs {
		if s.Start != last {
			t.Fatalf("segment gap/overlap: segment starts at %d, previous ended at %d", s.Start, last)
		}
		if s.End <= s.Start {
			t.Fatalf("empty or inverted segment %+v", s)
		}
		last = s.End
	}
	if last != td.Trace.Len() {
		t.Fatalf("segments cover [0,%d) of a %d-instruction trace", last, td.Trace.Len())
	}
}

// eachSegmentizer runs check on both segmentizers Run uses: Segmentize
// (cache-less runs) and the delta composer's (cached runs), the latter
// built over a minimal plan for each assigned loop.
func eachSegmentizer(t *testing.T, td *tdg.TDG, assign Assignment, check func(t *testing.T, segs []Segment)) {
	t.Helper()
	plans := map[string]*tdg.Plan{}
	for l, name := range assign {
		if plans[name] == nil {
			plans[name] = &tdg.Plan{BSA: name, Regions: map[int]*tdg.Region{}}
		}
		plans[name].Regions[l] = &tdg.Region{LoopID: l}
	}
	comp := newComposer(td, plans)
	t.Run("Segmentize", func(t *testing.T) { check(t, Segmentize(td, assign)) })
	t.Run("composer", func(t *testing.T) { check(t, comp.segmentize(assign)) })
}

// TestSegmentizeEmptyTrace: a trace with no dynamic instructions yields no
// segments (and no phantom GPP segment).
func TestSegmentizeEmptyTrace(t *testing.T) {
	td := buildTDG(t, "mm", 5000)
	empty := &trace.Trace{Prog: td.Trace.Prog, Insts: []trace.DynInst{}}
	tdEmpty := &tdg.TDG{Trace: empty, CFG: td.CFG, Nest: td.Nest, Prof: td.Prof}
	eachSegmentizer(t, tdEmpty, Assignment{0: "SIMD"}, func(t *testing.T, segs []Segment) {
		if len(segs) != 0 {
			t.Errorf("empty trace produced %d segments: %+v", len(segs), segs)
		}
	})
}

// TestSegmentizeOutermostWins: when both loops of a nest are assigned, every
// instruction of the nest belongs to the outermost assignment — the inner
// loop never surfaces as its own segment.
func TestSegmentizeOutermostWins(t *testing.T) {
	b := prog.NewBuilder("nest")
	i, j, s, ni, nj := isa.R(1), isa.R(2), isa.R(3), isa.R(4), isa.R(5)
	b.MovI(i, 0)
	b.Label("outer")
	b.MovI(j, 0)
	b.Label("inner")
	b.AddI(s, s, 1)
	b.AddI(j, j, 1)
	b.Blt(j, nj, "inner")
	b.AddI(i, i, 1)
	b.Blt(i, ni, "outer")
	td := synthTDG(t, b.MustBuild(), func(st *sim.State) {
		st.SetInt(ni, 10)
		st.SetInt(nj, 20)
	})

	if len(td.Nest.Loops) != 2 {
		t.Fatalf("expected a 2-deep nest, got %d loops", len(td.Nest.Loops))
	}
	outer, inner := -1, -1
	for l := range td.Nest.Loops {
		if td.Nest.Loops[l].Parent == -1 {
			outer = l
		} else {
			inner = l
		}
	}
	if outer == -1 || inner == -1 || td.Nest.Loops[inner].Parent != outer {
		t.Fatalf("nest not recognized: outer=%d inner=%d", outer, inner)
	}

	eachSegmentizer(t, td, Assignment{outer: "NS-DF", inner: "SIMD"}, func(t *testing.T, segs []Segment) {
		checkCoverage(t, td, segs)
		for _, seg := range segs {
			if seg.LoopID == inner {
				t.Errorf("inner loop %d surfaced as its own segment despite outer assignment: %+v", inner, seg)
			}
		}
		// The whole nest (everything after the single init instruction)
		// must be one outer-loop segment.
		if len(segs) != 2 || segs[0].LoopID != -1 || segs[1].LoopID != outer {
			t.Fatalf("want [GPP init, outer nest], got %+v", segs)
		}
	})
}

// TestSegmentizeWholeTraceRegion: a program whose every instruction is
// statically inside one assigned loop yields exactly one region segment —
// no leading or trailing GPP sliver.
func TestSegmentizeWholeTraceRegion(t *testing.T) {
	b := prog.NewBuilder("wholeloop")
	i, s, n := isa.R(1), isa.R(2), isa.R(3)
	b.Label("loop")
	b.AddI(s, s, 1)
	b.AddI(i, i, 1)
	b.Blt(i, n, "loop")
	td := synthTDG(t, b.MustBuild(), func(st *sim.State) { st.SetInt(n, 50) })

	if len(td.Nest.Loops) != 1 {
		t.Fatalf("expected 1 loop, got %d", len(td.Nest.Loops))
	}
	eachSegmentizer(t, td, Assignment{0: "SIMD"}, func(t *testing.T, segs []Segment) {
		checkCoverage(t, td, segs)
		if len(segs) != 1 || segs[0].LoopID != 0 {
			t.Fatalf("want a single whole-trace region segment, got %+v", segs)
		}
		if segs[0].Start != 0 || segs[0].End != td.Trace.Len() {
			t.Fatalf("segment %+v does not span the whole %d-instruction trace", segs[0], td.Trace.Len())
		}
	})
}

// TestSegmentizeBackToBackRegions: two assigned loops executing with no
// instructions between them produce adjacent region segments with no
// zero-length GPP segment at the joint.
func TestSegmentizeBackToBackRegions(t *testing.T) {
	b := prog.NewBuilder("backtoback")
	i, j, s, u, n1, n2 := isa.R(1), isa.R(2), isa.R(3), isa.R(4), isa.R(5), isa.R(6)
	b.Label("l1")
	b.AddI(s, s, 1)
	b.AddI(i, i, 1)
	b.Blt(i, n1, "l1")
	b.Label("l2")
	b.AddI(u, u, 2)
	b.AddI(j, j, 1)
	b.Blt(j, n2, "l2")
	td := synthTDG(t, b.MustBuild(), func(st *sim.State) {
		st.SetInt(n1, 30)
		st.SetInt(n2, 40)
	})

	if len(td.Nest.Loops) != 2 {
		t.Fatalf("expected 2 sibling loops, got %d", len(td.Nest.Loops))
	}
	first := td.Nest.InnermostOfInst(int(td.Trace.Insts[0].SI))
	second := 1 - first
	eachSegmentizer(t, td, Assignment{first: "NS-DF", second: "Trace-P"}, func(t *testing.T, segs []Segment) {
		checkCoverage(t, td, segs)
		if len(segs) != 2 {
			t.Fatalf("want exactly 2 back-to-back region segments, got %+v", segs)
		}
		if segs[0].LoopID != first || segs[1].LoopID != second {
			t.Errorf("segment order %+v does not follow execution order (L%d then L%d)", segs, first, second)
		}
		if segs[0].End != segs[1].Start {
			t.Errorf("regions not adjacent: %+v", segs)
		}
	})
}
