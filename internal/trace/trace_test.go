package trace

import (
	"testing"

	"exocore/internal/isa"
	"exocore/internal/prog"
)

func sampleTrace() *Trace {
	b := prog.NewBuilder("t")
	b.Ld(isa.R(1), isa.R(2), 0)
	b.FAdd(isa.F(1), isa.F(1), isa.F(2))
	b.St(isa.R(1), isa.R(2), 8)
	b.Bne(isa.R(1), isa.RZ, "t2")
	b.Label("t2")
	b.Nop()
	p := b.MustBuild()
	return &Trace{Prog: p, Insts: []DynInst{
		{SI: 0, Addr: 0x100, MemLat: 4, Level: LevelL1},
		{SI: 1},
		{SI: 2, Addr: 0x108, MemLat: 22, Level: LevelL2},
		{SI: 3, Flags: FlagTaken | FlagMispred},
		{SI: 4},
	}}
}

func TestFlags(t *testing.T) {
	tr := sampleTrace()
	br := &tr.Insts[3]
	if !br.Taken() || !br.Mispredicted() {
		t.Error("flag accessors wrong")
	}
	ld := &tr.Insts[0]
	if ld.Taken() || ld.Mispredicted() {
		t.Error("load has control flags")
	}
}

func TestStaticAccessors(t *testing.T) {
	tr := sampleTrace()
	if tr.Len() != 5 {
		t.Errorf("Len = %d", tr.Len())
	}
	if tr.Static(0).Op != isa.Ld || tr.Static(2).Op != isa.St {
		t.Error("static lookup wrong")
	}
}

func TestComputeStats(t *testing.T) {
	s := sampleTrace().ComputeStats()
	if s.Dyn != 5 || s.Loads != 1 || s.Stores != 1 || s.Branches != 1 {
		t.Errorf("counts wrong: %+v", s)
	}
	if s.Taken != 1 || s.Mispredicted != 1 {
		t.Errorf("branch stats wrong: %+v", s)
	}
	if s.L1Hits != 1 || s.L2Hits != 1 || s.MemAccesses != 0 {
		t.Errorf("memory stats wrong: %+v", s)
	}
	if s.FpOps != 1 {
		t.Errorf("fp ops = %d", s.FpOps)
	}
}

func TestMemLevelStrings(t *testing.T) {
	for _, l := range []MemLevel{LevelNone, LevelL1, LevelL2, LevelMem} {
		if l.String() == "" {
			t.Errorf("level %d has no name", l)
		}
	}
}
