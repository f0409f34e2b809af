package sim

import (
	"testing"
	"testing/quick"

	"exocore/internal/isa"
	"exocore/internal/prog"
	"exocore/internal/trace"
)

func run(t *testing.T, p *prog.Program, prep func(*State)) (*trace.Trace, *State) {
	t.Helper()
	st := NewState()
	if prep != nil {
		prep(st)
	}
	tr, err := Run(p, st, Config{MaxDyn: 100000})
	if err != nil {
		t.Fatal(err)
	}
	return tr, st
}

func TestCountdownLoop(t *testing.T) {
	b := prog.NewBuilder("countdown")
	b.MovI(isa.R(1), 5)
	b.Label("loop")
	b.SubI(isa.R(1), isa.R(1), 1)
	b.Bne(isa.R(1), isa.RZ, "loop")
	p := b.MustBuild()

	tr, st := run(t, p, nil)
	if st.IntRegs[1] != 0 {
		t.Errorf("r1 = %d, want 0", st.IntRegs[1])
	}
	// 1 movi + 5*(sub+bne) = 11 dynamic instructions.
	if tr.Len() != 11 {
		t.Errorf("trace len = %d, want 11", tr.Len())
	}
	// Last branch not taken, previous 4 taken.
	stats := tr.ComputeStats()
	if stats.Branches != 5 || stats.Taken != 4 {
		t.Errorf("branches=%d taken=%d, want 5/4", stats.Branches, stats.Taken)
	}
}

func TestArithmeticOps(t *testing.T) {
	b := prog.NewBuilder("arith")
	b.MovI(isa.R(1), 7)
	b.MovI(isa.R(2), 3)
	b.Add(isa.R(3), isa.R(1), isa.R(2))  // 10
	b.Sub(isa.R(4), isa.R(1), isa.R(2))  // 4
	b.Mul(isa.R(5), isa.R(1), isa.R(2))  // 21
	b.Div(isa.R(6), isa.R(1), isa.R(2))  // 2
	b.Rem(isa.R(7), isa.R(1), isa.R(2))  // 1
	b.And(isa.R(8), isa.R(1), isa.R(2))  // 3
	b.Or(isa.R(9), isa.R(1), isa.R(2))   // 7
	b.Xor(isa.R(10), isa.R(1), isa.R(2)) // 4
	b.ShlI(isa.R(11), isa.R(1), 2)       // 28
	b.ShrI(isa.R(12), isa.R(1), 1)       // 3
	b.Slt(isa.R(13), isa.R(2), isa.R(1)) // 1
	b.SltI(isa.R(14), isa.R(1), 5)       // 0
	p := b.MustBuild()

	_, st := run(t, p, nil)
	want := map[int]int64{3: 10, 4: 4, 5: 21, 6: 2, 7: 1, 8: 3, 9: 7, 10: 4, 11: 28, 12: 3, 13: 1, 14: 0}
	for r, v := range want {
		if st.IntRegs[r] != v {
			t.Errorf("r%d = %d, want %d", r, st.IntRegs[r], v)
		}
	}
}

func TestDivRemByZero(t *testing.T) {
	b := prog.NewBuilder("divz")
	b.MovI(isa.R(1), 7)
	b.Div(isa.R(2), isa.R(1), isa.RZ)
	b.Rem(isa.R(3), isa.R(1), isa.RZ)
	_, st := run(t, b.MustBuild(), nil)
	if st.IntRegs[2] != 0 || st.IntRegs[3] != 0 {
		t.Errorf("div/rem by zero = %d/%d, want 0/0", st.IntRegs[2], st.IntRegs[3])
	}
}

func TestFloatOps(t *testing.T) {
	b := prog.NewBuilder("fp")
	b.FMovI(isa.F(1), 2.5)
	b.FMovI(isa.F(2), 4.0)
	b.FAdd(isa.F(3), isa.F(1), isa.F(2))
	b.FSub(isa.F(4), isa.F(2), isa.F(1))
	b.FMul(isa.F(5), isa.F(1), isa.F(2))
	b.FDiv(isa.F(6), isa.F(2), isa.F(1))
	b.MovI(isa.R(1), 9)
	b.FCvt(isa.F(7), isa.R(1))
	b.FSlt(isa.R(2), isa.F(1), isa.F(2))
	_, st := run(t, b.MustBuild(), nil)
	fp := func(i int) float64 { return st.FpRegs[i] }
	if fp(3) != 6.5 || fp(4) != 1.5 || fp(5) != 10.0 || fp(6) != 1.6 || fp(7) != 9.0 {
		t.Errorf("fp results: %v %v %v %v %v", fp(3), fp(4), fp(5), fp(6), fp(7))
	}
	if st.IntRegs[2] != 1 {
		t.Errorf("fslt = %d, want 1", st.IntRegs[2])
	}
}

func TestMemoryRoundTrip(t *testing.T) {
	b := prog.NewBuilder("mem")
	b.MovI(isa.R(1), 0x1000)
	b.MovI(isa.R(2), 1234)
	b.St(isa.R(2), isa.R(1), 0)
	b.Ld(isa.R(3), isa.R(1), 0)
	b.FMovI(isa.F(1), 3.25)
	b.StF(isa.F(1), isa.R(1), 8)
	b.LdF(isa.F(2), isa.R(1), 8)
	tr, st := run(t, b.MustBuild(), nil)
	if st.IntRegs[3] != 1234 {
		t.Errorf("loaded %d, want 1234", st.IntRegs[3])
	}
	if st.FpRegs[2] != 3.25 {
		t.Errorf("loaded %v, want 3.25", st.FpRegs[2])
	}
	stats := tr.ComputeStats()
	if stats.Loads != 2 || stats.Stores != 2 {
		t.Errorf("loads=%d stores=%d, want 2/2", stats.Loads, stats.Stores)
	}
	// Addresses recorded.
	for i := range tr.Insts {
		if tr.Static(i).Op.IsMem() && tr.Insts[i].Addr < 0x1000 {
			t.Errorf("mem inst %d has addr %#x", i, tr.Insts[i].Addr)
		}
	}
}

func TestZeroRegisterImmutable(t *testing.T) {
	b := prog.NewBuilder("rz")
	b.MovI(isa.RZ, 99)
	b.Add(isa.R(1), isa.RZ, isa.RZ)
	_, st := run(t, b.MustBuild(), nil)
	if st.IntRegs[0] != 0 || st.IntRegs[1] != 0 {
		t.Errorf("r0 = %d, r1 = %d; want 0, 0", st.IntRegs[0], st.IntRegs[1])
	}
}

func TestMaxDynBudget(t *testing.T) {
	b := prog.NewBuilder("inf")
	b.Label("top").Jmp("top")
	st := NewState()
	tr, err := Run(b.MustBuild(), st, Config{MaxDyn: 500})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 500 {
		t.Errorf("trace len = %d, want 500 (budget)", tr.Len())
	}
}

func TestVectorOpsRejected(t *testing.T) {
	p := &prog.Program{Name: "vec", Insts: []isa.Inst{{Op: isa.VAdd, Dst: isa.R(1), Src1: isa.R(2), Src2: isa.R(3)}}}
	_, err := Run(p, NewState(), Config{})
	if err == nil {
		t.Fatal("expected error executing a vector op functionally")
	}
}

func TestFMASemantics(t *testing.T) {
	p := &prog.Program{Name: "fma", Insts: []isa.Inst{
		{Op: isa.FMovI, Dst: isa.F(0), Src1: isa.NoReg, Src2: isa.NoReg, Imm: fbits(10)},
		{Op: isa.FMovI, Dst: isa.F(1), Src1: isa.NoReg, Src2: isa.NoReg, Imm: fbits(3)},
		{Op: isa.FMovI, Dst: isa.F(2), Src1: isa.NoReg, Src2: isa.NoReg, Imm: fbits(4)},
		{Op: isa.FMA, Dst: isa.F(0), Src1: isa.F(1), Src2: isa.F(2)},
	}}
	st := NewState()
	if _, err := Run(p, st, Config{}); err != nil {
		t.Fatal(err)
	}
	if st.FpRegs[0] != 22 { // 10 + 3*4
		t.Errorf("fma = %v, want 22", st.FpRegs[0])
	}
}

func TestMemorySparse(t *testing.T) {
	m := NewMemory()
	m.StoreInt(0, 1)
	m.StoreInt(1<<40, 2)
	if m.LoadInt(0) != 1 || m.LoadInt(1<<40) != 2 {
		t.Error("sparse memory lost values")
	}
	if m.LoadInt(12345<<20) != 0 {
		t.Error("untouched memory should read zero")
	}
	if len(m.pages) != 2 {
		t.Errorf("resident pages = %d, want 2", len(m.pages))
	}
}

// TestMemoryZeroValue: a zero Memory reads zero and takes stores.
func TestMemoryZeroValue(t *testing.T) {
	var m Memory
	if m.LoadInt(64) != 0 {
		t.Error("a zero memory should read zero")
	}
	m.StoreInt(64, 7)
	m.StoreFloat(1<<30, 2.5)
	if m.LoadInt(64) != 7 || m.LoadFloat(1<<30) != 2.5 {
		t.Error("a zero memory lost stored values")
	}
}

func TestMemoryProperty(t *testing.T) {
	m := NewMemory()
	f := func(addr uint64, v int64) bool {
		a := addr &^ 7
		m.StoreInt(a, v)
		return m.LoadInt(a) == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	g := func(addr uint64, v float64) bool {
		a := addr &^ 7
		m.StoreFloat(a, v)
		got := m.LoadFloat(a)
		return got == v || (got != got && v != v) // NaN-safe
	}
	if err := quick.Check(g, nil); err != nil {
		t.Error(err)
	}
}

func fbits(v float64) int64 {
	var st State
	st.SetFp(isa.F(0), v)
	b := prog.NewBuilder("x")
	b.FMovI(isa.F(0), v)
	return b.MustBuild().At(0).Imm
}
