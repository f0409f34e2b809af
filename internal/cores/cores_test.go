package cores

import (
	"slices"
	"testing"

	"exocore/internal/dg"
	"exocore/internal/energy"

	"exocore/internal/bpred"
	"exocore/internal/cache"
	"exocore/internal/isa"
	"exocore/internal/prog"
	"exocore/internal/sim"
	"exocore/internal/trace"
)

// buildTrace assembles, runs and annotates a kernel.
func buildTrace(t *testing.T, p *prog.Program, prep func(*sim.State)) *trace.Trace {
	t.Helper()
	st := sim.NewState()
	if prep != nil {
		prep(st)
	}
	tr, err := sim.Run(p, st, sim.Config{MaxDyn: 50000})
	if err != nil {
		t.Fatal(err)
	}
	cache.DefaultHierarchy().Annotate(tr)
	bpred.New(bpred.DefaultConfig()).Annotate(tr)
	return tr
}

// serialChain: long dependent chain — no ILP.
func serialChain(n int64) *prog.Program {
	b := prog.NewBuilder("serial")
	b.MovI(isa.R(1), n)
	b.Label("loop")
	b.Mul(isa.R(2), isa.R(2), isa.R(2)) // self-dependent
	b.Mul(isa.R(2), isa.R(2), isa.R(2))
	b.SubI(isa.R(1), isa.R(1), 1)
	b.Bne(isa.R(1), isa.RZ, "loop")
	return b.MustBuild()
}

// parallelOps: independent operations — lots of ILP.
func parallelOps(n int64) *prog.Program {
	b := prog.NewBuilder("parallel")
	b.MovI(isa.R(1), n)
	b.Label("loop")
	for i := 2; i < 10; i++ {
		b.AddI(isa.R(i), isa.R(i), 1)
	}
	b.SubI(isa.R(1), isa.R(1), 1)
	b.Bne(isa.R(1), isa.RZ, "loop")
	return b.MustBuild()
}

func TestConfigsTable4(t *testing.T) {
	if len(Configs) != 4 {
		t.Fatalf("want 4 core configs")
	}
	if IO2.Width != 2 || !IO2.InOrder || IO2.ROB != 0 {
		t.Error("IO2 config wrong")
	}
	if OOO2.ROB != 64 || OOO2.Window != 32 || OOO2.DCachePorts != 1 {
		t.Error("OOO2 config wrong")
	}
	if OOO4.ROB != 168 || OOO4.Window != 48 || OOO4.DCachePorts != 2 {
		t.Error("OOO4 config wrong")
	}
	if OOO6.ROB != 192 || OOO6.Window != 52 || OOO6.DCachePorts != 3 {
		t.Error("OOO6 config wrong")
	}
	if c, ok := ConfigByName("OOO4"); !ok || c.Name != "OOO4" {
		t.Error("ConfigByName failed")
	}
	if _, ok := ConfigByName("bogus"); ok {
		t.Error("bogus config found")
	}
}

func TestWiderCoreFasterOnILP(t *testing.T) {
	tr := buildTrace(t, parallelOps(2000), nil)
	c2, _ := Evaluate(OOO2, tr)
	c6, _ := Evaluate(OOO6, tr)
	if c6 >= c2 {
		t.Errorf("OOO6 (%d cyc) should beat OOO2 (%d cyc) on parallel code", c6, c2)
	}
	speedup := float64(c2) / float64(c6)
	if speedup < 1.5 {
		t.Errorf("speedup = %.2f, want >= 1.5 on highly parallel code", speedup)
	}
}

func TestSerialCodeInsensitiveToWidth(t *testing.T) {
	tr := buildTrace(t, serialChain(2000), nil)
	c2, _ := Evaluate(OOO2, tr)
	c6, _ := Evaluate(OOO6, tr)
	ratio := float64(c2) / float64(c6)
	if ratio > 1.25 {
		t.Errorf("width speedup on serial chain = %.2f, want ~1 (chain-bound)", ratio)
	}
}

func TestOOOBeatsInOrder(t *testing.T) {
	// Loads with long latency hide under OOO, stall in-order.
	b := prog.NewBuilder("memlat")
	b.MovI(isa.R(1), 500)
	b.MovI(isa.R(2), 0x10000)
	b.Label("loop")
	b.Ld(isa.R(3), isa.R(2), 0)
	b.AddI(isa.R(4), isa.R(4), 1)
	b.AddI(isa.R(5), isa.R(5), 1)
	b.AddI(isa.R(2), isa.R(2), 512) // new line + L1-set pressure
	b.SubI(isa.R(1), isa.R(1), 1)
	b.Bne(isa.R(1), isa.RZ, "loop")
	tr := buildTrace(t, b.MustBuild(), nil)
	cIO, _ := Evaluate(IO2, tr)
	cOOO, _ := Evaluate(OOO2, tr)
	if cOOO >= cIO {
		t.Errorf("OOO2 (%d) should beat IO2 (%d) with long-latency loads", cOOO, cIO)
	}
}

func TestIPCBounds(t *testing.T) {
	tr := buildTrace(t, parallelOps(2000), nil)
	for _, cfg := range Configs {
		cycles, _ := Evaluate(cfg, tr)
		ipc := float64(tr.Len()) / float64(cycles)
		if ipc <= 0 || ipc > float64(cfg.Width) {
			t.Errorf("%s: IPC = %.2f out of (0, width=%d]", cfg.Name, ipc, cfg.Width)
		}
	}
}

func TestMispredictsSlowExecution(t *testing.T) {
	tr := buildTrace(t, parallelOps(2000), nil)
	// Artificially mark every 10th branch mispredicted.
	trBad := &trace.Trace{Prog: tr.Prog, Insts: append([]trace.DynInst(nil), tr.Insts...)}
	nb := 0
	for i := range trBad.Insts {
		if trBad.Prog.Insts[trBad.Insts[i].SI].Op.IsBranch() {
			nb++
			if nb%10 == 0 {
				trBad.Insts[i].Flags |= trace.FlagMispred
			}
		}
	}
	cGood, _ := Evaluate(OOO4, tr)
	cBad, _ := Evaluate(OOO4, trBad)
	if cBad <= cGood {
		t.Errorf("mispredictions must slow execution: %d vs %d", cBad, cGood)
	}
}

func TestMemLatencyMatters(t *testing.T) {
	p := parallelOps(10)
	tr := buildTrace(t, p, nil)
	slow := &trace.Trace{Prog: tr.Prog, Insts: append([]trace.DynInst(nil), tr.Insts...)}
	// No memory ops in this kernel; instead check store→load dependence.
	_ = slow

	b := prog.NewBuilder("st-ld")
	b.MovI(isa.R(1), 0x1000)
	b.MovI(isa.R(2), 7)
	b.St(isa.R(2), isa.R(1), 0)
	b.Ld(isa.R(3), isa.R(1), 0)
	b.Add(isa.R(4), isa.R(3), isa.R(2))
	tr2 := buildTrace(t, b.MustBuild(), nil)
	cycles, _ := Evaluate(OOO2, tr2)
	if cycles < 5 {
		t.Errorf("store→load chain finished implausibly fast: %d cycles", cycles)
	}
}

func TestEnergyCountsPlausible(t *testing.T) {
	tr := buildTrace(t, parallelOps(1000), nil)
	_, counts := Evaluate(OOO2, tr)
	n := int64(tr.Len())
	if counts.Total() == 0 {
		t.Fatal("no energy events recorded")
	}
	// Every instruction fetches, decodes, commits.
	for _, e := range []struct {
		name string
		got  int64
	}{{"fetch", counts[0]}, {"decode", counts[1]}} {
		if e.got != n {
			t.Errorf("%s events = %d, want %d", e.name, e.got, n)
		}
	}
}

func TestInOrderNoRenameEnergy(t *testing.T) {
	tr := buildTrace(t, parallelOps(100), nil)
	_, counts := Evaluate(IO2, tr)
	if counts[2] != 0 { // EvRename
		t.Errorf("in-order core recorded %d rename events", counts[2])
	}
}

func TestBarrierDelaysFetch(t *testing.T) {
	tr := buildTrace(t, parallelOps(100), nil)
	// Baseline.
	c0, _ := Evaluate(OOO2, tr)

	// Same but with a big barrier inserted at the start.
	gBase := newEvalGraph()
	var counts2 [1]int // placeholder to keep structure clear
	_ = counts2
	_ = gBase
	g := newEvalGraph()
	m := NewGPP(OOO2, g.g, g.counts)
	far := g.g.NewNode(-1)
	g.g.AddEdge(g.g.Origin(), far, 10000, 0)
	m.Barrier(far)
	for i := range tr.Insts {
		d := &tr.Insts[i]
		m.Exec(FromDyn(&tr.Prog.Insts[d.SI], d), int32(i))
	}
	if m.EndTime() < 10000+c0/2 {
		t.Errorf("barrier ignored: end=%d base=%d", m.EndTime(), c0)
	}
}

func TestRegDefHandoff(t *testing.T) {
	g := newEvalGraph()
	m := NewGPP(OOO2, g.g, g.counts)
	// Accelerator produced r5 at t=500.
	prod := g.g.NewNode(-1)
	g.g.AddEdge(g.g.Origin(), prod, 500, 0)
	m.SetRegDef(isa.R(5), prod)
	if m.RegDef(isa.R(5)) != prod {
		t.Fatal("SetRegDef/RegDef roundtrip failed")
	}
	// A uop consuming r5 cannot execute before 500.
	m.Exec(UOp{Op: isa.Add, Dst: isa.R(6), Src1: isa.R(5), Src2: isa.R(5)}, 0)
	if m.EndTime() < 500 {
		t.Errorf("consumer committed at %d, before producer at 500", m.EndTime())
	}
}

func TestNoteStoreCreatesDependence(t *testing.T) {
	g := newEvalGraph()
	m := NewGPP(OOO2, g.g, g.counts)
	st := g.g.NewNode(-1)
	g.g.AddEdge(g.g.Origin(), st, 700, 0)
	m.NoteStore(0x2000, st)
	if m.LastStoreTo(0x2000) != st {
		t.Fatal("LastStoreTo lost the store")
	}
	m.Exec(UOp{Op: isa.Ld, Dst: isa.R(1), Src1: isa.RZ, Addr: 0x2000, MemLat: 4}, 0)
	if m.EndTime() < 700 {
		t.Errorf("load committed at %d, before store at 700", m.EndTime())
	}
}

// evalGraph bundles a graph and counts for tests.
type evalGraph struct {
	g      *dg.Graph
	counts *energy.Counts
}

func newEvalGraph() evalGraph {
	return evalGraph{g: dg.NewGraph(), counts: &energy.Counts{}}
}

func TestTakenBranchBreaksFetchGroup(t *testing.T) {
	// A tight taken-branch loop cannot sustain more than
	// (body length)/(ceil(body/width)+...) IPC on a wide core: compare a
	// 4-instruction loop on OOO6 with and without the Taken flag.
	g1 := newEvalGraph()
	m1 := NewGPP(OOO6, g1.g, g1.counts)
	g2 := newEvalGraph()
	m2 := NewGPP(OOO6, g2.g, g2.counts)
	for i := 0; i < 400; i++ {
		for k := 0; k < 3; k++ {
			// Independent work: only the frontend limits throughput.
			u := UOp{Op: isa.AddI, Dst: isa.R(2 + k), Src1: isa.RZ}
			m1.Exec(u, int32(i))
			m2.Exec(u, int32(i))
		}
		br := UOp{Op: isa.Bne, Src1: isa.R(2), Src2: isa.RZ, Dst: isa.NoReg}
		brTaken := br
		brTaken.Taken = true
		m1.Exec(brTaken, int32(i))
		m2.Exec(br, int32(i))
	}
	if m1.EndTime() <= m2.EndTime() {
		t.Errorf("taken-branch group break had no cost: %d vs %d",
			m1.EndTime(), m2.EndTime())
	}
}

func TestWindowOccupancyBound(t *testing.T) {
	// One very long latency op followed by many independent ops: the
	// window must NOT serialize on the laggard (the old E_{i-W} bug), but
	// a tiny window must still throttle.
	run := func(window int, dependent bool) int64 {
		g := newEvalGraph()
		cfg := OOO4
		cfg.Window = window
		m := NewGPP(cfg, g.g, g.counts)
		// Laggard: load with a huge latency.
		m.Exec(UOp{Op: isa.Ld, Dst: isa.R(1), Src1: isa.RZ, Addr: 64, MemLat: 400}, 0)
		for i := 0; i < 200; i++ {
			src := isa.RZ
			if dependent {
				src = isa.R(1) // every op waits on the load in the window
			}
			m.Exec(UOp{Op: isa.AddI, Dst: isa.R(2 + i%8), Src1: src}, int32(i+1))
		}
		return m.EndTime()
	}
	// Independent work behind one laggard: the window must NOT serialize
	// on it (the E_{i-W} approximation this model replaced would give
	// hundreds of extra cycles).
	if got := run(48, false); got > 700 {
		t.Errorf("window serialized on a single laggard: %d cycles", got)
	}
	// Dependent work fills the window: a tiny window must dispatch-stall
	// at least as much as a big one.
	if small, big := run(2, true), run(48, true); small < big {
		t.Errorf("tiny window outperformed big window: %d vs %d", small, big)
	}
}

func TestInFlightLimitsInOrderMLP(t *testing.T) {
	run := func(inflight int) int64 {
		g := newEvalGraph()
		cfg := IO2
		cfg.InFlight = inflight
		m := NewGPP(cfg, g.g, g.counts)
		for i := 0; i < 64; i++ {
			m.Exec(UOp{Op: isa.Ld, Dst: isa.R(1 + i%4), Src1: isa.RZ,
				Addr: uint64(i * 64), MemLat: 100}, int32(i))
		}
		return m.EndTime()
	}
	if run(4) <= run(32) {
		t.Error("smaller in-flight limit should reduce memory parallelism")
	}
}

// memMix: loads, stores, branches and long-latency ops with enough
// register pressure to exercise every edge source in Exec.
func memMix(n int64) *prog.Program {
	b := prog.NewBuilder("memmix")
	b.MovI(isa.R(1), n)
	b.MovI(isa.R(9), 0x1000)
	b.Label("loop")
	b.Ld(isa.R(2), isa.R(9), 0)
	b.Mul(isa.R(3), isa.R(2), isa.R(2))
	b.Div(isa.R(4), isa.R(3), isa.R(2))
	b.St(isa.R(9), isa.R(4), 8)
	b.AddI(isa.R(9), isa.R(9), 16)
	b.SubI(isa.R(1), isa.R(1), 1)
	b.Bne(isa.R(1), isa.RZ, "loop")
	return b.MustBuild()
}

// fwdChain: a load/increment/store recurrence through one memory word
// (store-to-load forwarding every iteration) beside a multiply-accumulate
// chain whose only loop-carried dependence is its accumulator, once
// withFMA rewrites the FMul into an FMA. The functional simulator runs
// the FMul form; the rewrite only changes what the timing model sees.
func fwdChain(t *testing.T, n int64, withFMA bool) *trace.Trace {
	b := prog.NewBuilder("fwdchain")
	b.MovI(isa.R(1), n)
	b.MovI(isa.R(9), 0x2000)
	b.Label("loop")
	b.Ld(isa.R(2), isa.R(9), 0)
	b.AddI(isa.R(2), isa.R(2), 1)
	b.St(isa.R(2), isa.R(9), 0)
	b.FMul(isa.F(1), isa.F(2), isa.F(3))
	b.SubI(isa.R(1), isa.R(1), 1)
	b.Bne(isa.R(1), isa.RZ, "loop")
	tr := buildTrace(t, b.MustBuild(), nil)
	if withFMA {
		p := *tr.Prog
		p.Insts = append([]isa.Inst(nil), p.Insts...)
		for i := range p.Insts {
			if p.Insts[i].Op == isa.FMul {
				p.Insts[i].Op = isa.FMA
			}
		}
		tr = &trace.Trace{Prog: &p, Insts: tr.Insts}
	}
	return tr
}

// leanStages returns the stage times of the latest uop of a lean core.
func leanStages(m *GPP) [5]int64 {
	h := m.last()
	return [5]int64{h.f, h.d, h.e, m.lastTP, h.c}
}

// loggedStages recomputes every logged uop's five stage times from the
// attribution log alone: each stage's time is its critical predecessor's
// plus the step's latency. Comparing them with the reference's node times
// checks every logged winner and latency, not only the core's times.
func loggedStages(m *GPP) [][5]int64 {
	out := make([][5]int64, len(m.log))
	for i := range m.log {
		for s := range out[i] {
			_, _, lat, from := m.back(logRef(i, s))
			if from >= 0 {
				out[i][s] = m.G.Time(dg.NodeID(from)) + lat
				continue
			}
			j, fs := from.at()
			out[i][s] = out[j][fs] + lat
		}
	}
	return out
}

// step is one critical-path step.
type step struct {
	dyn   int32
	class dg.EdgeClass
	lat   int64
}

// pathOf returns the critical path walk reports from node from, without
// the zero-latency steps into synthetic events: the node form joins
// barriers through extra nodes and the time-direct core reaches its log
// through anchors, and neither carries a cycle or an instruction.
func pathOf(walk func(dg.NodeID, func(int32, dg.EdgeClass, int64)), from dg.NodeID) []step {
	var out []step
	walk(from, func(dyn int32, class dg.EdgeClass, lat int64) {
		if dyn >= 0 || lat != 0 {
			out = append(out, step{dyn, class, lat})
		}
	})
	return out
}

// TestLeanExecTimesIdentical pins the time-direct core to the node-form
// reference: the same instruction stream through the reference, a lean
// GPP and an attribution GPP must give bit-identical fetch, dispatch,
// execute, complete and commit times for every instruction — the
// attribution GPP's recomputed from its log — the same critical path and
// identical energy counts once folded, on every core config, while
// neither GPP allocates a node. Each stream runs twice on the same two
// GPPs with a Reset between, so entries a first run leaves in the
// store-forwarding table must stay invisible to the second.
func TestLeanExecTimesIdentical(t *testing.T) {
	traces := []*trace.Trace{
		buildTrace(t, serialChain(300), nil), buildTrace(t, parallelOps(300), nil),
		buildTrace(t, memMix(300), nil), fwdChain(t, 300, true),
	}
	for _, tr := range traces {
		dec := Decode(tr.Prog)
		for _, cfg := range Configs {
			ga, gl := dg.NewGraph(), dg.NewLeanGraph()
			var ca, cl energy.Counts
			ma := NewGPP(cfg, ga, &ca)
			ml := NewGPP(cfg, gl, &cl)
			for run := 0; run < 2; run++ {
				if run > 0 {
					ga.Reset()
					gl.Reset()
					ca, cl = energy.Counts{}, energy.Counts{}
					ma.Reset(ga, &ca)
					ml.Reset(gl, &cl)
				}
				var cr energy.Counts
				ref := newRefGPP(cfg, dg.NewGraph(), &cr)
				ref.ExecTrace(dec, tr.Insts, 0)
				ma.ExecTrace(dec, tr.Insts, 0)
				for i := range tr.Insts {
					ml.ExecTrace(dec, tr.Insts[i:i+1], i)
					if r, l := ref.stages[i], leanStages(ml); r != l {
						t.Fatalf("%s/%s run %d uop %d: reference times %v != lean %v",
							tr.Prog.Name, cfg.Name, run, i, r, l)
					}
				}
				if got := loggedStages(ma); !slices.Equal(got, ref.stages) {
					t.Fatalf("%s/%s run %d: logged stage times differ from the reference", tr.Prog.Name, cfg.Name, run)
				}
				if r, a := pathOf(ref.WalkCriticalPath, ref.LastCommit()), pathOf(ma.WalkCriticalPath, ma.LastCommit()); !slices.Equal(r, a) {
					t.Fatalf("%s/%s run %d: critical path differs from the reference's", tr.Prog.Name, cfg.Name, run)
				}
				ma.Fold()
				ml.Fold()
				if ref.EndTime() != ml.EndTime() || ma.EndTime() != ml.EndTime() {
					t.Fatalf("%s/%s run %d: end times %d, %d, %d", tr.Prog.Name, cfg.Name, run, ref.EndTime(), ma.EndTime(), ml.EndTime())
				}
				if ca != cl || cr != cl {
					t.Fatalf("%s/%s run %d: energy counts diverge:\n%v\n%v\n%v", tr.Prog.Name, cfg.Name, run, cr, ca, cl)
				}
				if gl.Len() != 1 || ga.Len() != 2 { // the attribution walk's one anchor
					t.Fatalf("%s/%s run %d: cores allocated %d and %d nodes", tr.Prog.Name, cfg.Name, run, ga.Len()-1, gl.Len()-1)
				}
			}
		}
	}
}

// handoffCore is the transform-facing surface both the GPP and the
// reference implement.
type handoffCore interface {
	Exec(u UOp, dynIdx int32)
	LastCommit() dg.NodeID
	LastComplete() dg.NodeID
	EndTime() int64
	Retired() int
	Barrier(node dg.NodeID)
	RegDef(r isa.Reg) dg.NodeID
	SetRegDef(r isa.Reg, node dg.NodeID)
	NoteStore(addr uint64, node dg.NodeID)
	LastStoreTo(addr uint64) dg.NodeID
	WalkCriticalPath(from dg.NodeID, fn func(dyn int32, class dg.EdgeClass, lat int64))
}

// TestLeanHandoffsMatchAttribution drives the transform-facing API — a
// register producer, a performed store and a barrier handed to the core,
// then the anchors a transform reads back — through the node-form
// reference, an attribution GPP and a lean GPP: every time a transform can
// observe must agree, a node the core was handed is read when the core
// next executes, and the attribution GPP's critical path through the
// handed nodes is the reference's.
func TestLeanHandoffsMatchAttribution(t *testing.T) {
	var got [3][]int64
	var paths [2][]step
	for mode := range got {
		g := dg.NewGraph()
		var m handoffCore
		switch mode {
		case 0:
			m = newRefGPP(OOO2, g, &energy.Counts{})
		case 1:
			m = NewGPP(OOO2, g, &energy.Counts{})
		default:
			g.ResetMode(true)
			m = NewGPP(OOO2, g, &energy.Counts{})
		}
		obs := func(n dg.NodeID) {
			if n == dg.None {
				got[mode] = append(got[mode], -1)
				return
			}
			got[mode] = append(got[mode], g.Time(n))
		}
		at := func(t int64) dg.NodeID {
			n := g.NewNode(-1)
			g.AddEdge(g.Origin(), n, t, dg.EdgeAccelComm)
			return n
		}
		obs(m.LastCommit())
		obs(m.LastComplete())
		m.Barrier(at(300))
		obs(m.LastCommit())
		prod := at(500)
		m.SetRegDef(isa.R(5), prod)
		g.AddEdge(at(550), prod, 0, dg.EdgeAccelComm) // still relaxing when handed over
		m.NoteStore(0x2000, at(700))
		obs(m.RegDef(isa.R(5)))
		obs(m.LastStoreTo(0x2004))
		obs(m.LastStoreTo(0x3000))
		m.SetRegDef(isa.R(6), dg.None)
		obs(m.RegDef(isa.R(6)))
		m.Exec(UOp{Op: isa.Add, Dst: isa.R(7), Src1: isa.R(5), Src2: isa.R(6)}, 0)
		obs(m.LastComplete())
		m.Exec(UOp{Op: isa.Ld, Dst: isa.R(1), Src1: isa.RZ, Addr: 0x2000, MemLat: 4}, 1)
		obs(m.LastComplete())
		// A transform node hung off the core's state, handed back as a
		// producer the next uop waits on.
		join := g.NewNode(2)
		g.AddEdge(m.LastComplete(), join, 3, dg.EdgeAccelComm)
		g.AddEdge(m.RegDef(isa.R(7)), join, 40, dg.EdgeAccelCompute)
		m.SetRegDef(isa.R(8), join)
		m.Exec(UOp{Op: isa.Add, Dst: isa.R(9), Src1: isa.R(8), Src2: isa.R(1)}, 3)
		obs(m.LastCommit())
		obs(m.RegDef(isa.R(7)))
		obs(m.RegDef(isa.NoReg))
		got[mode] = append(got[mode], m.EndTime(), int64(m.Retired()))
		if mode < 2 {
			paths[mode] = pathOf(m.WalkCriticalPath, m.LastCommit())
		}
	}
	if !slices.Equal(got[0], got[1]) || !slices.Equal(got[0], got[2]) {
		t.Fatalf("reference %v, attribution %v, lean %v", got[0], got[1], got[2])
	}
	if got[2][3] != 550 {
		t.Errorf("handed register read at %d, want its time when next read (550)", got[2][3])
	}
	if !slices.Equal(paths[0], paths[1]) {
		t.Errorf("critical path %v, reference %v", paths[1], paths[0])
	}
}

// TestTiesResolveInEdgeOrder builds the ties between stage terms that
// real traces rarely put on a critical path — a barrier against the
// width-back fetch, two barriers at one time, a forwarded store against
// the address producer — and requires the attribution GPP to pick the
// node form's winner, the term whose edge it relaxed first.
func TestTiesResolveInEdgeOrder(t *testing.T) {
	scenarios := map[string]func(m handoffCore, at func(int64, dg.EdgeClass) dg.NodeID){
		"barrier vs width-back fetch": func(m handoffCore, at func(int64, dg.EdgeClass) dg.NodeID) {
			m.Exec(UOp{Op: isa.AddI, Dst: isa.R(2), Src1: isa.RZ}, 0)
			m.Exec(UOp{Op: isa.AddI, Dst: isa.R(3), Src1: isa.RZ}, 1)
			m.Barrier(at(2, dg.EdgeAccelComm)) // the width-back fetch + 1
			m.Exec(UOp{Op: isa.AddI, Dst: isa.R(4), Src1: isa.RZ}, 2)
		},
		"barriers at one time": func(m handoffCore, at func(int64, dg.EdgeClass) dg.NodeID) {
			m.Barrier(at(300, dg.EdgeAccelComm))
			m.Barrier(at(300, dg.EdgeAccelConfig))
			m.Exec(UOp{Op: isa.AddI, Dst: isa.R(2), Src1: isa.RZ}, 0)
		},
		"store forward vs address producer": func(m handoffCore, at func(int64, dg.EdgeClass) dg.NodeID) {
			m.SetRegDef(isa.R(2), at(500, dg.EdgeAccelComm))
			m.NoteStore(0x2000, at(498, dg.EdgeAccelCompute))
			m.Exec(UOp{Op: isa.Ld, Dst: isa.R(1), Src1: isa.R(2), Addr: 0x2000, MemLat: 4}, 0)
		},
	}
	for name, run := range scenarios {
		var paths [2][]step
		for mode := range paths {
			g := dg.NewGraph()
			var m handoffCore = newRefGPP(OOO2, g, &energy.Counts{})
			if mode == 1 {
				m = NewGPP(OOO2, g, &energy.Counts{})
			}
			run(m, func(t int64, class dg.EdgeClass) dg.NodeID {
				n := g.NewNode(-1)
				g.AddEdge(g.Origin(), n, t, class)
				return n
			})
			paths[mode] = pathOf(m.WalkCriticalPath, m.LastCommit())
		}
		if !slices.Equal(paths[0], paths[1]) {
			t.Errorf("%s: critical path %v, node form %v", name, paths[1], paths[0])
		}
	}
}
