package cores

import (
	"exocore/internal/energy"
	"exocore/internal/isa"
	"exocore/internal/prog"
	"exocore/internal/trace"
)

// Decoded is a static program decoded once for ExecTrace: per static
// instruction, the register slots it reads and writes, its functional-unit
// booking, its latency, its control and memory flags and its energy
// events. Read-only once built, so one Decoded serves every concurrent
// evaluation of its program.
type Decoded struct {
	prog  *prog.Program
	insts []decInst
}

// Decode decodes p for ExecTrace.
func Decode(p *prog.Program) *Decoded {
	d := &Decoded{prog: p, insts: make([]decInst, len(p.Insts))}
	for i := range p.Insts {
		in := &p.Insts[i]
		d.insts[i] = decode(in.Op, in.Dst, in.Src1, in.Src2)
	}
	return d
}

// Resource classes a uop books after issue (decInst.rt), indexing GPP.rts.
const (
	rtNone = iota
	rtALU
	rtMul
	rtFP
	rtPort
	numRT
)

// decInst flags.
const (
	fLoad   = 1 << iota // store-to-load forwarding applies
	fStore              // recorded for forwarding
	fBranch             // conditional branch: a misprediction refills the frontend
	fCtrl               // control transfer: a taken one ends the fetch group
	fMem                // memory access (energy by hierarchy level)
)

// sinkSlot is the register-time slot a uop without a destination writes;
// it is never read. Absent and RZ sources read slot RZ, which is never
// written and so stays at time 0 (no constraint: a uop executes at cycle 1
// at the earliest).
const sinkSlot = isa.NumRegs

// decInst is one decoded uop shape: everything the time-direct pipeline
// step and the energy fold need that does not vary between executions.
type decInst struct {
	src1, src2, acc uint8 // register-time slots read (acc: FMA's accumulator)
	dst             uint8 // register-time slot written
	rt              uint8 // rtNone..rtPort
	busy            uint8 // 0: one booked slot; else cycles the unit is held
	flags           uint8
	reads           uint8 // register-file reads
	lat             int32 // execute→complete latency; 0: the access's MemLat
	nev             uint8
	ev              [3]uint8 // per-execution events besides the common ones: operation, memory, register write
}

func readSlot(r isa.Reg) uint8 {
	if r.Valid() && r != isa.RZ {
		return uint8(r)
	}
	return uint8(isa.RZ)
}

// opShapes holds the register-independent part of every opcode's uop
// shape.
var opShapes = func() (t [isa.NumOps]decInst) {
	for op := range t {
		t[op] = opShape(isa.Op(op))
	}
	return t
}()

// opShape builds op's functional-unit booking, latency, flags and
// operation energy events, mirroring the attribution-mode Exec edge for
// edge and charge event for event.
func opShape(op isa.Op) decInst {
	var di decInst
	cls := op.ClassOf()
	switch cls {
	case isa.ClassIntAlu:
		di.rt = rtALU
	case isa.ClassIntMul, isa.ClassIntDiv:
		di.rt = rtMul
	case isa.ClassFpAdd, isa.ClassFpMul, isa.ClassFpDiv, isa.ClassVecAlu, isa.ClassVecMul:
		di.rt = rtFP // vector ops share the FP/SIMD datapath
	case isa.ClassLoad, isa.ClassStore, isa.ClassVecMem:
		di.rt = rtPort
	}
	switch {
	case cls == isa.ClassIntDiv || cls == isa.ClassFpDiv:
		di.busy = uint8(op.Latency()) // unpipelined divide
	case op.IsVec() && !op.IsMem():
		di.busy = 2 // a 256-bit vector op holds the datapath two slots
	}
	switch {
	case op.IsStore():
		di.lat = 1 // stores complete into the store queue
	case op.IsMem():
		di.lat = 0
	default:
		di.lat = max(int32(op.Latency()), 1)
	}
	if op.IsLoad() {
		di.flags |= fLoad
	}
	if op.IsStore() {
		di.flags |= fStore
	}
	if op.IsBranch() {
		di.flags |= fBranch
	}
	if op.IsCtrl() {
		di.flags |= fCtrl
	}

	// Energy (see GPP.charge).
	ev := func(e energy.Event) {
		di.ev[di.nev] = uint8(e)
		di.nev++
	}
	switch cls {
	case isa.ClassIntAlu:
		ev(energy.EvIntAluOp)
	case isa.ClassIntMul:
		ev(energy.EvIntMulOp)
	case isa.ClassIntDiv:
		ev(energy.EvIntDivOp)
	case isa.ClassFpAdd:
		ev(energy.EvFpAddOp)
	case isa.ClassFpMul:
		ev(energy.EvFpMulOp)
	case isa.ClassFpDiv:
		ev(energy.EvFpDivOp)
	case isa.ClassBranch, isa.ClassJump:
		ev(energy.EvIntAluOp)
		ev(energy.EvBpred)
	case isa.ClassVecAlu, isa.ClassVecMul:
		ev(energy.EvVecOp)
	}
	if op.IsMem() {
		di.flags |= fMem
		ev(energy.EvLSQ)
		if op.IsVec() {
			ev(energy.EvVecMemOp)
		} else {
			ev(energy.EvL1Access)
		}
	}
	return di
}

// decode builds the uop shape of (op, dst, src1, src2): op's shape plus
// its register slots, register reads and register write.
func decode(op isa.Op, dst, src1, src2 isa.Reg) decInst {
	di := opShapes[op]
	di.src1, di.src2, di.acc, di.dst = readSlot(src1), readSlot(src2), uint8(isa.RZ), sinkSlot
	if op == isa.FMA && dst.Valid() {
		di.acc = uint8(dst)
	}
	if dst.Valid() && dst != isa.RZ {
		di.dst = uint8(dst)
	}
	if src1.Valid() {
		di.reads++
	}
	if src2.Valid() {
		di.reads++
	}
	if dst.Valid() {
		di.ev[di.nev] = uint8(energy.EvRegWrite)
		di.nev++
	}
	return di
}

// bind points the energy counters at program p; they must be folded.
func (m *GPP) bind(p *Decoded) {
	m.dec = p
	if n := 4 * len(p.insts); len(m.cnt) < n {
		m.cnt = make([]int64, n)
	}
}

// Fold adds the energy events of the trace uops ExecTrace ran since the
// last Fold to Counts. Those uops are counted per (static instruction,
// memory level) rather than charged one by one, and the fold is an exact
// integer multiply-add over the entries touched since the last fold —
// never the whole program. Lean evaluations fold before reading Counts.
// A folded core is bound to no program until ExecTrace binds one, so a
// pooled core keeps no reference to the last program it ran.
func (m *GPP) Fold() {
	for _, k := range m.touched {
		m.charge(&m.dec.insts[k>>2], trace.MemLevel(k&3), m.cnt[k])
		m.cnt[k] = 0
	}
	m.touched = m.touched[:0]
	m.dec = nil
}

// charge adds n executions of uop di, its memory accesses served at level
// lvl, to Counts: every uop's frontend, issue and commit events, then its
// own register reads, operation, memory and register-write events.
func (m *GPP) charge(di *decInst, lvl trace.MemLevel, n int64) {
	c := m.Counts
	c[energy.EvFetch] += n
	c[energy.EvDecode] += n
	c[energy.EvCommit] += n
	c[energy.EvIssueWakeup] += n
	if !m.Cfg.InOrder {
		c[energy.EvRename] += n
		c[energy.EvROB] += n
	}
	c[energy.EvRegRead] += n * int64(di.reads)
	for _, e := range di.ev[:di.nev] {
		c[e] += n
	}
	if di.flags&fMem != 0 && lvl >= trace.LevelL2 {
		c[energy.EvL2Access] += n
		if lvl == trace.LevelMem {
			c[energy.EvMemAccess] += n
		}
	}
}
