package sim

import (
	"fmt"
	"math"

	"exocore/internal/isa"
	"exocore/internal/prog"
	"exocore/internal/trace"
)

// Config bounds a functional run.
type Config struct {
	// MaxDyn caps the number of dynamic instructions recorded (0 = default).
	MaxDyn int
}

// DefaultMaxDyn is the default dynamic-instruction budget per benchmark:
// the -maxdyn flag's, and that of every engine and run given none. The
// paper records 200M-instruction windows after fast-forward; our
// synthetic kernels are stationary so a much shorter trace captures the
// same region structure (see DESIGN.md).
const DefaultMaxDyn = 100_000

// State is the architectural state of a functional execution.
type State struct {
	IntRegs [isa.NumIntRegs]int64
	FpRegs  [isa.NumFpRegs]float64
	Mem     *Memory
	PC      int
}

// NewState returns a fresh architectural state with empty memory.
func NewState() *State { return &State{Mem: NewMemory()} }

// SetInt sets an integer register (ignoring writes to R0).
func (s *State) SetInt(r isa.Reg, v int64) {
	if r != isa.RZ && !r.IsFp() {
		s.IntRegs[r] = v
	}
}

// SetFp sets a floating-point register.
func (s *State) SetFp(r isa.Reg, v float64) {
	if r.IsFp() {
		s.FpRegs[int(r)-isa.NumIntRegs] = v
	}
}

func (s *State) readInt(r isa.Reg) int64 {
	if r == isa.NoReg || r.IsFp() {
		return 0
	}
	return s.IntRegs[r]
}

func (s *State) readFp(r isa.Reg) float64 {
	if !r.IsFp() {
		// Integer sources to fp ops are converted (FCvt path).
		return float64(s.readInt(r))
	}
	return s.FpRegs[int(r)-isa.NumIntRegs]
}

func (s *State) write(r isa.Reg, iv int64, fv float64) {
	if r == isa.NoReg {
		return
	}
	if r.IsFp() {
		s.SetFp(r, fv)
	} else {
		s.SetInt(r, iv)
	}
}

// Run executes p starting at instruction 0 until the program falls off the
// end, jumps to a negative target, or the dynamic budget is exhausted,
// returning the recorded trace. The initial state (registers, memory) must
// already be prepared by the caller; this mirrors fast-forwarding past
// initialization in the paper's methodology.
func Run(p *prog.Program, st *State, cfg Config) (*trace.Trace, error) {
	maxDyn := cfg.MaxDyn
	if maxDyn <= 0 {
		maxDyn = DefaultMaxDyn
	}
	out := &trace.Trace{Prog: p, Insts: make([]trace.DynInst, 0, min(maxDyn, 1<<16))}
	sp := NewStepper(p, st)
	for len(out.Insts) < maxDyn {
		n := len(out.Insts)
		if cap(out.Insts) == n {
			// Force the usual append growth, then retract: Fill writes
			// straight into the trace's backing array.
			out.Insts = append(out.Insts, trace.DynInst{})[:n]
		}
		room := cap(out.Insts) - n
		if rem := maxDyn - n; room > rem {
			room = rem
		}
		w, running := sp.Fill(out.Insts[n : n+room])
		out.Insts = out.Insts[:n+w]
		if err := sp.Err(); err != nil {
			return nil, err
		}
		if !running {
			break // program exit
		}
	}
	return out, nil
}

// Stepper is a resumable functional execution: the same interpreter as
// Run, broken at arbitrary instruction boundaries so trace sources can
// synthesize bounded chunks on demand. Architectural state lives in the
// caller-provided State and persists across Fill calls, so chunk size
// never changes the instruction stream.
type Stepper struct {
	p       *prog.Program
	st      *State
	stopped bool
	err     error
}

// NewStepper returns a stepper over p starting from st (typically PC 0
// with a prepared memory image, exactly as Run expects).
func NewStepper(p *prog.Program, st *State) *Stepper {
	return &Stepper{p: p, st: st}
}

// Err returns the execution error that stopped the stepper, if any.
func (s *Stepper) Err() error { return s.err }

// Fill executes instructions into buf until it is full, the program
// exits, or execution faults, returning the count written and whether
// the program is still running. After a fault, Err is non-nil and the
// partial fill up to the faulting instruction is returned.
func (s *Stepper) Fill(buf []trace.DynInst) (int, bool) {
	if s.stopped {
		return 0, false
	}
	p, st := s.p, s.st
	n := len(p.Insts)
	w := 0
	for w < len(buf) {
		if st.PC < 0 || st.PC >= n {
			s.stopped = true
			return w, false // program exit
		}
		in := &p.Insts[st.PC]
		buf[w] = trace.DynInst{SI: int32(st.PC)}
		d := &buf[w]
		next := st.PC + 1

		switch in.Op {
		case isa.Nop:
		case isa.Add:
			st.SetInt(in.Dst, st.readInt(in.Src1)+st.readInt(in.Src2))
		case isa.AddI:
			st.SetInt(in.Dst, st.readInt(in.Src1)+in.Imm)
		case isa.Sub:
			st.SetInt(in.Dst, st.readInt(in.Src1)-st.readInt(in.Src2))
		case isa.SubI:
			st.SetInt(in.Dst, st.readInt(in.Src1)-in.Imm)
		case isa.And:
			st.SetInt(in.Dst, st.readInt(in.Src1)&st.readInt(in.Src2))
		case isa.Or:
			st.SetInt(in.Dst, st.readInt(in.Src1)|st.readInt(in.Src2))
		case isa.Xor:
			st.SetInt(in.Dst, st.readInt(in.Src1)^st.readInt(in.Src2))
		case isa.Shl:
			st.SetInt(in.Dst, st.readInt(in.Src1)<<(uint64(st.readInt(in.Src2))&63))
		case isa.ShlI:
			st.SetInt(in.Dst, st.readInt(in.Src1)<<(uint64(in.Imm)&63))
		case isa.Shr:
			st.SetInt(in.Dst, int64(uint64(st.readInt(in.Src1))>>(uint64(st.readInt(in.Src2))&63)))
		case isa.ShrI:
			st.SetInt(in.Dst, int64(uint64(st.readInt(in.Src1))>>(uint64(in.Imm)&63)))
		case isa.Slt:
			st.SetInt(in.Dst, boolToInt(st.readInt(in.Src1) < st.readInt(in.Src2)))
		case isa.SltI:
			st.SetInt(in.Dst, boolToInt(st.readInt(in.Src1) < in.Imm))
		case isa.MovI:
			st.SetInt(in.Dst, in.Imm)
		case isa.Mov:
			st.SetInt(in.Dst, st.readInt(in.Src1))
		case isa.Mul:
			st.SetInt(in.Dst, st.readInt(in.Src1)*st.readInt(in.Src2))
		case isa.MulI:
			st.SetInt(in.Dst, st.readInt(in.Src1)*in.Imm)
		case isa.Div:
			d2 := st.readInt(in.Src2)
			if d2 == 0 {
				st.SetInt(in.Dst, 0)
			} else {
				st.SetInt(in.Dst, st.readInt(in.Src1)/d2)
			}
		case isa.Rem:
			d2 := st.readInt(in.Src2)
			if d2 == 0 {
				st.SetInt(in.Dst, 0)
			} else {
				st.SetInt(in.Dst, st.readInt(in.Src1)%d2)
			}

		case isa.FAdd:
			st.SetFp(in.Dst, st.readFp(in.Src1)+st.readFp(in.Src2))
		case isa.FSub:
			st.SetFp(in.Dst, st.readFp(in.Src1)-st.readFp(in.Src2))
		case isa.FMul:
			st.SetFp(in.Dst, st.readFp(in.Src1)*st.readFp(in.Src2))
		case isa.FDiv:
			d2 := st.readFp(in.Src2)
			if d2 == 0 {
				st.SetFp(in.Dst, 0)
			} else {
				st.SetFp(in.Dst, st.readFp(in.Src1)/d2)
			}
		case isa.FMA:
			st.SetFp(in.Dst, st.readFp(in.Src1)*st.readFp(in.Src2)+st.readFp(in.Dst))
		case isa.FCvt:
			st.SetFp(in.Dst, float64(st.readInt(in.Src1)))
		case isa.FSlt:
			st.SetInt(in.Dst, boolToInt(st.readFp(in.Src1) < st.readFp(in.Src2)))
		case isa.FMov:
			st.SetFp(in.Dst, st.readFp(in.Src1))
		case isa.FMovI:
			st.SetFp(in.Dst, math.Float64frombits(uint64(in.Imm)))

		case isa.Ld:
			addr := uint64(st.readInt(in.Src1)+in.Imm) &^ 7
			d.Addr = addr
			st.SetInt(in.Dst, st.Mem.LoadInt(addr))
		case isa.St:
			addr := uint64(st.readInt(in.Src1)+in.Imm) &^ 7
			d.Addr = addr
			st.Mem.StoreInt(addr, st.readInt(in.Src2))
		case isa.LdF:
			addr := uint64(st.readInt(in.Src1)+in.Imm) &^ 7
			d.Addr = addr
			st.SetFp(in.Dst, st.Mem.LoadFloat(addr))
		case isa.StF:
			addr := uint64(st.readInt(in.Src1)+in.Imm) &^ 7
			d.Addr = addr
			st.Mem.StoreFloat(addr, st.readFp(in.Src2))

		case isa.Beq, isa.Bne, isa.Blt, isa.Bge:
			taken := false
			a, b2 := st.readInt(in.Src1), st.readInt(in.Src2)
			switch in.Op {
			case isa.Beq:
				taken = a == b2
			case isa.Bne:
				taken = a != b2
			case isa.Blt:
				taken = a < b2
			case isa.Bge:
				taken = a >= b2
			}
			if taken {
				d.Flags |= trace.FlagTaken
				next = int(in.Imm)
			}
		case isa.Jmp:
			d.Flags |= trace.FlagTaken
			next = int(in.Imm)

		default:
			s.stopped = true
			s.err = fmt.Errorf("sim: program %q: unexecutable opcode %s at %d (vector ops are transform-only)",
				p.Name, in.Op, st.PC)
			return w, false
		}

		w++
		st.PC = next
	}
	return w, true
}

func boolToInt(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
