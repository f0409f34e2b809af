// Package isa defines the small load/store RISC instruction set used by the
// trace-generation substrate. The TDG methodology (Nowatzki &
// Sankaralingam, ASPLOS 2016) is ISA-agnostic: it only needs a dynamic
// instruction stream with data, memory and control dependences. This ISA is
// deliberately minimal — just enough operation classes to exercise every
// program behavior the paper's accelerators specialize for (data-parallel
// loops, separable access/execute, non-critical control, hot traces, and
// irregular pointer-chasing code).
package isa

import "fmt"

// Reg names an architectural register. Registers 0..NumIntRegs-1 are the
// integer file (R0 is hardwired to zero); FP registers follow.
type Reg uint8

// Register-file layout.
const (
	NumIntRegs = 32
	NumFpRegs  = 32
	NumRegs    = NumIntRegs + NumFpRegs

	// RZ is the hardwired zero register.
	RZ Reg = 0
	// NoReg marks an unused operand slot.
	NoReg Reg = 255
)

// R returns the i'th integer register.
func R(i int) Reg {
	if i < 0 || i >= NumIntRegs {
		panic(fmt.Sprintf("isa: integer register %d out of range", i))
	}
	return Reg(i)
}

// F returns the i'th floating-point register.
func F(i int) Reg {
	if i < 0 || i >= NumFpRegs {
		panic(fmt.Sprintf("isa: fp register %d out of range", i))
	}
	return Reg(NumIntRegs + i)
}

// IsFp reports whether r is a floating-point register.
func (r Reg) IsFp() bool { return r >= NumIntRegs && r != NoReg }

// Valid reports whether r names a real register.
func (r Reg) Valid() bool { return r < NumRegs }

// String implements fmt.Stringer.
func (r Reg) String() string {
	switch {
	case r == NoReg:
		return "-"
	case r.IsFp():
		return fmt.Sprintf("f%d", int(r)-NumIntRegs)
	default:
		return fmt.Sprintf("r%d", r)
	}
}

// Op is an opcode.
type Op uint8

// Opcodes. Immediate variants take Imm as the second source.
const (
	Nop Op = iota

	// Integer ALU.
	Add
	AddI
	Sub
	SubI
	And
	Or
	Xor
	Shl
	ShlI
	Shr
	ShrI
	SltI // set-less-than immediate
	Slt  // set-less-than
	MovI // dst = Imm
	Mov  // dst = src1

	// Integer multiply / divide.
	Mul
	MulI
	Div
	Rem

	// Floating point.
	FAdd
	FSub
	FMul
	FDiv
	FMA   // dst = src1*src2 + dst (fused; produced by transforms)
	FCvt  // int -> fp
	FSlt  // fp compare, integer dst
	FMov  // fp move
	FMovI // fp load immediate (Imm reinterpreted as float bits via ImmF)

	// Memory. Address = int(src1) + Imm. Ld writes dst; St reads src2.
	Ld  // dst = mem[src1+Imm] (64-bit word)
	St  // mem[src1+Imm] = src2
	LdF // fp load
	StF // fp store

	// Control. Branch target/jump target is Imm (static instruction index
	// after label resolution). Conditional branches compare src1 vs src2.
	Beq
	Bne
	Blt
	Bge
	Jmp

	// Vector ops (emitted only by the SIMD transform, never by the
	// functional front-end): semantically "VecLanes-wide" versions.
	VAdd
	VMul
	VFAdd
	VFMul
	VFDiv
	VLd
	VSt
	VPack   // lane pack/unpack shuffle
	VMask   // mask/blend for if-converted control
	VPred   // predicate-setting compare
	VReduce // horizontal reduction

	numOps
)

// NumOps is the number of opcodes; every Op below it is defined.
const NumOps = int(numOps)

// Class groups opcodes by the functional unit and dependence semantics the
// microarchitectural models care about.
type Class uint8

// Operation classes.
const (
	ClassNop Class = iota
	ClassIntAlu
	ClassIntMul
	ClassIntDiv
	ClassFpAdd
	ClassFpMul
	ClassFpDiv
	ClassLoad
	ClassStore
	ClassBranch
	ClassJump
	ClassVecAlu
	ClassVecMul
	ClassVecMem
)

type opInfo struct {
	name    string
	class   Class
	latency int // execute latency in cycles (memory ops overridden by cache)
}

var opTable = [numOps]opInfo{
	Nop:  {"nop", ClassNop, 1},
	Add:  {"add", ClassIntAlu, 1},
	AddI: {"addi", ClassIntAlu, 1},
	Sub:  {"sub", ClassIntAlu, 1},
	SubI: {"subi", ClassIntAlu, 1},
	And:  {"and", ClassIntAlu, 1},
	Or:   {"or", ClassIntAlu, 1},
	Xor:  {"xor", ClassIntAlu, 1},
	Shl:  {"shl", ClassIntAlu, 1},
	ShlI: {"shli", ClassIntAlu, 1},
	Shr:  {"shr", ClassIntAlu, 1},
	ShrI: {"shri", ClassIntAlu, 1},
	SltI: {"slti", ClassIntAlu, 1},
	Slt:  {"slt", ClassIntAlu, 1},
	MovI: {"movi", ClassIntAlu, 1},
	Mov:  {"mov", ClassIntAlu, 1},

	Mul:  {"mul", ClassIntMul, 3},
	MulI: {"muli", ClassIntMul, 3},
	Div:  {"div", ClassIntDiv, 12},
	Rem:  {"rem", ClassIntDiv, 12},

	FAdd:  {"fadd", ClassFpAdd, 3},
	FSub:  {"fsub", ClassFpAdd, 3},
	FMul:  {"fmul", ClassFpMul, 4},
	FDiv:  {"fdiv", ClassFpDiv, 12},
	FMA:   {"fma", ClassFpMul, 4},
	FCvt:  {"fcvt", ClassFpAdd, 2},
	FSlt:  {"fslt", ClassFpAdd, 2},
	FMov:  {"fmov", ClassFpAdd, 1},
	FMovI: {"fmovi", ClassFpAdd, 1},

	Ld:  {"ld", ClassLoad, 0},
	St:  {"st", ClassStore, 0},
	LdF: {"ldf", ClassLoad, 0},
	StF: {"stf", ClassStore, 0},

	Beq: {"beq", ClassBranch, 1},
	Bne: {"bne", ClassBranch, 1},
	Blt: {"blt", ClassBranch, 1},
	Bge: {"bge", ClassBranch, 1},
	Jmp: {"jmp", ClassJump, 1},

	VAdd:    {"vadd", ClassVecAlu, 1},
	VMul:    {"vmul", ClassVecMul, 4},
	VFAdd:   {"vfadd", ClassVecAlu, 3},
	VFMul:   {"vfmul", ClassVecMul, 4},
	VFDiv:   {"vfdiv", ClassVecMul, 12},
	VLd:     {"vld", ClassVecMem, 0},
	VSt:     {"vst", ClassVecMem, 0},
	VPack:   {"vpack", ClassVecAlu, 1},
	VMask:   {"vmask", ClassVecAlu, 1},
	VPred:   {"vpred", ClassVecAlu, 1},
	VReduce: {"vreduce", ClassVecAlu, 2},
}

// String implements fmt.Stringer.
func (o Op) String() string {
	if int(o) < len(opTable) && opTable[o].name != "" {
		return opTable[o].name
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// ClassOf returns the operation class of o.
func (o Op) ClassOf() Class { return opTable[o].class }

// Latency returns the nominal execute latency of o in cycles. Memory
// operations return 0 here; their latency comes from the cache model.
func (o Op) Latency() int { return opTable[o].latency }

// IsMem reports whether o accesses memory.
func (o Op) IsMem() bool {
	c := o.ClassOf()
	return c == ClassLoad || c == ClassStore || c == ClassVecMem
}

// IsLoad reports whether o is a load.
func (o Op) IsLoad() bool { return o == Ld || o == LdF || o == VLd }

// IsStore reports whether o is a store.
func (o Op) IsStore() bool { return o == St || o == StF || o == VSt }

// IsBranch reports whether o is a conditional branch.
func (o Op) IsBranch() bool { return o.ClassOf() == ClassBranch }

// IsCtrl reports whether o transfers control (branch or jump).
func (o Op) IsCtrl() bool {
	c := o.ClassOf()
	return c == ClassBranch || c == ClassJump
}

// IsFp reports whether o executes on a floating-point unit.
func (o Op) IsFp() bool {
	switch o.ClassOf() {
	case ClassFpAdd, ClassFpMul, ClassFpDiv:
		return true
	}
	return false
}

// IsVec reports whether o is a vector operation.
func (o Op) IsVec() bool {
	switch o.ClassOf() {
	case ClassVecAlu, ClassVecMul, ClassVecMem:
		return true
	}
	return false
}

// String name list of all classes, for reports.
func (c Class) String() string {
	switch c {
	case ClassNop:
		return "nop"
	case ClassIntAlu:
		return "int-alu"
	case ClassIntMul:
		return "int-mul"
	case ClassIntDiv:
		return "int-div"
	case ClassFpAdd:
		return "fp-add"
	case ClassFpMul:
		return "fp-mul"
	case ClassFpDiv:
		return "fp-div"
	case ClassLoad:
		return "load"
	case ClassStore:
		return "store"
	case ClassBranch:
		return "branch"
	case ClassJump:
		return "jump"
	case ClassVecAlu:
		return "vec-alu"
	case ClassVecMul:
		return "vec-mul"
	case ClassVecMem:
		return "vec-mem"
	}
	return "unknown"
}

// Inst is one static instruction. Imm doubles as the immediate operand, the
// branch/jump target (a static instruction index) and, for FMovI, the raw
// IEEE-754 bits of a float64 immediate.
type Inst struct {
	Op   Op
	Dst  Reg
	Src1 Reg
	Src2 Reg
	Imm  int64
}

// HasDst reports whether the instruction writes a register.
func (in *Inst) HasDst() bool { return in.Dst != NoReg && in.Dst != RZ }

// Srcs appends the valid source registers of in to dst and returns it.
func (in *Inst) Srcs(dst []Reg) []Reg {
	if in.Src1 != NoReg && in.Src1 != RZ {
		dst = append(dst, in.Src1)
	}
	if in.Src2 != NoReg && in.Src2 != RZ {
		dst = append(dst, in.Src2)
	}
	return dst
}

// VecLanes is the SIMD width modeled throughout: 256-bit vectors of 64-bit
// elements, matching the paper's "256-bit SIMD" configuration.
const VecLanes = 4

// String renders the instruction in a readable assembler-ish form.
func (in *Inst) String() string {
	switch {
	case in.Op == Jmp:
		return fmt.Sprintf("%s @%d", in.Op, in.Imm)
	case in.Op.IsBranch():
		return fmt.Sprintf("%s %s,%s @%d", in.Op, in.Src1, in.Src2, in.Imm)
	case in.Op.IsStore():
		return fmt.Sprintf("%s %s,[%s%+d]", in.Op, in.Src2, in.Src1, in.Imm)
	case in.Op.IsLoad():
		return fmt.Sprintf("%s %s,[%s%+d]", in.Op, in.Dst, in.Src1, in.Imm)
	case in.Op == MovI || in.Op == FMovI:
		return fmt.Sprintf("%s %s,%d", in.Op, in.Dst, in.Imm)
	default:
		return fmt.Sprintf("%s %s,%s,%s,%d", in.Op, in.Dst, in.Src1, in.Src2, in.Imm)
	}
}
