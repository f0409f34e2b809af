// Package trace defines the dynamic-instruction trace that the functional
// simulator produces and every microarchitectural model consumes. This is
// the substrate of the TDG: a µDG is the trace plus dependence edges, and
// graph transforms rewrite windows of it.
package trace

import (
	"sync"

	"exocore/internal/isa"
	"exocore/internal/prog"
)

// Flag bits for DynInst.Flags.
const (
	// FlagTaken marks a taken control transfer.
	FlagTaken uint8 = 1 << iota
	// FlagMispred marks a branch the predictor got wrong.
	FlagMispred
)

// MemLevel identifies which level of the hierarchy served an access.
type MemLevel uint8

// Memory hierarchy levels.
const (
	LevelNone MemLevel = iota
	LevelL1
	LevelL2
	LevelMem
)

// String implements fmt.Stringer.
func (l MemLevel) String() string {
	switch l {
	case LevelL1:
		return "L1"
	case LevelL2:
		return "L2"
	case LevelMem:
		return "mem"
	}
	return "-"
}

// DynInst is one dynamic instruction: a static-instruction reference plus
// the dynamic information the µDG embeds (memory address and latency,
// branch outcome and prediction). It is kept small: traces run to hundreds
// of thousands of entries and are retained for reuse across design points.
// DynInst is one dynamic instruction. Field order is chosen to pack the
// struct into 16 bytes (Addr first avoids 4 bytes of alignment padding
// after SI) — every evaluation path streams the Insts array, so a third
// less footprint is a third less memory bandwidth on the hottest scans.
type DynInst struct {
	Addr   uint64   // effective address for memory ops
	SI     int32    // static instruction index into the program
	MemLat uint16   // cycles to serve a memory access (cache model)
	Level  MemLevel // hierarchy level that served the access
	Flags  uint8
}

// Taken reports whether the dynamic branch/jump was taken.
func (d *DynInst) Taken() bool { return d.Flags&FlagTaken != 0 }

// Mispredicted reports whether the branch predictor missed.
func (d *DynInst) Mispredicted() bool { return d.Flags&FlagMispred != 0 }

// Trace is a dynamic execution of one program.
type Trace struct {
	Prog  *prog.Program
	Insts []DynInst

	statsOnce sync.Once
	stats     Stats
}

// Len returns the number of dynamic instructions.
func (t *Trace) Len() int { return len(t.Insts) }

// Static returns the static instruction for the i'th dynamic instruction.
func (t *Trace) Static(i int) *isa.Inst { return &t.Prog.Insts[t.Insts[i].SI] }

// Stats summarizes a trace for reports and sanity tests. Every field is
// an additive tally over instructions, so per-chunk Stats merge with a
// plain field-wise sum (Merge) — what lets the streaming pipeline keep
// statistics without a whole-trace scan.
type Stats struct {
	Dyn          int
	Loads        int
	Stores       int
	Branches     int
	Taken        int
	Mispredicted int
	L1Hits       int
	L2Hits       int
	MemAccesses  int
	FpOps        int
}

// Merge adds o's tallies into s. Merging the per-chunk Stats of a
// partitioned trace, in any order, equals the whole-scan Stats.
func (s *Stats) Merge(o Stats) {
	s.Dyn += o.Dyn
	s.Loads += o.Loads
	s.Stores += o.Stores
	s.Branches += o.Branches
	s.Taken += o.Taken
	s.Mispredicted += o.Mispredicted
	s.L1Hits += o.L1Hits
	s.L2Hits += o.L2Hits
	s.MemAccesses += o.MemAccesses
	s.FpOps += o.FpOps
}

// Accumulate tallies insts (dynamic instructions of p) into s. Both the
// whole-trace scan and the per-chunk streaming accumulator go through
// this one loop, so the two paths cannot drift.
//
// FpOps counts FP *compute* only: an op that is both FP-typed and a
// memory access (an FP load/store, should the ISA grow one) tallies as a
// load/store, not an FpOp — each instruction lands in exactly one
// class-count, which is what makes the per-chunk merge equal the
// whole-scan without double counting.
func (s *Stats) Accumulate(p *prog.Program, insts []DynInst) {
	s.Dyn += len(insts)
	for i := range insts {
		d := &insts[i]
		op := p.Insts[d.SI].Op
		switch {
		case op.IsLoad():
			s.Loads++
		case op.IsStore():
			s.Stores++
		case op.IsBranch():
			s.Branches++
			if d.Taken() {
				s.Taken++
			}
			if d.Mispredicted() {
				s.Mispredicted++
			}
		case op.IsFp():
			s.FpOps++
		}
		switch d.Level {
		case LevelL1:
			s.L1Hits++
		case LevelL2:
			s.L2Hits++
		case LevelMem:
			s.MemAccesses++
		}
	}
}

// ComputeStats tallies Stats, scanning the trace on the first call and
// serving the memoized result afterwards. Traces are immutable once
// built and shared across goroutines, so the memoization is guarded by
// a sync.Once.
func (t *Trace) ComputeStats() Stats {
	t.statsOnce.Do(func() { t.stats = t.computeStats() })
	return t.stats
}

func (t *Trace) computeStats() Stats {
	var s Stats
	s.Accumulate(t.Prog, t.Insts)
	return s
}
