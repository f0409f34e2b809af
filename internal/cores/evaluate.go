package cores

import (
	"exocore/internal/dg"
	"exocore/internal/energy"
	"exocore/internal/trace"
)

// Evaluate runs an entire trace through the general core with no
// accelerators (TDG_GPP,∅) and returns cycles and energy event counts.
// This is the baseline evaluation every speedup in the paper is relative
// to.
func Evaluate(cfg Config, tr *trace.Trace) (int64, energy.Counts) {
	var counts energy.Counts
	m := NewGPP(cfg, dg.NewLeanGraph(), &counts)
	m.ExecTrace(Decode(tr.Prog), tr.Insts, 0)
	m.Fold()
	return m.EndTime(), counts
}

// EvaluateWithBreakdown additionally returns the critical-path stall
// breakdown by edge class, the paper's recommended validation aid.
func EvaluateWithBreakdown(cfg Config, tr *trace.Trace) (int64, energy.Counts, [dg.NumEdgeClasses]int64) {
	var counts energy.Counts
	m := NewGPP(cfg, dg.NewGraph(), &counts)
	m.ExecTrace(Decode(tr.Prog), tr.Insts, 0)
	m.Fold()
	var bd [dg.NumEdgeClasses]int64
	m.WalkCriticalPath(m.LastCommit(), func(_ int32, class dg.EdgeClass, lat int64) { bd[class] += lat })
	return m.EndTime(), counts, bd
}
