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
