package exocore

import (
	"exocore/internal/cores"
	"exocore/internal/obs"
	"exocore/internal/trace"
)

// RunStream evaluates a chunked trace source on the general core — the
// streaming arm of Run for the baseline (empty assignment) design point.
// It feeds the source chunk by chunk through the general core's decoded
// drive loop (cores.GPP.ExecTrace), the same loop evalUnit's
// general-core arm runs, so on the same instruction stream the result is
// byte-identical to Run(td, core, nil, nil, nil, opts) at every chunk
// size. The lean core keeps its state as times and allocates no µDG node,
// so peak memory is O(chunk) — the whole point: a 200M-instruction trace
// evaluates without ever existing as an array.
//
// Only the baseline streams: BSA analyzers and transforms take random
// access to the materialized trace, so assigned design points go
// through Run. opts.Cache, RecordSegments and RecordRegions do not
// apply; Span and Reg are honored (the "dg.graph_high_water_bytes"
// and "trace.chunk_high_water_bytes" gauges, and the
// "eval.segment_len" histogram).
func RunStream(src trace.Source, core cores.Config, opts RunOpts) (*RunResult, error) {
	w := acquireWorker(core, nil)
	defer releaseWorker(core, w)

	if opts.Reg != nil {
		defer func() {
			opts.Reg.Gauge("dg.graph_high_water_bytes").SetMax(w.g.HighWaterBytes())
			if acc, ok := src.(trace.ChunkAccounting); ok {
				opts.Reg.Gauge("trace.chunk_high_water_bytes").SetMax(acc.ChunkHighWaterBytes())
			}
		}()
	}

	w.reset(false)
	dec := cores.Decode(src.Prog())
	total := 0
	for {
		c, ok := src.Next()
		if !ok {
			break
		}
		w.gpp.ExecTrace(dec, c.Insts, c.Base)
		total += len(c.Insts)
		c.Release()
	}
	if err := src.Err(); err != nil {
		return nil, err
	}
	w.gpp.Fold()

	res := &RunResult{Models: make([]ModelStat, 0, 1)}
	if total > 0 {
		end := w.gpp.EndTime()
		st := res.stat("")
		st.Dyn = int64(total)
		st.Cycles = end
		st.Counts = w.counts
		res.Counts = w.counts
		res.Cycles = end
		if opts.Reg != nil {
			opts.Reg.Histogram("eval.segment_len", obs.DefaultSizeBounds).Observe(int64(total))
		}
	}
	return res, nil
}
