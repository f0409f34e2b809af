package tdg

import (
	"fmt"

	"exocore/internal/ir"
	"exocore/internal/prog"
	"exocore/internal/trace"
)

// Stream is the streaming counterpart of a TDG: the program IR plus the
// dynamic profile and trace statistics of a chunked trace that was never
// materialized. It carries everything Build derives except the trace
// itself — which is exactly what the baseline (general-core) evaluation
// path needs, since only BSA transforms require random access to Insts.
type Stream struct {
	Prog  *prog.Program
	CFG   *ir.CFG
	Nest  *ir.LoopNest
	Prof  *ir.Profile
	Stats trace.Stats
	Dyn   int
}

// StreamBuilder accumulates a Stream from trace chunks in order: the
// streaming arm of Build. IR reconstruction happens once at
// construction (it is trace-independent); each Feed advances the
// profile builder and the mergeable statistics accumulator, so peak
// memory is O(static program + distinct paths), never O(trace).
type StreamBuilder struct {
	prog  *prog.Program
	cfg   *ir.CFG
	nest  *ir.LoopNest
	pb    *ir.ProfileBuilder
	stats trace.Stats
	dyn   int
}

// NewStreamBuilder reconstructs the program IR and returns a builder
// ready to consume the dynamic stream.
func NewStreamBuilder(p *prog.Program) (*StreamBuilder, error) {
	cfg, err := ir.BuildCFG(p)
	if err != nil {
		return nil, fmt.Errorf("tdg: %w", err)
	}
	nest := ir.BuildLoopNest(cfg)
	return &StreamBuilder{
		prog: p, cfg: cfg, nest: nest,
		pb: ir.NewProfileBuilder(cfg, nest),
	}, nil
}

// Feed consumes one chunk. Chunks must arrive in trace order; the
// builder does not retain the chunk, so the caller may Release it
// immediately after.
func (b *StreamBuilder) Feed(c *trace.Chunk) {
	b.pb.Feed(c.Insts)
	b.stats.Accumulate(b.prog, c.Insts)
	b.dyn += len(c.Insts)
}

// Finish finalizes the profile and returns the stream summary. The
// builder must not be fed afterwards.
func (b *StreamBuilder) Finish() *Stream {
	return &Stream{
		Prog: b.prog, CFG: b.cfg, Nest: b.nest,
		Prof: b.pb.Finish(), Stats: b.stats, Dyn: b.dyn,
	}
}
