package workloads

import (
	"fmt"

	"exocore/internal/bpred"
	"exocore/internal/cache"
	"exocore/internal/prog"
	"exocore/internal/sim"
	"exocore/internal/trace"
)

// SourceConfig parameterizes a generator-driven trace source.
type SourceConfig struct {
	// MaxDyn caps the dynamic instructions synthesized (<= 0 = default).
	MaxDyn int
	// ChunkInsts bounds each chunk (<= 0 = trace.DefaultChunkInsts).
	ChunkInsts int
	// Loop re-runs the kernel (fresh memory image, same seed data) each
	// time it exits until MaxDyn instructions have been synthesized —
	// the steady-state-repeated-kernel mode paper-scale runs use, since
	// the synthetic kernels' natural executions are far shorter than
	// 200M instructions. Cache and branch-predictor state deliberately
	// carries across repeats, so later iterations model the warmed
	// steady state. Off, the source ends exactly where Run would.
	Loop bool
}

// Source returns a generator-driven trace.Source for the workload: each
// Next synthesizes one chunk of dynamic instructions on demand (resumable
// functional simulation) and annotates it with cache latencies and branch
// predictions, with all model state carried across chunk boundaries.
// Drained non-loop sources yield byte-for-byte the instructions Trace
// materializes, at every chunk size. Buffers recycle through a pool, so
// resident trace memory is O(chunks in flight) regardless of MaxDyn.
//
// Build cannot fail, so construction always succeeds; simulation faults
// surface through Err after Next returns false.
func (w *Workload) Source(cfg SourceConfig) *GenSource {
	if cfg.MaxDyn <= 0 {
		cfg.MaxDyn = sim.DefaultMaxDyn
	}
	if cfg.ChunkInsts <= 0 {
		cfg.ChunkInsts = trace.DefaultChunkInsts
	}
	// Never allocate more buffer than the budget can fill: a small run
	// through the streaming path must not pay a paper-scale chunk.
	if cfg.ChunkInsts > cfg.MaxDyn {
		cfg.ChunkInsts = cfg.MaxDyn
	}
	p, prep := w.Build()
	s := &GenSource{
		w:      w,
		p:      p,
		prep:   prep,
		h:      cache.DefaultHierarchy(),
		bp:     bpred.New(bpred.DefaultConfig()),
		pool:   trace.NewChunkPool(cfg.ChunkInsts),
		budget: cfg.MaxDyn,
		loop:   cfg.Loop,
	}
	s.restart()
	return s
}

// GenSource is a workload's generator-driven trace source. It implements
// trace.Source and trace.ChunkAccounting.
type GenSource struct {
	w    *Workload
	p    *prog.Program
	prep func(*sim.State)
	sp   *sim.Stepper
	h    *cache.Hierarchy
	bp   *bpred.Predictor
	pool *trace.ChunkPool

	budget    int
	base      int
	loop      bool
	restarted bool // last restart has produced no instructions yet
	done      bool
	err       error
}

func (s *GenSource) restart() {
	st := sim.NewState()
	if s.prep != nil {
		s.prep(st)
	}
	s.sp = sim.NewStepper(s.p, st)
	s.restarted = true
}

// Prog implements trace.Source.
func (s *GenSource) Prog() *prog.Program { return s.p }

// Err implements trace.Source.
func (s *GenSource) Err() error { return s.err }

// Next implements trace.Source, synthesizing and annotating one chunk.
func (s *GenSource) Next() (*trace.Chunk, bool) {
	if s.done || s.budget <= 0 {
		s.done = true
		return nil, false
	}
	c := s.pool.Get()
	want := s.pool.ChunkInsts()
	if want > s.budget {
		want = s.budget
	}
	buf := c.Insts[:want]
	n := 0
	for n < want {
		w, running := s.sp.Fill(buf[n:want])
		n += w
		if w > 0 {
			s.restarted = false
		}
		if running {
			continue // chunk full
		}
		if err := s.sp.Err(); err != nil {
			s.err = fmt.Errorf("workloads: %s: %w", s.w.Name, err)
			s.done = true
			break
		}
		// Program exit.
		if !s.loop {
			s.done = true
			break
		}
		if s.restarted {
			// A fresh run produced nothing: the program exits
			// immediately and looping cannot make progress.
			s.done = true
			break
		}
		s.restart()
	}
	if n == 0 {
		c.Release()
		return nil, false
	}
	c.Insts = buf[:n]
	c.Base = s.base
	s.h.AnnotateInsts(s.p, c.Insts)
	s.bp.AnnotateInsts(s.p, c.Insts)
	s.base += n
	s.budget -= n
	return c, true
}

// ChunkHighWaterBytes implements trace.ChunkAccounting: the peak bytes
// of chunk buffers simultaneously checked out of the source's pool.
func (s *GenSource) ChunkHighWaterBytes() int64 { return s.pool.HighWaterBytes() }

// streamExemplars collects one representative kernel per workload family
// (each family file nominates its own): the benches the streaming
// identity tests and the paper-scale smoke gate exercise.
var streamExemplars []string

func exemplar(name string) string {
	streamExemplars = append(streamExemplars, name)
	return name
}

// StreamExemplars returns one representative kernel per workload family
// for streaming-pipeline validation, in nomination order.
func StreamExemplars() []string {
	return append([]string(nil), streamExemplars...)
}
