// Package bpred models the branch predictor that annotates a dynamic trace
// with misprediction flags. The µDG turns each misprediction into a
// serialization edge from the branch's execute node to the fetch of the
// following instruction (pipeline refill). We model a tournament of a
// gshare and a bimodal table with a chooser, similar in spirit to the
// Alpha-21264-class predictor the paper's validation benchmarks target.
package bpred

import (
	"exocore/internal/prog"
	"exocore/internal/trace"
)

// Config sizes the predictor tables (entries must be powers of two).
type Config struct {
	GshareEntries  int
	BimodalEntries int
	ChooserEntries int
	HistoryBits    int
}

// DefaultConfig is a 4K-entry tournament predictor with 12 history bits.
func DefaultConfig() Config {
	return Config{GshareEntries: 4096, BimodalEntries: 4096, ChooserEntries: 4096, HistoryBits: 12}
}

// Predictor is a tournament (gshare + bimodal) direction predictor.
// Unconditional jumps are always predicted correctly (perfect BTB).
type Predictor struct {
	cfg     Config
	gshare  []uint8 // 2-bit saturating counters
	bimodal []uint8
	chooser []uint8 // 2-bit: >=2 favors gshare
	history uint64

	lookups uint64
	misses  uint64
}

// New returns a predictor with all counters weakly taken.
func New(cfg Config) *Predictor {
	p := &Predictor{
		cfg:     cfg,
		gshare:  make([]uint8, cfg.GshareEntries),
		bimodal: make([]uint8, cfg.BimodalEntries),
		chooser: make([]uint8, cfg.ChooserEntries),
	}
	for i := range p.gshare {
		p.gshare[i] = 2
	}
	for i := range p.bimodal {
		p.bimodal[i] = 2
	}
	for i := range p.chooser {
		p.chooser[i] = 2
	}
	return p
}

func taken2(c uint8) bool { return c >= 2 }

func bump(c uint8, up bool) uint8 {
	if up {
		if c < 3 {
			return c + 1
		}
		return c
	}
	if c > 0 {
		return c - 1
	}
	return c
}

// Predict runs one conditional branch (identified by its static index)
// through the predictor, updates state with the actual outcome, and
// reports whether the prediction was correct.
func (p *Predictor) Predict(pc int, actual bool) bool {
	p.lookups++
	hmask := uint64(1)<<uint(p.cfg.HistoryBits) - 1
	gi := (uint64(pc) ^ (p.history & hmask)) % uint64(len(p.gshare))
	bi := uint64(pc) % uint64(len(p.bimodal))
	ci := uint64(pc) % uint64(len(p.chooser))

	gp := taken2(p.gshare[gi])
	bp := taken2(p.bimodal[bi])
	pred := bp
	if taken2(p.chooser[ci]) {
		pred = gp
	}

	// Chooser trains toward whichever component was right.
	if gp != bp {
		p.chooser[ci] = bump(p.chooser[ci], gp == actual)
	}
	p.gshare[gi] = bump(p.gshare[gi], actual)
	p.bimodal[bi] = bump(p.bimodal[bi], actual)
	p.history = (p.history << 1) | b2u(actual)

	correct := pred == actual
	if !correct {
		p.misses++
	}
	return correct
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// Stats returns (lookups, mispredictions).
func (p *Predictor) Stats() (uint64, uint64) { return p.lookups, p.misses }

// Annotate replays all conditional branches in t through the predictor,
// setting the misprediction flag on each dynamic branch.
func (p *Predictor) Annotate(t *trace.Trace) {
	p.AnnotateInsts(t.Prog, t.Insts)
}

// AnnotateInsts is Annotate over one chunk of a dynamic trace. Predictor
// state (tables, global history) carries across calls, so chunked
// annotation is byte-identical to the whole-trace scan at any chunk size.
func (p *Predictor) AnnotateInsts(pr *prog.Program, insts []trace.DynInst) {
	for i := range insts {
		d := &insts[i]
		op := pr.Insts[d.SI].Op
		if !op.IsBranch() {
			continue
		}
		if !p.Predict(int(d.SI), d.Taken()) {
			d.Flags |= trace.FlagMispred
		}
	}
}
