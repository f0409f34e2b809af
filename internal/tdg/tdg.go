// Package tdg assembles the Transformable Dependence Graph: the dynamic
// trace, the reconstructed program IR (CFG + loop nest + dataflow), and
// the dynamic profile, with a one-to-one mapping between dynamic
// instructions and static IR instructions (paper §2.2-2.3). It defines
// the BSA interface every accelerator model implements: an *analyzer*
// that finds legal and profitable regions ("the plan"), and a graph
// *transformer* that models accelerated execution of region occurrences.
package tdg

import (
	"fmt"
	"sync"

	"exocore/internal/cores"
	"exocore/internal/dg"
	"exocore/internal/energy"
	"exocore/internal/ir"
	"exocore/internal/isa"
	"exocore/internal/obs"
	"exocore/internal/trace"
)

// TDG is the transformable dependence graph of one program execution.
// A built TDG is shared read-only between concurrent evaluations (the
// runner engine caches one per benchmark), so all lazy state behind it
// must be lock-protected.
type TDG struct {
	Trace *trace.Trace
	CFG   *ir.CFG
	Nest  *ir.LoopNest
	Prof  *ir.Profile

	dfMu     sync.Mutex
	dataflow map[int]*ir.LoopDataflow

	atomsOnce sync.Once
	atoms     []LoopAtom

	headOnce sync.Once
	headOff  []int32 // len(Nest.Loops)+1 offsets into headIdx
	headIdx  []int32 // dynamic indices of header-block entries, grouped by loop

	decOnce sync.Once
	dec     *cores.Decoded

	poolOnce sync.Once
	pool     any
}

// LoopAtom is a maximal run of consecutive dynamic instructions sharing
// one innermost loop — the finest granularity at which any assignment
// can segment the trace. The atom list partitions the whole trace.
type LoopAtom struct {
	Start, End int32 // dynamic index, [Start, End)
	Loop       int32 // innermost loop id, -1 outside any loop
}

// LoopAtoms returns (computing lazily, concurrency-safe) the trace's
// innermost-loop partition. Segmentation under any assignment reduces to
// one region resolution per distinct loop plus one merge pass over the
// atoms — O(atoms) instead of O(trace × nest depth) per call. That pass is
// exocore.Segmentize, the one split of every engine Run, cached or not.
func (t *TDG) LoopAtoms() []LoopAtom {
	t.atomsOnce.Do(func() {
		// Innermost loop per static instruction, then one scan of the
		// dynamic trace merging consecutive same-loop instructions.
		inner := make([]int32, len(t.Trace.Prog.Insts))
		for si := range inner {
			inner[si] = int32(t.Nest.InnermostOfInst(si))
		}
		atoms := make([]LoopAtom, 0, 1024)
		cur := LoopAtom{Loop: -2}
		for i := range t.Trace.Insts {
			l := inner[t.Trace.Insts[i].SI]
			if l != cur.Loop {
				if cur.Loop != -2 {
					atoms = append(atoms, cur)
				}
				cur = LoopAtom{Start: int32(i), End: int32(i + 1), Loop: l}
			} else {
				cur.End = int32(i + 1)
			}
		}
		if cur.Loop != -2 {
			atoms = append(atoms, cur)
		}
		t.atoms = atoms
	})
	return t.atoms
}

// HeaderEntries returns the ascending dynamic indices at which the given
// loop's header block begins executing — the iteration boundaries every
// transform model splits on. Computed lazily for all loops in one trace
// scan (concurrency-safe), so per-occurrence iteration splitting becomes
// a binary search instead of a scan of the occurrence span.
func (t *TDG) HeaderEntries(loopID int) []int32 {
	t.headOnce.Do(func() {
		nl := len(t.Nest.Loops)
		// Header block start SI -> loop ID. Loops sharing a header are
		// merged during loop reconstruction, so the mapping is unique.
		hl := make([]int32, len(t.Trace.Prog.Insts))
		for si := range hl {
			hl[si] = -1
		}
		for l := 0; l < nl; l++ {
			hl[t.CFG.Blocks[t.Nest.Loops[l].Header].Start] = int32(l)
		}
		off := make([]int32, nl+1)
		for i := range t.Trace.Insts {
			if l := hl[t.Trace.Insts[i].SI]; l >= 0 {
				off[l+1]++
			}
		}
		for l := 0; l < nl; l++ {
			off[l+1] += off[l]
		}
		idx := make([]int32, off[nl])
		cur := append([]int32(nil), off[:nl]...)
		for i := range t.Trace.Insts {
			if l := hl[t.Trace.Insts[i].SI]; l >= 0 {
				idx[cur[l]] = int32(i)
				cur[l]++
			}
		}
		t.headOff, t.headIdx = off, idx
	})
	return t.headIdx[t.headOff[loopID]:t.headOff[loopID+1]]
}

// Decoded returns the trace's program decoded for the general core's
// drive loop (cores.GPP.ExecTrace), computed lazily once
// (concurrency-safe) and shared by every evaluation of this TDG.
func (t *TDG) Decoded() *cores.Decoded {
	t.decOnce.Do(func() { t.dec = cores.Decode(t.Trace.Prog) })
	return t.dec
}

// Pool returns what the TDG's pool slot holds, filling it with fill() on
// the first call (concurrency-safe). The evaluation engine keeps its
// cross-core outcome pool there (exocore.NewCache), so every cache built
// on this TDG shares one pool, and the pool lives exactly as long as the
// TDG; this package never looks inside it.
func (t *TDG) Pool(fill func() any) any {
	t.poolOnce.Do(func() { t.pool = fill() })
	return t.pool
}

// Build constructs the TDG (IR reconstruction + profiling) from an
// annotated trace.
func Build(tr *trace.Trace) (*TDG, error) {
	cfg, err := ir.BuildCFG(tr.Prog)
	if err != nil {
		return nil, fmt.Errorf("tdg: %w", err)
	}
	nest := ir.BuildLoopNest(cfg)
	prof := ir.BuildProfile(cfg, nest, tr)
	return &TDG{
		Trace: tr, CFG: cfg, Nest: nest, Prof: prof,
		dataflow: make(map[int]*ir.LoopDataflow),
	}, nil
}

// Dataflow returns (computing lazily) the dataflow summary of a loop.
// Safe for concurrent use: BSA transforms call this from parallel
// evaluations sharing one TDG.
func (t *TDG) Dataflow(loopID int) *ir.LoopDataflow {
	t.dfMu.Lock()
	defer t.dfMu.Unlock()
	if ld, ok := t.dataflow[loopID]; ok {
		return ld
	}
	ld := ir.AnalyzeLoopDataflow(t.CFG, t.Nest, loopID)
	t.dataflow[loopID] = ld
	return ld
}

// Region is one acceleratable program region in a plan: a loop (SIMD,
// DP-CGRA, Trace-P) or a loop nest root (NS-DF).
type Region struct {
	LoopID int
	// EstSpeedup is the analyzer's static/profile-based speedup estimate
	// over the general core, consumed by the Amdahl-tree scheduler.
	EstSpeedup float64
	// Config carries accelerator-specific plan data (eg. the offloaded
	// compute subgraph for DP-CGRA, the hot path for Trace-P).
	Config any
}

// Plan is the output of a BSA analyzer: the regions it can legally and
// profitably accelerate, keyed by loop ID.
type Plan struct {
	BSA     string
	Regions map[int]*Region
}

// Region returns the plan's region for a loop, or nil.
func (p *Plan) Region(loopID int) *Region {
	if p == nil {
		return nil
	}
	return p.Regions[loopID]
}

// Core is the general-core constructor a transform drives (cores.GPP):
// it runs the µops a model leaves on the host pipeline, and exchanges
// dependence state with the model's nodes — the core's latest commit and
// completion, register producers, performed stores and fetch barriers.
// Nodes the core hands out are anchors carrying its event times; nodes
// handed to it are read when it next executes. The cores package tests
// drive transforms through it with the node-form reference core.
type Core interface {
	Exec(u cores.UOp, dynIdx int32)
	ExecTrace(p *cores.Decoded, insts []trace.DynInst, base int)
	LastCommit() dg.NodeID
	LastComplete() dg.NodeID
	RegDef(r isa.Reg) dg.NodeID
	SetRegDef(r isa.Reg, node dg.NodeID)
	NoteStore(addr uint64, node dg.NodeID)
	Barrier(node dg.NodeID)
}

// Ctx is the transformation context handed to a BSA when it models one
// region occurrence: the TDG, the µDG being constructed, the general-core
// constructor (for interaction edges and for instructions that stay on
// the core), and the energy accumulator.
type Ctx struct {
	TDG    *TDG
	G      *dg.Graph
	GPP    Core
	Counts *energy.Counts
	// ConfigResident reports whether the accelerator's configuration for
	// the region being transformed is already loaded. The engine simulates
	// the per-BSA configuration LRU in composition order (see
	// exocore.ConfigCacheWays); on false the model should charge its
	// configuration-load latency and energy.
	ConfigResident bool
	// Span is the observability span covering this transform (inert when
	// tracing is off). Models may annotate it with model-specific args —
	// annotations are side effects on the trace only and must not feed
	// back into the transform result.
	Span obs.Span
}

// ExecCore runs trace instructions [start, end) on the general core — the
// iterations a model leaves to, or replays on, the host pipeline —
// through the core's decoded drive loop.
func (c *Ctx) ExecCore(start, end int) {
	c.GPP.ExecTrace(c.TDG.Decoded(), c.TDG.Trace.Insts[start:end], start)
}

// BSA is a behavior-specialized accelerator model: the pair of analyzer
// and graph transform the paper describes in §2.3 and Appendix A.
type BSA interface {
	// Name returns the model's short name (eg. "SIMD", "NS-DF").
	Name() string
	// Analyze inspects the TDG and returns the plan of acceleratable
	// regions with their configurations and estimated speedups.
	Analyze(t *TDG) *Plan
	// TransformRegion models execution of one dynamic occurrence
	// [start, end) of the planned region on the accelerator, appending
	// nodes/edges and charging energy. It must leave the GPP's
	// architectural dependence state (register producers, store map)
	// consistent at exit, and return the node representing region
	// completion (or dg.None if it emitted everything through the GPP).
	// The result must be a pure function of (core config, region plan,
	// span, ctx.ConfigResident): the engine caches it per span.
	TransformRegion(ctx *Ctx, r *Region, start, end int) dg.NodeID
	// AreaMM2 is the accelerator's area cost.
	AreaMM2() float64
	// OffloadsCore reports whether the accelerator runs independently of
	// the core pipeline (the core's frontend can be power-gated while the
	// region runs), as with NS-DF and Trace-P offload engines.
	OffloadsCore() bool
}
