// Customaccel: define a brand-new BSA model against the framework API —
// the paper's primary use case ("The TDG can be used to study new BSAs",
// §2.6, with the steps of Appendix A: analysis, transformation,
// scheduling). The accelerator here is a "reduction engine": a tree of
// adders that retires an entire reduction loop iteration per cycle,
// targeting loops that are pure reductions over contiguous data.
//
// Run with: go run ./examples/customaccel
package main

import (
	"fmt"
	"log"

	"exocore/internal/bsa/bsautil"
	"exocore/internal/cores"
	"exocore/internal/dg"
	"exocore/internal/energy"
	"exocore/internal/exocore"
	"exocore/internal/isa"
	"exocore/internal/runner"
	"exocore/internal/tdg"
	"exocore/internal/workloads"
)

// ReduceEngine is a (deliberately simple) new BSA: it claims inner loops
// whose body is dominated by a reduction over contiguous loads, and
// models them as a wide load unit feeding an adder tree, one iteration
// per cycle after a fill latency.
type ReduceEngine struct{}

// Name implements tdg.BSA.
func (m *ReduceEngine) Name() string { return "Reduce" }

// AreaMM2 implements tdg.BSA.
func (m *ReduceEngine) AreaMM2() float64 { return 0.4 }

// OffloadsCore implements tdg.BSA.
func (m *ReduceEngine) OffloadsCore() bool { return true }

// Analyze implements tdg.BSA — the "analysis" step of Appendix A: find
// legal (pure contiguous reduction) and profitable (enough iterations)
// loops, and attach the plan.
func (m *ReduceEngine) Analyze(t *tdg.TDG) *tdg.Plan {
	plan := &tdg.Plan{BSA: m.Name(), Regions: make(map[int]*tdg.Region)}
	for l := range t.Nest.Loops {
		loop := &t.Nest.Loops[l]
		lp := &t.Prof.Loops[l]
		if !loop.Inner() || lp.AvgTrip < 8 || lp.CarriedMemDep {
			continue
		}
		ld := t.Dataflow(l)
		if len(ld.Reductions) == 0 || len(ld.CarriedRegDep) > 0 {
			continue
		}
		// Every memory access must be a contiguous stream.
		ok := true
		for _, b := range loop.Blocks {
			blk := &t.CFG.Blocks[b]
			for si := blk.Start; si < blk.End; si++ {
				if t.CFG.Prog.At(si).Op.IsMem() && !t.Prof.Strides[si].Contiguous() {
					ok = false
				}
			}
		}
		if !ok {
			continue
		}
		est := float64(lp.DynInsts) / float64(lp.Iterations) // ~1 iter/cycle
		plan.Regions[l] = &tdg.Region{LoopID: l, EstSpeedup: est}
	}
	return plan
}

// TransformRegion implements tdg.BSA — the "transformation" step: rewrite
// the region's µDG into a pipelined stream: one node per iteration,
// II = 1, memory latency from the trace, plus the offload handshake with
// the core at entry and exit (bsautil.Enter, bsautil.HandBack).
func (m *ReduceEngine) TransformRegion(ctx *tdg.Ctx, r *tdg.Region, start, end int) dg.NodeID {
	g := ctx.G
	ld := ctx.TDG.Dataflow(r.LoopID)

	// Entry: live-ins transfer once the core's in-flight work commits; the
	// adder tree is fixed-function, so there is no configuration to load.
	entry := bsautil.Enter(ctx, ld.LiveIns, start, 0)

	iters := bsautil.SplitIterations(ctx.TDG, r.LoopID, start, end)
	prevStart, lastDone := entry, entry
	tr := ctx.TDG.Trace
	var written [isa.NumRegs]bool
	for _, it := range iters {
		node := g.NewNode(int32(it.Start))
		// Pipelined: each iteration *starts* one cycle after the previous
		// one started (II = 1); completions overlap.
		g.AddEdge(prevStart, node, 1, dg.EdgeAccelPipe)
		prevStart = node
		// The iteration completes after its slowest memory access.
		var maxLat int64 = 1
		for i := it.Start; i < it.End; i++ {
			d := &tr.Insts[i]
			in := &tr.Prog.Insts[d.SI]
			if in.Op.IsMem() && int64(d.MemLat) > maxLat {
				maxLat = int64(d.MemLat)
			}
			if in.HasDst() {
				written[in.Dst] = true
			}
			ctx.Counts.Add(energy.EvCFUOp, 1) // adder-tree op energy
		}
		done := g.NewNode(int32(it.Start))
		g.AddEdge(node, done, maxLat, dg.EdgeAccelCompute)
		lastDone = done
	}

	// Exit: the reduction value and induction registers return to the
	// core; the engine performs no stores, so its store table stays empty.
	exit := g.NewNode(int32(end - 1))
	g.AddEdge(lastDone, exit, bsautil.TransferLatency(len(ld.LiveOuts)), dg.EdgeAccelComm)
	return bsautil.HandBack(ctx.GPP, exit, &written, new(bsautil.StoreTab))
}

func main() {
	wl, err := workloads.ByName("nnw") // dot-product heavy: ideal target
	if err != nil {
		log.Fatal(err)
	}
	// Trace + TDG through the shared evaluation engine: a custom-BSA
	// study that also sweeps cores or parameters would reuse them free.
	eng := runner.New(runner.Options{MaxDyn: 60000})
	td, err := eng.TDG(wl)
	if err != nil {
		log.Fatal(err)
	}
	tr := td.Trace

	model := &ReduceEngine{}
	bsas := map[string]tdg.BSA{model.Name(): model}
	plans := map[string]*tdg.Plan{model.Name(): model.Analyze(td)}
	fmt.Printf("ReduceEngine plans %d region(s) on %s\n", len(plans[model.Name()].Regions), wl.Name)

	base, _ := cores.Evaluate(cores.OOO2, tr)
	assign := exocore.Assignment{}
	for l := range plans[model.Name()].Regions {
		assign[l] = model.Name()
	}
	res, err := exocore.Run(td, cores.OOO2, bsas, plans, assign, exocore.RunOpts{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("OOO2 baseline: %d cycles\n", base)
	fmt.Printf("OOO2+Reduce:   %d cycles (%.2fx, %.0f%% of instructions offloaded)\n",
		res.Cycles, float64(base)/float64(res.Cycles), 100*(1-res.UnacceleratedFraction()))
}
