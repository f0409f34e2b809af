// Quickstart: build a small program with the assembler DSL, execute it to
// get an annotated trace, construct the Transformable Dependence Graph,
// and model it on a plain OOO2 core versus an OOO2 with SIMD — including
// the paper's Figure 4 fused-multiply-add example.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"sort"

	"exocore/internal/bpred"
	"exocore/internal/bsa"
	"exocore/internal/cache"
	"exocore/internal/cores"
	"exocore/internal/energy"
	"exocore/internal/exocore"
	"exocore/internal/fusion"
	"exocore/internal/isa"
	"exocore/internal/prog"
	"exocore/internal/runner"
	"exocore/internal/sim"
	"exocore/internal/tdg"
)

func main() {
	// 1. Author a kernel: y[i] += a[i] * b[i] over 512 elements — the
	//    dot-product-ish loop of the paper's Figure 4, at scale.
	b := prog.NewBuilder("axpy")
	i, pA, pB, pY := isa.R(1), isa.R(2), isa.R(3), isa.R(4)
	n := isa.R(10)
	b.MovI(pA, 0x10000)
	b.MovI(pB, 0x20000)
	b.MovI(pY, 0x30000)
	b.MovI(i, 0)
	b.Label("loop")
	b.LdF(isa.F(1), pA, 0)
	b.LdF(isa.F(2), pB, 0)
	b.FMul(isa.F(3), isa.F(1), isa.F(2)) // fmul feeding a single-use ...
	b.FAdd(isa.F(4), isa.F(4), isa.F(3)) // ... accumulating fadd: fma!
	b.AddI(pA, pA, 8)
	b.AddI(pB, pB, 8)
	b.AddI(i, i, 1)
	b.Blt(i, n, "loop")
	p := b.MustBuild()

	// 2. Functionally execute it (the gem5 role) and annotate the trace
	//    with cache latencies and branch-prediction outcomes.
	st := sim.NewState()
	st.SetInt(n, 512)
	for k := 0; k < 520; k++ {
		st.Mem.StoreFloat(0x10000+uint64(k)*8, float64(k)*0.5)
		st.Mem.StoreFloat(0x20000+uint64(k)*8, 2.0)
	}
	tr, err := sim.Run(p, st, sim.Config{MaxDyn: 50000})
	if err != nil {
		log.Fatal(err)
	}
	cache.DefaultHierarchy().Annotate(tr)
	bpred.New(bpred.DefaultConfig()).Annotate(tr)
	fmt.Printf("trace: %d dynamic instructions\n", tr.Len())

	// 3. Build the TDG (IR reconstruction + profiling) through the shared
	//    evaluation engine — ad-hoc traces get a keyed cache slot, and the
	//    engine's stage metrics time the construction.
	eng := runner.New(runner.Options{})
	td, err := eng.TDGFor("axpy", tr)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("TDG build: %.1fms (engine stage %q)\n",
		float64(eng.Metrics().Stage(runner.StageTDG).WallNS)/1e6, runner.StageTDG)
	fmt.Printf("TDG: %d basic blocks, %d loops (hot loop covers %.0f%%)\n",
		len(td.CFG.Blocks), len(td.Nest.Loops),
		100*td.Prof.LoopShare(td.Prof.SortedLoopsByShare()[0]))

	// 4. Model the plain OOO2 (TDG_OOO2,∅).
	baseCycles, baseCounts := cores.Evaluate(cores.OOO2, tr)
	tbl := energy.CoreTable(cores.OOO2.EnergyParams())
	baseE := tbl.Evaluate(&baseCounts, baseCycles)
	fmt.Printf("\nOOO2 baseline:  %6d cycles  %8.1f nJ  (IPC %.2f)\n",
		baseCycles, baseE.TotalNJ(), float64(tr.Len())/float64(baseCycles))

	// 5. The Figure 4 example: transparently fuse fmul+fadd (TDG_OOO2,fma).
	//    The fusion DSL's "fma" rule is that transform.
	plan := fusion.Analyze(td, fusion.StandardRules[:1])
	fmaCycles, fmaCounts := fusion.Evaluate(td, cores.OOO2, plan)
	fmaE := tbl.Evaluate(&fmaCounts, fmaCycles)
	fmt.Printf("OOO2 + fma:     %6d cycles  %8.1f nJ  (%d pairs fused, %.2fx speedup)\n",
		fmaCycles, fmaE.TotalNJ(), len(plan.Survivor),
		float64(baseCycles)/float64(fmaCycles))

	// 6. A real BSA: auto-vectorizing SIMD (TDG_OOO2,SIMD), instantiated
	//    through the registry — the same lookup every tool and the daemon
	//    use, so a model registered in internal/bsa is available here too.
	model, err := bsa.Default().NewOne("SIMD")
	if err != nil {
		log.Fatal(err)
	}
	bsas := map[string]tdg.BSA{model.Name(): model}
	plans := map[string]*tdg.Plan{model.Name(): model.Analyze(td)}
	assign := exocore.Assignment{}
	var planned []int
	for l := range plans[model.Name()].Regions {
		planned = append(planned, l)
	}
	sort.Ints(planned)
	for _, l := range planned {
		assign[l] = model.Name()
		fmt.Printf("\nSIMD analyzer: loop L%d is vectorizable (estimated %.1fx)\n",
			l, plans[model.Name()].Regions[l].EstSpeedup)
	}
	res, err := exocore.Run(td, cores.OOO2, bsas, plans, assign, exocore.RunOpts{})
	if err != nil {
		log.Fatal(err)
	}
	e := exocore.EnergyOf(res, cores.OOO2, bsas)
	fmt.Printf("OOO2 + SIMD:    %6d cycles  %8.1f nJ  (%.2fx speedup, %.2fx energy eff)\n",
		res.Cycles, e.TotalNJ(),
		float64(baseCycles)/float64(res.Cycles), baseE.TotalNJ()/e.TotalNJ())
}
