// Designspace: a miniature version of the paper's §5 exploration — a few
// benchmarks, all 64 core × BSA-subset designs, printing the Pareto
// frontier and the headline comparison. The full exploration lives in
// cmd/dse; this example shows the library API for custom studies.
//
// Run with: go run ./examples/designspace
package main

import (
	"fmt"
	"log"
	"sort"

	"exocore/internal/dse"
	"exocore/internal/runner"
	"exocore/internal/workloads"
)

func main() {
	var ws []*workloads.Workload
	for _, name := range []string{"mm", "nbody", "vr", "cjpeg", "mcf", "hmmer"} {
		w, err := workloads.ByName(name)
		if err != nil {
			log.Fatal(err)
		}
		ws = append(ws, w)
	}

	// An explicit engine makes the caches visible. The exploration drops
	// each bench's trace, TDG and contexts once its rows are in, so a
	// repeated exploration rebuilds those but reads every evaluation
	// from the engine's eval memo; warm a bench with eng.Context first
	// to keep it resident.
	eng := runner.New(runner.Options{MaxDyn: 30000})
	exp, err := dse.Explore(dse.Options{Workloads: ws, Engine: eng})
	if err != nil {
		log.Fatal(err)
	}
	m := eng.Metrics()
	fmt.Printf("explored %d designs over %d benchmarks\n", len(exp.Designs), len(ws))
	fmt.Printf("engine: %d sched contexts built, %d evals (%d served from cache)\n\n",
		m.Stage(runner.StageSched).Misses,
		m.Stage(runner.StageEval).Calls, m.Stage(runner.StageEval).Hits)

	fmt.Println("Pareto frontier (performance vs energy efficiency, relative to IO2):")
	for _, d := range exp.Frontier() {
		fmt.Printf("  %-12s perf %.2fx  energy-eff %.2fx  area %.1f mm²\n",
			d.Code, d.RelPerf, d.RelEnergyEff, d.AreaMM2)
	}

	fmt.Println("\ntop-5 by energy-delay:")
	sorted := append([]dse.DesignResult(nil), exp.Designs...)
	sort.Slice(sorted, func(i, j int) bool {
		return sorted[i].RelPerf*sorted[i].RelEnergyEff > sorted[j].RelPerf*sorted[j].RelEnergyEff
	})
	for _, d := range sorted[:5] {
		fmt.Printf("  %-12s perf %.2fx  energy-eff %.2fx\n", d.Code, d.RelPerf, d.RelEnergyEff)
	}

	perf, eff, err := exp.RelativeTo("OOO2-SDNT", "OOO2")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nfull OOO2 ExoCore vs plain OOO2: %.2fx performance, %.2fx energy efficiency\n", perf, eff)
}
