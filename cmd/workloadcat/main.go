// Command workloadcat reproduces Figure 11: the interaction between
// accelerators, general cores and workload categories. For each category
// (regular / semi-regular / irregular / graph) it prints the relative
// performance and energy of every single-BSA design and the full ExoCore,
// one series per BSA combination with one point per core. The series
// follow the tool's BSA registry, so `-bsas SIMD,DP-CGRA,NS-DF,Trace-P`
// reproduces the paper's exact figure while the default registry adds a
// GS-DAE series and folds it into the ExoCore point. -json emits the
// shared result schema with one row per (category, design). The unified
// -trace/-v/-vv observability flags record engine spans and progress.
package main

import (
	"fmt"

	"exocore/internal/cli"
	"exocore/internal/cores"
	"exocore/internal/dse"
	"exocore/internal/report"
	"exocore/internal/workloads"
)

func main() {
	app := cli.New("workloadcat", "all")
	app.MustParse()
	defer app.Close()

	exp, err := dse.Explore(dse.Options{
		Workloads: app.Workloads(),
		Sched:     app.Sched,
		Engine:    app.Engine(),
	})
	if err != nil {
		app.Fail(err)
	}

	// The Figure 11 series: plain core, each single BSA, full ExoCore —
	// derived from the registry so registered models grow the figure.
	reg := app.Registry()
	type serie struct {
		label string
		mask  int
	}
	series := []serie{{"Gen. Core Only", 0}}
	for i, name := range reg.Names() {
		series = append(series, serie{name, 1 << i})
	}
	series = append(series, serie{"ExoCore", 1<<reg.Len() - 1})

	doc := report.New("workloadcat")
	if !app.JSON {
		fmt.Println("# Figure 11: category,series,core,relperf,releneff (relative to IO2 overall)")
	}
	for _, cat := range workloads.Categories {
		for _, s := range series {
			for _, core := range cores.Configs {
				code := dse.DesignCodeIn(reg, core, s.mask)
				perf, eff := exp.CategoryAggregate(code, cat)
				if app.JSON {
					doc.Add(report.Result{
						Design: code, Core: core.Name, BSAs: reg.SubsetNames(s.mask),
						Category: string(cat),
						RelPerf:  perf, RelEnergyEff: eff,
						Params: map[string]string{"series": s.label},
					})
					continue
				}
				fmt.Printf("%s,%s,%s,%.3f,%.3f\n", cat, s.label, core.Name, perf, eff)
			}
		}
	}
	if app.JSON {
		app.Emit(doc)
		return
	}
	app.Finish()
}
