// Command tdgsim runs benchmarks on one design point through the TDG
// framework and reports cycles, energy, per-model attribution and the
// critical-path stall breakdown.
//
// Usage:
//
//	tdgsim -bench mm -core OOO2 -bsas SIMD,NS-DF
//	tdgsim -bench mm -json      # shared result schema
//	tdgsim -list        # Table 3: the benchmark suite
//	tdgsim -cores       # Table 4: the general-core configurations
package main

import (
	"context"
	"fmt"
	"os"
	"sort"
	"text/tabwriter"

	"exocore/internal/cli"
	"exocore/internal/cores"
	"exocore/internal/dg"
	"exocore/internal/exocore"
	"exocore/internal/fusion"
	"exocore/internal/report"
	"exocore/internal/serve"
	"exocore/internal/workloads"
)

func main() {
	app := cli.New("tdgsim", "mm")
	list := app.Flags().Bool("list", false, "list the benchmark suite (Table 3)")
	listCores := app.Flags().Bool("cores", false, "list core configurations (Table 4)")
	fuse := app.Flags().Bool("fuse", false, "also report the instruction-fusion DSL result (standard rules)")
	app.MustParse()
	defer app.Close()

	if *list {
		listBenchmarks()
		return
	}
	if *listCores {
		listCoreConfigs()
		return
	}

	if app.JSON {
		// The daemon's /v1/evaluate endpoint runs this same builder, which
		// is what keeps the two outputs byte-identical for equal inputs.
		doc, err := serve.EvaluateDocument(context.Background(), app.Engine(),
			"tdgsim", app.Workloads(), app.CoreConfig(), app.BSANames(),
			app.Sched, app.Tracer())
		if err != nil {
			app.Fail(err)
		}
		app.Emit(doc)
		return
	}
	for _, wl := range app.Workloads() {
		if err := run(app, wl, *fuse); err != nil {
			app.Fail(err)
		}
	}
	app.Finish()
}

func listBenchmarks() {
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "BENCHMARK\tSUITE\tCATEGORY")
	for _, wl := range workloads.All() {
		fmt.Fprintf(w, "%s\t%s\t%s\n", wl.Name, wl.Suite, wl.Category)
	}
	w.Flush()
}

func listCoreConfigs() {
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "CORE\tWIDTH\tROB\tWINDOW\tD$PORTS\tFUs(ALU,MUL,FP)\tAREA(mm²)")
	for _, c := range cores.Configs {
		fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%d\t%d,%d,%d\t%.1f\n",
			c.Name, c.Width, c.ROB, c.Window, c.DCachePorts,
			c.IntAlu, c.IntMulDiv, c.FpUnits, c.AreaMM2)
	}
	w.Flush()
}

func run(app *cli.App, wl *workloads.Workload, fuse bool) error {
	eng := app.Engine()
	core := app.CoreConfig()
	names := app.BSANames()

	td, err := eng.TDG(wl)
	if err != nil {
		return err
	}
	ctx, err := eng.Context(wl, core)
	if err != nil {
		return err
	}
	var assign exocore.Assignment
	if app.UseAmdahl() {
		assign = ctx.AmdahlTree(names)
	} else {
		assign = ctx.Oracle(names)
	}

	res, err := eng.Report(wl, core, assign)
	if err != nil {
		return err
	}
	e := exocore.EnergyOf(res, core, ctx.BSAs)

	tr := td.Trace
	fmt.Printf("benchmark %s on %s (trace: %d dynamic instructions)\n", wl.Name, core.Name, tr.Len())
	fmt.Printf("baseline:  %8d cycles  %10.1f nJ\n", ctx.BaseCycles, ctx.BaseEnergyNJ)
	fmt.Printf("exocore:   %8d cycles  %10.1f nJ   (speedup %.2fx, energy eff %.2fx)\n",
		res.Cycles, e.TotalNJ(),
		float64(ctx.BaseCycles)/float64(res.Cycles), ctx.BaseEnergyNJ/e.TotalNJ())
	fmt.Printf("avg power: %.2f W   unaccelerated: %.0f%%\n", e.AvgPowerW(), 100*res.UnacceleratedFraction())

	if len(assign) > 0 {
		fmt.Println("\nregion assignment:")
		var loops []int
		for l := range assign {
			loops = append(loops, l)
		}
		sort.Ints(loops)
		for _, l := range loops {
			fmt.Printf("  loop L%d (%.0f%% of execution) -> %s\n",
				l, 100*td.Prof.LoopShare(l), assign[l])
		}
	}

	fmt.Println("\nper-model attribution:")
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "  MODEL\tINSTS\tCYCLES")
	for i := range res.Models {
		m := &res.Models[i]
		name := m.Name
		if name == "" {
			name = "general core"
		}
		fmt.Fprintf(w, "  %s\t%d\t%d\n", name, m.Dyn, m.Cycles)
	}
	w.Flush()

	fmt.Println("\nper-region attribution:")
	report.WriteRegionTable(os.Stdout, res.Regions, core)

	if fuse {
		plan := fusion.Analyze(td, fusion.StandardRules)
		fc, _ := fusion.Evaluate(td, core, plan)
		fmt.Printf("\nfusion DSL (%s): %d cycles (%.2fx over baseline)\n",
			plan.Summary(), fc, float64(ctx.BaseCycles)/float64(fc))
	}

	// Baseline stall breakdown for reference.
	_, _, bd := cores.EvaluateWithBreakdown(core, tr)
	fmt.Println("\nbaseline critical-path breakdown:")
	for c := dg.EdgeClass(0); c < dg.NumEdgeClasses; c++ {
		if bd[c] > 0 {
			fmt.Printf("  %-14s %8d cycles (%4.1f%%)\n", c, bd[c],
				100*float64(bd[c])/float64(ctx.BaseCycles))
		}
	}
	return nil
}
