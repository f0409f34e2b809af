// Command breakdown reproduces Figure 13: for every benchmark on a full
// ExoCore (every registered BSA on the -core general core), the fraction
// of execution time and energy attributable to the general core and to
// each BSA, relative to the plain core. -sched picks the scheduler that
// assigns the regions. -json emits the shared result schema with
// per-model coverage.
package main

import (
	"fmt"
	"os"
	"strings"
	"text/tabwriter"

	"exocore/internal/cli"
	"exocore/internal/energy"
	"exocore/internal/exocore"
	"exocore/internal/report"
)

func main() {
	app := cli.New("breakdown", "all")
	regions := app.Flags().Bool("regions", false, "print the per-region attribution table per benchmark")
	app.MustParse()
	defer app.Close()
	eng := app.Engine()
	core := app.CoreConfig()

	avail := app.Registry().Names()
	bsaOrder := append([]string{""}, avail...)
	design := app.Registry().DesignCode(core.Name, avail)
	coreTable := energy.CoreTable(core.EnergyParams())

	doc := report.New("breakdown")
	var w *tabwriter.Writer
	if !app.JSON {
		fmt.Printf("# Figure 13: per-benchmark execution time and energy of the %s ExoCore\n", core.Name)
		fmt.Printf("# (fractions of the plain %s; columns are per-model shares)\n", core.Name)
		w = tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
		fmt.Fprintln(w, "BENCH\tREL TIME\tREL ENERGY\tGPP\t"+strings.Join(avail, "\t")+"\tUNACCEL")
	}

	var totalUnaccel, count float64
	type benchRegions struct {
		bench string
		rows  []exocore.RegionStat
	}
	var regionTables []benchRegions
	for _, wl := range app.Workloads() {
		td, err := eng.TDG(wl)
		if err != nil {
			app.Fail(err)
		}
		ctx, err := eng.Context(wl, core)
		if err != nil {
			app.Fail(err)
		}
		assign := ctx.Assign(app.Sched, avail)
		var res *exocore.RunResult
		if *regions {
			res, err = eng.Report(wl, core, assign)
		} else {
			// Without -regions the run skips attribution: reuse the
			// context's models and unit cache, where the scheduler already
			// evaluated most of these units.
			sp := app.Tracer().Begin("stage", "report "+wl.Name)
			res, err = exocore.Run(td, core, ctx.BSAs, ctx.Plans, assign, exocore.RunOpts{
				Cache: ctx.Cache, Span: sp, Reg: eng.Registry(),
			})
			sp.End()
		}
		if err != nil {
			app.Fail(err)
		}
		e := exocore.EnergyOf(res, core, ctx.BSAs)
		relTime := float64(res.Cycles) / float64(ctx.BaseCycles)
		relEnergy := e.TotalNJ() / ctx.BaseEnergyNJ
		totalUnaccel += res.UnacceleratedFraction()
		count++

		if app.JSON {
			coverage := make(map[string]float64, len(bsaOrder))
			energyCov := make(map[string]float64, len(bsaOrder))
			for _, name := range bsaOrder {
				label := name
				if label == "" {
					label = "GPP"
				}
				coverage[label] = float64(res.CyclesOf(name)) / float64(res.Cycles)
				energyCov["energy_frac_"+label] = energyFrac(res, &coreTable, name)
			}
			r := report.Result{
				Design: design, Core: core.Name, BSAs: avail,
				Bench: wl.Name, Category: string(wl.Category),
				Cycles: res.Cycles, EnergyNJ: e.TotalNJ(),
				Coverage: coverage,
				Extra: map[string]float64{
					"rel_time":           relTime,
					"rel_energy":         relEnergy,
					"unaccelerated_frac": res.UnacceleratedFraction(),
				},
			}
			for k, v := range energyCov {
				r.Extra[k] = v
			}
			doc.Add(r)
			if *regions {
				doc.Add(report.RegionResults(design, core.Name,
					wl.Name, res.Regions, core)...)
			}
			continue
		}
		if *regions {
			regionTables = append(regionTables, benchRegions{wl.Name, res.Regions})
		}
		fmt.Fprintf(w, "%s\t%.2f\t%.2f", wl.Name, relTime, relEnergy)
		for _, name := range bsaOrder {
			fmt.Fprintf(w, "\t%.0f%%", 100*float64(res.CyclesOf(name))/float64(res.Cycles))
		}
		fmt.Fprintf(w, "\t%.0f%%\n", 100*res.UnacceleratedFraction())
	}
	if app.JSON {
		app.Emit(doc)
		return
	}
	w.Flush()
	for _, bt := range regionTables {
		fmt.Printf("\nper-region attribution (%s):\n", bt.bench)
		report.WriteRegionTable(os.Stdout, bt.rows, core)
	}
	fmt.Printf("\naverage un-accelerated fraction: %.0f%% (paper §5: 16%% for the full OOO2 ExoCore)\n",
		100*totalUnaccel/count)
	app.Finish()
}

// energyFrac is the share of the run's dynamic energy spent in model
// name, every model's events priced on the general core's table.
func energyFrac(res *exocore.RunResult, tbl *energy.Table, name string) float64 {
	var total, part float64
	// res.Models is name-sorted, keeping the float sum bit-identical
	// across runs.
	for i := range res.Models {
		m := &res.Models[i]
		e := tbl.Evaluate(&m.Counts, 0).DynamicNJ
		total += e
		if m.Name == name {
			part = e
		}
	}
	if total == 0 {
		return 0
	}
	return part / total
}
