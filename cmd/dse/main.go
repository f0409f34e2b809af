// Command dse runs the paper's §5 design-space exploration over
// 4 cores × every subset of the registered BSAs (64 designs for the
// paper's four models, 128 with GS-DAE registered; -bsas restricts the
// registry) and reports:
//
//	-frontier      Figure 3/10: per-design relative performance/energy
//	               (series per BSA subset, points per core) + the Pareto
//	               frontier
//	-characterize  Figure 12: speedup, energy efficiency and area of all
//	               64 designs relative to IO2, sorted by performance
//	-headline      the §1/§5 headline claims (OOO2-ExoCore vs OOO6 etc.)
//
// It accepts the unified flag set (-bench, -sched, -maxdyn, -workers,
// -json, -v); -json emits every design point in the shared result schema.
package main

import (
	"fmt"
	"os"
	"sort"
	"text/tabwriter"

	"exocore/internal/cli"
	"exocore/internal/dse"
	"exocore/internal/report"
)

func main() {
	app := cli.New("dse", "all")
	frontier := app.Flags().Bool("frontier", false, "emit Figure 3/10 data")
	characterize := app.Flags().Bool("characterize", false, "emit Figure 12 data")
	headline := app.Flags().Bool("headline", false, "evaluate the headline claims")
	regionsFor := app.Flags().String("regions", "", "also report per-region attribution for one design code (eg. OOO2-SDNT)")
	app.MustParse()
	defer app.Close()

	if !*frontier && !*characterize && !*headline {
		*frontier, *characterize, *headline = true, true, true
	}

	exp, err := dse.Explore(dse.Options{
		Workloads: app.Workloads(),
		Sched:     app.Sched,
		Engine:    app.Engine(),
	})
	if err != nil {
		app.Fail(err)
	}

	if app.JSON {
		doc := report.New("dse")
		exp.AppendTo(doc)
		if *regionsFor != "" {
			if err := reportRegions(app, *regionsFor, doc); err != nil {
				app.Fail(err)
			}
		}
		app.Emit(doc)
		return
	}

	if *frontier {
		printFrontier(exp)
	}
	if *characterize {
		printCharacterization(exp)
	}
	if *headline {
		printHeadline(exp)
	}
	if *regionsFor != "" {
		if err := reportRegions(app, *regionsFor, nil); err != nil {
			app.Fail(err)
		}
	}
	app.Finish()
}

// reportRegions runs one design over every benchmark through the
// engine's report stage (per-region attribution on, served almost
// entirely from the unit outcomes the exploration already cached) and
// either prints the paper style breakdown tables (doc == nil) or
// appends schema rows.
func reportRegions(app *cli.App, code string, doc *report.Document) error {
	eng := app.Engine()
	core, mask, err := dse.ParseDesignCodeIn(eng.BSAs(), code)
	if err != nil {
		return err
	}
	avail := eng.BSAs().SubsetNames(mask)
	for _, wl := range app.Workloads() {
		sc, err := eng.Context(wl, core)
		if err != nil {
			return err
		}
		res, err := eng.Report(wl, core, sc.Assign(app.Sched, avail))
		if err != nil {
			return err
		}
		if doc != nil {
			doc.Add(report.RegionResults(code, core.Name, wl.Name, res.Regions, core)...)
			continue
		}
		fmt.Printf("\n# per-region attribution of %s on %s\n", code, wl.Name)
		report.WriteRegionTable(os.Stdout, res.Regions, core)
	}
	return nil
}

// byPerf sorts designs by relative performance with a deterministic
// design-code tiebreak, so output is byte-stable across runs.
func byPerf(designs []dse.DesignResult, descending bool) []dse.DesignResult {
	sorted := append([]dse.DesignResult(nil), designs...)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].RelPerf != sorted[j].RelPerf {
			if descending {
				return sorted[i].RelPerf > sorted[j].RelPerf
			}
			return sorted[i].RelPerf < sorted[j].RelPerf
		}
		return sorted[i].Code < sorted[j].Code
	})
	return sorted
}

func printFrontier(exp *dse.Exploration) {
	fmt.Println("# Figure 10: relative performance and energy efficiency vs IO2")
	fmt.Println("design,relperf,releneff,area_mm2")
	for _, d := range byPerf(exp.Designs, false) {
		fmt.Printf("%s,%.3f,%.3f,%.2f\n", d.Code, d.RelPerf, d.RelEnergyEff, d.AreaMM2)
	}
	fmt.Println("\n# Pareto frontier (Figure 3):")
	for _, d := range exp.Frontier() {
		fmt.Printf("#   %-12s perf=%.2fx  eneff=%.2fx  area=%.1fmm²\n",
			d.Code, d.RelPerf, d.RelEnergyEff, d.AreaMM2)
	}
}

func printCharacterization(exp *dse.Exploration) {
	fmt.Println("\n# Figure 12: design-space characterization (relative to IO2)")
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "DESIGN\tSPEEDUP\tENERGY EFF\tAREA")
	for _, d := range byPerf(exp.Designs, true) {
		fmt.Fprintf(w, "%s\t%.2f\t%.2f\t%.2f\n", d.Code, d.RelPerf, d.RelEnergyEff, d.RelArea)
	}
	w.Flush()
}

func printHeadline(exp *dse.Exploration) {
	fmt.Println("\n# Headline claims (§1, §5)")
	show := func(label, a, b string) {
		perf, eff, err := exp.RelativeTo(a, b)
		if err != nil {
			fmt.Println("  ", label, "error:", err)
			return
		}
		da, db := exp.Design(a), exp.Design(b)
		fmt.Printf("  %-34s perf %.2fx  energy-eff %.2fx  area %.0f%%\n",
			label, perf, eff, 100*da.AreaMM2/db.AreaMM2)
	}
	show("OOO2-SDNT vs OOO2:", "OOO2-SDNT", "OOO2")
	show("OOO6-SDNT vs OOO6:", "OOO6-SDNT", "OOO6")
	show("OOO2-SDN  vs OOO6-S (paper: ≈perf, 2.6x en, 60% area):", "OOO2-SDN", "OOO6-S")
	show("IO2-SDNT  vs OOO2-S:", "IO2-SDNT", "OOO2-S")

	fmt.Println("\n  designs matching OOO6-S performance with less area:")
	base := exp.Design("OOO6-S")
	for _, d := range exp.Designs {
		if d.Code == "OOO6-S" || d.AreaMM2 >= base.AreaMM2 {
			continue
		}
		perf, eff, _ := exp.RelativeTo(d.Code, "OOO6-S")
		if perf >= 1.0 {
			fmt.Printf("    %-12s perf %.2fx  en-eff %.2fx  area %.0f%%\n",
				d.Code, perf, eff, 100*d.AreaMM2/base.AreaMM2)
		}
	}
	fmt.Println()
}
