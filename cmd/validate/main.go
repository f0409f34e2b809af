// Command validate reproduces the paper's §2.5 validation: Table 1 (the
// summary of model errors per accelerator) and, with -scatter, the
// underlying per-benchmark reference-vs-projected pairs of Figure 5 as
// CSV suitable for plotting. -json emits the shared result schema with
// one row per (accelerator, benchmark, metric) plus per-line summaries.
// The unified -trace/-v/-vv observability flags record engine spans and
// progress.
package main

import (
	"fmt"
	"os"
	"text/tabwriter"

	"exocore/internal/cli"
	"exocore/internal/report"
	"exocore/internal/validate"
)

func main() {
	app := cli.New("validate", "all")
	scatter := app.Flags().Bool("scatter", false, "emit Figure 5 scatter data as CSV")
	app.MustParse()
	defer app.Close()

	reports, err := validate.Table1(app.Engine())
	if err != nil {
		app.Fail(err)
	}

	if app.JSON {
		doc := report.New("validate")
		for _, r := range reports {
			for i := range r.Perf {
				doc.Add(report.Result{
					Design: r.Accel, Bench: r.Perf[i].Bench,
					Params: map[string]string{"accel": r.Accel, "base": r.Base, "metric": "perf"},
					Extra: map[string]float64{
						"reference": r.Perf[i].Reference,
						"projected": r.Perf[i].Projected,
						"rel_err":   r.Perf[i].Err(),
					},
				})
				doc.Add(report.Result{
					Design: r.Accel, Bench: r.Energy[i].Bench,
					Params: map[string]string{"accel": r.Accel, "base": r.Base, "metric": "energy"},
					Extra: map[string]float64{
						"reference": r.Energy[i].Reference,
						"projected": r.Energy[i].Projected,
						"rel_err":   r.Energy[i].Err(),
					},
				})
			}
			doc.Add(report.Result{
				Design: r.Accel,
				Params: map[string]string{"accel": r.Accel, "base": r.Base, "aggregate": "mean_abs_err"},
				Extra: map[string]float64{
					"perf_err":   r.PerfErr(),
					"energy_err": r.EnergyErr(),
				},
			})
		}
		app.Emit(doc)
		return
	}

	if *scatter {
		fmt.Println("accel,benchmark,metric,reference,projected")
		for _, r := range reports {
			for i := range r.Perf {
				fmt.Printf("%s,%s,perf,%.4f,%.4f\n",
					r.Accel, r.Perf[i].Bench, r.Perf[i].Reference, r.Perf[i].Projected)
				fmt.Printf("%s,%s,energy,%.4f,%.4f\n",
					r.Accel, r.Energy[i].Bench, r.Energy[i].Reference, r.Energy[i].Projected)
			}
		}
		return
	}

	fmt.Println("Table 1: Validation Results (P: Perf, E: Energy)")
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "ACCEL\tBASE\tP ERR\tP RANGE\tE ERR\tE RANGE")
	for _, r := range reports {
		pl, ph, el, eh := r.Ranges()
		fmt.Fprintf(w, "%s\t%s\t%.0f%%\t%.2f-%.2f\t%.0f%%\t%.2f-%.2f\n",
			r.Accel, r.Base, 100*r.PerfErr(), pl, ph, 100*r.EnergyErr(), el, eh)
	}
	w.Flush()
	fmt.Println("\n(OOO rows: reference = independent cycle-level simulator;")
	fmt.Println(" accelerator rows: reference = digitized published results — see EXPERIMENTS.md)")
	app.Finish()
}
