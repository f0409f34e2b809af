// Command switching reproduces Figure 14: the dynamic accelerator-
// switching behavior of a full ExoCore over program execution. For each
// requested benchmark it emits the segment timeline — which model ran,
// from which cycle to which cycle, and the local speedup of that window
// over the plain core — demonstrating fine-grain affinity. -json emits
// one schema row per segment.
package main

import (
	"fmt"

	"exocore/internal/cli"
	"exocore/internal/exocore"
	"exocore/internal/report"
	"exocore/internal/workloads"
)

func main() {
	// The paper uses djpeg and 464.h264ref for Figure 14.
	app := cli.New("switching", "djpeg,h264ref")
	app.MustParse()
	defer app.Close()

	doc := report.New("switching")
	if !app.JSON {
		fmt.Println("benchmark,model,start_cycle,end_cycle,dyn_insts,local_speedup")
	}
	for _, wl := range app.Workloads() {
		if err := emit(app, doc, wl); err != nil {
			app.Fail(err)
		}
	}
	if app.JSON {
		app.Emit(doc)
		return
	}
	app.Finish()
}

func emit(app *cli.App, doc *report.Document, wl *workloads.Workload) error {
	eng := app.Engine()
	core := app.CoreConfig()
	td, err := eng.TDG(wl)
	if err != nil {
		return err
	}
	ctx, err := eng.Context(wl, core)
	if err != nil {
		return err
	}
	avail := app.Registry().Names()
	assign := ctx.Assign(app.Sched, avail)
	// Reuse the context's models and unit cache; the timeline composes
	// from the same memoized unit outcomes the scheduler measured.
	sp := app.Tracer().Begin("stage", "timeline "+wl.Name)
	res, err := exocore.Run(td, core, ctx.BSAs, ctx.Plans, assign,
		exocore.RunOpts{RecordSegments: true, Cache: ctx.Cache, Span: sp, Reg: eng.Registry()})
	sp.End()
	if err != nil {
		return err
	}

	// Baseline cycles-per-instruction, to express each segment's local
	// speedup over the plain core (Figure 14's y-axis).
	baseCPI := float64(ctx.BaseCycles) / float64(td.Trace.Len())
	for _, s := range res.Segments {
		model := s.BSA
		if model == "" {
			model = "Gen. Core"
		}
		dur := float64(s.EndCycle - s.StartCycle)
		if dur <= 0 {
			dur = 1
		}
		local := baseCPI * float64(s.Dyn) / dur
		if app.JSON {
			doc.Add(report.Result{
				Design: app.Registry().DesignCode(core.Name, avail), Core: core.Name, Bench: wl.Name,
				Params: map[string]string{"model": model},
				Extra: map[string]float64{
					"start_cycle":   float64(s.StartCycle),
					"end_cycle":     float64(s.EndCycle),
					"dyn_insts":     float64(s.Dyn),
					"local_speedup": local,
				},
			})
			continue
		}
		fmt.Printf("%s,%s,%d,%d,%d,%.2f\n", wl.Name, model, s.StartCycle, s.EndCycle, s.Dyn, local)
	}
	return nil
}
