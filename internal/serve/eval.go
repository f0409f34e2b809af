// Evaluation request shapes and the document builders behind them.
//
// EvaluateDocument is the single implementation of "evaluate a
// bench/core/BSA-set/scheduler query into the versioned result schema":
// cmd/tdgsim's -json mode and the daemon's /v1/evaluate endpoint both
// call it, which is what makes their documents byte-identical for the
// same inputs (modulo the tool header and run-local metrics). Sweeps go
// through dse.ExploreCtx + Exploration.AppendTo the same way.
package serve

import (
	"context"
	"fmt"
	"strings"

	"exocore/internal/cli"
	"exocore/internal/cores"
	"exocore/internal/dse"
	"exocore/internal/exocore"
	"exocore/internal/obs"
	"exocore/internal/report"
	"exocore/internal/runner"
	"exocore/internal/sched"
	"exocore/internal/workloads"
)

// EvalRequest is the body of POST /v1/evaluate. Bench/BSAs accept the
// same specs as the unified CLI flags (-bench / -bsas).
type EvalRequest struct {
	Bench string `json:"bench"`           // "all" | "quick" | comma-separated names
	Core  string `json:"core,omitempty"`  // general core; default cores.Default
	BSAs  string `json:"bsas,omitempty"`  // "all" | "none" | comma list; default all
	Sched string `json:"sched,omitempty"` // a scheduler name (sched.Names); default "oracle"
	// MaxDyn, when non-zero, must match the daemon's per-benchmark
	// budget: the warm engine serves exactly one budget (it is part of
	// every cache key), so a mismatch is a 400, not a silent re-run.
	MaxDyn int `json:"maxdyn,omitempty"`
	// DeadlineMS, when non-zero, lowers this request's deadline below
	// the server default.
	DeadlineMS int `json:"deadline_ms,omitempty"`
}

// SweepRequest is the body of POST /v1/sweep.
type SweepRequest struct {
	Bench string `json:"bench,omitempty"` // benchmark spec; default "all"
	Sched string `json:"sched,omitempty"` // a scheduler name (sched.Names); default "oracle"
	// Designs restricts the sweep to a design-code list (eg.
	// ["IO2","OOO2-SDN"]); empty sweeps the full grid of every core and
	// every subset of the engine's registry.
	Designs []string `json:"designs,omitempty"`
	// Async makes the POST return 202 with a result id immediately; the
	// document is fetched from /resultz/{id} when the sweep finishes.
	Async bool `json:"async,omitempty"`
	// Partial returns only the per-(design, benchmark) observation rows,
	// omitting the per-design aggregate rows (Rel* are normalized against
	// the whole grid, which one shard of a fabric sweep cannot see). The
	// fabric coordinator sets this on every shard it dispatches and
	// recomputes the aggregates itself.
	Partial    bool `json:"partial,omitempty"`
	MaxDyn     int  `json:"maxdyn,omitempty"`
	DeadlineMS int  `json:"deadline_ms,omitempty"`
}

// evalQuery is a validated EvalRequest: specs resolved against the
// workload/core/BSA registries.
type evalQuery struct {
	wls   []*workloads.Workload
	core  cores.Config
	bsas  []string
	sched string
}

// checkMaxDyn rejects a request budget that differs from the engine's.
func checkMaxDyn(req int, eng *runner.Engine) error {
	if req != 0 && req != eng.MaxDyn() {
		return fmt.Errorf("maxdyn %d not served: this daemon's engine is warmed for maxdyn=%d (restart with -maxdyn to change)", req, eng.MaxDyn())
	}
	return nil
}

// resolveEval validates an EvalRequest against the registries.
func resolveEval(req EvalRequest, eng *runner.Engine) (evalQuery, error) {
	var q evalQuery
	if req.Bench == "" {
		return q, fmt.Errorf("missing required field %q", "bench")
	}
	wls, err := cli.ResolveBenchSpec(req.Bench)
	if err != nil {
		return q, err
	}
	coreName := req.Core
	if coreName == "" {
		coreName = cores.Default.Name
	}
	core, ok := cores.ConfigByName(coreName)
	if !ok {
		return q, fmt.Errorf("unknown core %q (have IO2, OOO2, OOO4, OOO6)", coreName)
	}
	bsaSpec := req.BSAs
	if bsaSpec == "" {
		bsaSpec = "all"
	}
	// Resolve against the engine's registry, not the compiled-in default:
	// a daemon started with a restricted -bsas set must reject names it
	// cannot evaluate, with the allowed list in the error.
	bsas, err := cli.ResolveBSASpecWith(eng.BSAs(), bsaSpec)
	if err != nil {
		return q, err
	}
	name, err := sched.Resolve(req.Sched)
	if err != nil {
		return q, err
	}
	if err := checkMaxDyn(req.MaxDyn, eng); err != nil {
		return q, err
	}
	q = evalQuery{wls: wls, core: core, bsas: bsas, sched: name}
	return q, nil
}

// key renders the canonical coalescing key of the query: resolved
// benchmark list, core, BSA subset and scheduler — the dimensions that
// determine the (bench, core, assignment) evaluations behind it.
func (q evalQuery) key() string {
	names := make([]string, len(q.wls))
	for i, w := range q.wls {
		names[i] = w.Name
	}
	return "eval|" + strings.Join(names, ",") + "|" + q.core.Name + "|" +
		strings.Join(q.bsas, ",") + "|" + q.sched
}

// sweepQuery is a validated SweepRequest.
type sweepQuery struct {
	wls     []*workloads.Workload
	designs []string
	sched   string
	partial bool
}

func resolveSweep(req SweepRequest, eng *runner.Engine) (sweepQuery, error) {
	var q sweepQuery
	spec := req.Bench
	if spec == "" {
		spec = "all"
	}
	wls, err := cli.ResolveBenchSpec(spec)
	if err != nil {
		return q, err
	}
	for _, code := range req.Designs {
		if _, _, err := dse.ParseDesignCodeIn(eng.BSAs(), code); err != nil {
			return q, err
		}
	}
	name, err := sched.Resolve(req.Sched)
	if err != nil {
		return q, err
	}
	if err := checkMaxDyn(req.MaxDyn, eng); err != nil {
		return q, err
	}
	q = sweepQuery{wls: wls, designs: req.Designs, sched: name, partial: req.Partial}
	return q, nil
}

func (q sweepQuery) key() string {
	names := make([]string, len(q.wls))
	for i, w := range q.wls {
		names[i] = w.Name
	}
	k := "sweep|" + strings.Join(names, ",") + "|" +
		strings.Join(q.designs, ",") + "|" + q.sched
	if q.partial {
		k += "|partial"
	}
	return k
}

// EvaluateDocument evaluates each workload on one design point and
// returns the result document cmd/tdgsim emits under -json (without the
// engine-metrics attachment): one row per benchmark with cycles, energy,
// per-BSA coverage and baseline-relative extras, plus per-region
// attribution rows. All pipeline stages run through the shared engine;
// ctx cancels cleanly at stage boundaries. The attributed run is the
// engine's report stage (runner.Engine.ReportCtx), memoized by (bench,
// core, assignment): a repeated request, or one whose BSA set schedules
// to an assignment already reported, reads it from that memo and only
// renders.
//
// tracer is unused: the report stage records its spans on the engine's
// own tracer. The parameter stays until the benchmark harness in
// perfbench/, which calls this signature, changes with it.
func EvaluateDocument(ctx context.Context, eng *runner.Engine, tool string,
	wls []*workloads.Workload, core cores.Config, bsas []string, sched string,
	tracer *obs.Tracer) (*report.Document, error) {

	doc := report.New(tool)
	for _, wl := range wls {
		td, err := eng.TDGCtx(ctx, wl)
		if err != nil {
			return nil, err
		}
		sc, err := eng.ContextCtx(ctx, wl, core)
		if err != nil {
			return nil, err
		}
		assign := sc.Assign(sched, bsas)
		res, err := eng.ReportCtx(ctx, wl, core, assign)
		if err != nil {
			return nil, err
		}
		e := exocore.EnergyOf(res, core, sc.BSAs)

		coverage := make(map[string]float64, len(res.Models))
		for i := range res.Models {
			m := &res.Models[i]
			label := m.Name
			if label == "" {
				label = "GPP"
			}
			coverage[label] = float64(m.Cycles) / float64(res.Cycles)
		}
		design := eng.BSAs().DesignCode(core.Name, bsas)
		doc.Add(report.Result{
			Design: design, Core: core.Name,
			BSAs: bsas, Bench: wl.Name, Category: string(wl.Category),
			Cycles: res.Cycles, EnergyNJ: e.TotalNJ(),
			Coverage: coverage,
			Params:   map[string]string{"sched": sched},
			Extra: map[string]float64{
				"baseline_cycles":      float64(sc.BaseCycles),
				"baseline_energy_nj":   sc.BaseEnergyNJ,
				"speedup":              float64(sc.BaseCycles) / float64(res.Cycles),
				"energy_eff":           sc.BaseEnergyNJ / e.TotalNJ(),
				"avg_power_w":          e.AvgPowerW(),
				"unaccelerated_frac":   res.UnacceleratedFraction(),
				"dynamic_instructions": float64(td.Trace.Len()),
			},
		})
		doc.Add(report.RegionResults(design, core.Name, wl.Name, res.Regions, core)...)
	}
	return doc, nil
}

// SweepDocument runs a (possibly design-restricted) DSE sweep on the
// shared engine and returns the document cmd/dse emits under -json
// (without the engine-metrics attachment). With partial set, only the
// per-(design, benchmark) observation rows are emitted — the shard
// payload of a fabric sweep, whose aggregates the coordinator
// recomputes over the full grid. A partial sweep first caches its
// benches' traces, so the exploration finds them resident and keeps
// them: the fabric sends every shard of a (bench, core) to the same
// replica, which serves the bench's later shards from its memos. A full
// sweep leaves a bench it found cold cold again (see dse.ExploreCtx).
func SweepDocument(ctx context.Context, eng *runner.Engine, tool string,
	wls []*workloads.Workload, designs []string, sched string, partial bool) (*report.Document, error) {

	if partial {
		if err := eng.ForEachCtx(ctx, len(wls), func(i int) error {
			_, err := eng.TraceCtx(ctx, wls[i])
			return err
		}); err != nil {
			return nil, err
		}
	}
	exp, err := dse.ExploreCtx(ctx, dse.Options{
		Workloads: wls,
		Sched:     sched,
		Engine:    eng,
		Designs:   designs,
	})
	if err != nil {
		return nil, err
	}
	doc := report.New(tool)
	if partial {
		exp.AppendPerBench(doc)
	} else {
		exp.AppendTo(doc)
	}
	return doc, nil
}
