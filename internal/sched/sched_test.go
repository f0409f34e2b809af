package sched

import (
	"testing"

	"exocore/internal/bsa"
	"exocore/internal/cores"
	"exocore/internal/tdg"
	"exocore/internal/workloads"
)

func contextFor(t *testing.T, bench string, core cores.Config) *Context {
	t.Helper()
	w, err := workloads.ByName(bench)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := w.Trace(30000)
	if err != nil {
		t.Fatal(err)
	}
	td, err := tdg.Build(tr)
	if err != nil {
		t.Fatal(err)
	}
	ctx, err := NewContext(td, core, bsa.Standard().New(), ContextOpts{})
	if err != nil {
		t.Fatal(err)
	}
	return ctx
}

var allNames = bsa.Standard().Names()

func TestOracleImprovesEDP(t *testing.T) {
	for _, bench := range []string{"mm", "cjpeg", "nbody"} {
		ctx := contextFor(t, bench, cores.OOO2)
		assign := ctx.Oracle(allNames)
		if len(assign) == 0 {
			t.Errorf("%s: oracle assigned nothing", bench)
			continue
		}
		cycles, energy, err := ctx.Evaluate(assign)
		if err != nil {
			t.Fatal(err)
		}
		baseEDP := float64(ctx.BaseCycles) * ctx.BaseEnergyNJ
		newEDP := float64(cycles) * energy
		t.Logf("%s: assign=%v cycles %d→%d energy %.0f→%.0f",
			bench, assign, ctx.BaseCycles, cycles, ctx.BaseEnergyNJ, energy)
		if newEDP >= baseEDP {
			t.Errorf("%s: oracle worsened EDP: %.3g vs %.3g", bench, newEDP, baseEDP)
		}
	}
}

func TestOracleRespectsSubset(t *testing.T) {
	ctx := contextFor(t, "mm", cores.OOO2)
	assign := ctx.Oracle([]string{"NS-DF"})
	for _, b := range assign {
		if b != "NS-DF" {
			t.Errorf("oracle used %s outside the available subset", b)
		}
	}
	if len(ctx.Oracle(nil)) != 0 {
		t.Error("empty subset must yield empty assignment")
	}
}

func TestOracleAssignmentsDontNest(t *testing.T) {
	for _, bench := range []string{"mm", "nbody", "gsmencode"} {
		ctx := contextFor(t, bench, cores.OOO2)
		assign := ctx.Oracle(allNames)
		for a := range assign {
			for b := range assign {
				if a != b && ctx.TDG.Nest.IsAncestor(a, b) {
					t.Errorf("%s: nested assignments L%d and L%d", bench, a, b)
				}
			}
		}
	}
}

func TestOraclePerfGuard(t *testing.T) {
	// Whatever the oracle picks must not be drastically slower than base.
	for _, bench := range []string{"mcf", "parser", "gzip"} {
		ctx := contextFor(t, bench, cores.OOO4)
		assign := ctx.Oracle(allNames)
		cycles, _, err := ctx.Evaluate(assign)
		if err != nil {
			t.Fatal(err)
		}
		if float64(cycles) > 1.15*float64(ctx.BaseCycles) {
			t.Errorf("%s: oracle assignment %v slows execution %d→%d",
				bench, assign, ctx.BaseCycles, cycles)
		}
	}
}

func TestAmdahlTreeProducesValidAssignment(t *testing.T) {
	for _, bench := range []string{"cjpeg", "mm", "h264ref"} {
		ctx := contextFor(t, bench, cores.OOO2)
		assign := ctx.AmdahlTree(allNames)
		// Every assigned loop must be in the named BSA's plan.
		for l, name := range assign {
			if ctx.Plans[name].Region(l) == nil {
				t.Errorf("%s: amdahl assigned L%d to %s without a plan", bench, l, name)
			}
		}
		// Must evaluate without error.
		if _, _, err := ctx.Evaluate(assign); err != nil {
			t.Errorf("%s: %v", bench, err)
		}
	}
}

func TestAmdahlVsOracleOnMediabench(t *testing.T) {
	// §5.4: the Amdahl scheduler should land within a reasonable band of
	// the oracle (paper: 0.89× performance, biased toward energy).
	var ratios []float64
	for _, bench := range []string{"cjpeg", "djpeg", "gsmdecode", "gsmencode"} {
		ctx := contextFor(t, bench, cores.OOO2)
		oc, _, err := ctx.Evaluate(ctx.Oracle(allNames))
		if err != nil {
			t.Fatal(err)
		}
		ac, _, err := ctx.Evaluate(ctx.AmdahlTree(allNames))
		if err != nil {
			t.Fatal(err)
		}
		ratio := float64(oc) / float64(ac) // amdahl perf relative to oracle
		ratios = append(ratios, ratio)
		t.Logf("%s: oracle=%d amdahl=%d (%.2fx)", bench, oc, ac, ratio)
	}
	for _, r := range ratios {
		if r < 0.6 {
			t.Errorf("amdahl scheduler catastrophically behind oracle: %.2f", r)
		}
	}
}
