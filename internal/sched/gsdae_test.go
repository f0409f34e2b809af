package sched

import (
	"testing"

	"exocore/internal/bsa"
	"exocore/internal/cores"
	"exocore/internal/tdg"
	"exocore/internal/workloads"
)

// fullContextFor is contextFor over the full default registry, GS-DAE
// included.
func fullContextFor(t *testing.T, bench string, core cores.Config) *Context {
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
	ctx, err := NewContext(td, core, bsa.Default().New(), ContextOpts{})
	if err != nil {
		t.Fatal(err)
	}
	return ctx
}

// TestGraphRegionsPreferGSDAE is the behavior-specialization check for
// the decoupled gather-scatter engine: with every model available, the
// measurement-driven Oracle must hand at least one region of each
// index-chasing graph kernel to GS-DAE, and must never pick it for a
// dense, strided, SPEC-like kernel — where the engine either abstains
// (no gathers to decouple) or loses to the paper's four.
func TestGraphRegionsPreferGSDAE(t *testing.T) {
	names := bsa.Default().Names()
	for _, bench := range []string{"bfs", "tricount"} {
		ctx := fullContextFor(t, bench, cores.OOO2)
		assign := ctx.Oracle(names)
		won := false
		for _, b := range assign {
			if b == "GS-DAE" {
				won = true
			}
		}
		t.Logf("%s: oracle=%v", bench, assign)
		if !won {
			t.Errorf("%s: oracle never chose GS-DAE: %v", bench, assign)
		}
	}
	for _, bench := range []string{"mm", "stencil", "nbody"} {
		ctx := fullContextFor(t, bench, cores.OOO2)
		assign := ctx.Oracle(names)
		for l, b := range assign {
			if b == "GS-DAE" {
				t.Errorf("%s: GS-DAE won regular region L%d — it must lose on dense kernels", bench, l)
			}
		}
	}
}

// TestAmdahlSelectsGSDAEOnGraph pins the same preference for the
// heuristic scheduler: the estimate-driven Amdahl tree must also route
// at least one graph region to GS-DAE, or the §5.4 comparison would
// never exercise the new engine.
func TestAmdahlSelectsGSDAEOnGraph(t *testing.T) {
	names := bsa.Default().Names()
	won := false
	for _, bench := range []string{"bfs", "pagerank", "tricount"} {
		ctx := fullContextFor(t, bench, cores.OOO2)
		assign := ctx.AmdahlTree(names)
		t.Logf("%s: amdahl=%v", bench, assign)
		for _, b := range assign {
			if b == "GS-DAE" {
				won = true
			}
		}
	}
	if !won {
		t.Error("amdahl-tree never chose GS-DAE on any graph kernel")
	}
}
