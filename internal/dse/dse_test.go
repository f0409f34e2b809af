package dse

import (
	"strings"
	"testing"

	"exocore/internal/bsa"
	"exocore/internal/cores"
	"exocore/internal/runner"
	"exocore/internal/workloads"
)

// stdEngine pins an exploration engine to the paper's original four BSAs,
// keeping the 64-design figures of the paper intact regardless of what
// else is registered. The full-registry grid has its own test below.
func stdEngine(maxDyn int) *runner.Engine {
	return runner.New(runner.Options{MaxDyn: maxDyn, BSAs: bsa.Standard()})
}

func miniExploration(t *testing.T) *Exploration {
	t.Helper()
	var ws []*workloads.Workload
	for _, name := range []string{"mm", "nbody", "cjpeg", "mcf", "gzip", "stencil"} {
		w, err := workloads.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		ws = append(ws, w)
	}
	exp, err := Explore(Options{Workloads: ws, Engine: stdEngine(25000)})
	if err != nil {
		t.Fatal(err)
	}
	return exp
}

// TestExploreGridFollowsRegistry asserts the sweep grid is 2^N subsets
// for an N-model registry: the default five-model registry yields a
// 32-subset-per-core grid with GS-DAE's letter in the full design code.
func TestExploreGridFollowsRegistry(t *testing.T) {
	w, err := workloads.ByName("mm")
	if err != nil {
		t.Fatal(err)
	}
	exp, err := Explore(Options{
		Workloads: []*workloads.Workload{w},
		Cores:     []cores.Config{cores.OOO2},
		Engine:    runner.New(runner.Options{MaxDyn: 10_000}),
	})
	if err != nil {
		t.Fatal(err)
	}
	want := 1 << bsa.Default().Len()
	if len(exp.Designs) != want {
		t.Fatalf("designs = %d, want %d (2^%d subsets)", len(exp.Designs), want, bsa.Default().Len())
	}
	full := exp.Design("OOO2-SDNTG")
	if full == nil {
		t.Fatal("no OOO2-SDNTG design in full-registry grid")
	}
	if len(full.BSAs) != bsa.Default().Len() {
		t.Errorf("full design BSAs = %v", full.BSAs)
	}
}

func TestSubsetNaming(t *testing.T) {
	reg := bsa.Default()
	cases := map[int]string{0: "", 1: "S", 2: "D", 3: "SD", 15: "SDNT", 5: "SN"}
	for mask, want := range cases {
		if got := reg.SubsetName(mask); got != want {
			t.Errorf("SubsetName(%d) = %q, want %q", mask, got, want)
		}
	}
	if DesignCodeIn(reg, cores.OOO2, 0) != "OOO2" || DesignCodeIn(reg, cores.IO2, 7) != "IO2-SDN" {
		t.Error("DesignCodeIn wrong")
	}
}

func TestExploreProduces64Designs(t *testing.T) {
	exp := miniExploration(t)
	if len(exp.Designs) != 64 {
		t.Fatalf("designs = %d, want 64", len(exp.Designs))
	}
	seen := map[string]bool{}
	for _, d := range exp.Designs {
		if seen[d.Code] {
			t.Errorf("duplicate design %s", d.Code)
		}
		seen[d.Code] = true
		if len(d.PerBench) != 6 {
			t.Errorf("%s: %d bench results, want 6", d.Code, len(d.PerBench))
		}
		if d.RelPerf <= 0 || d.RelEnergyEff <= 0 || d.AreaMM2 <= 0 {
			t.Errorf("%s: bad aggregates %+v", d.Code, d)
		}
	}
}

func TestReferenceNormalization(t *testing.T) {
	exp := miniExploration(t)
	ref := exp.Design("IO2")
	if ref == nil {
		t.Fatal("no reference design")
	}
	if ref.RelPerf != 1 || ref.RelEnergyEff != 1 || ref.RelArea != 1 {
		t.Errorf("reference not normalized to 1: %+v", ref)
	}
}

func TestPaperShapeHolds(t *testing.T) {
	exp := miniExploration(t)

	// Wider cores are faster.
	io2 := exp.Design("IO2")
	ooo6 := exp.Design("OOO6")
	if ooo6.RelPerf <= io2.RelPerf {
		t.Error("OOO6 not faster than IO2")
	}
	// Full ExoCore beats its plain core on perf and energy, per core.
	for _, core := range []string{"IO2", "OOO2", "OOO4", "OOO6"} {
		plain := exp.Design(core)
		full := exp.Design(core + "-SDNT")
		if full.RelPerf <= plain.RelPerf {
			t.Errorf("%s-SDNT (%.2f) not faster than %s (%.2f)",
				core, full.RelPerf, core, plain.RelPerf)
		}
		if full.RelEnergyEff <= plain.RelEnergyEff {
			t.Errorf("%s-SDNT (%.2f) not more efficient than %s (%.2f)",
				core, full.RelEnergyEff, core, plain.RelEnergyEff)
		}
	}
	// Area ordering: more BSAs = more area.
	if exp.Design("OOO2-SDNT").AreaMM2 <= exp.Design("OOO2").AreaMM2 {
		t.Error("BSA area not accounted")
	}
}

func TestFrontierIsPareto(t *testing.T) {
	exp := miniExploration(t)
	frontier := exp.Frontier()
	if len(frontier) == 0 {
		t.Fatal("empty frontier")
	}
	for i := 1; i < len(frontier); i++ {
		if frontier[i].RelPerf <= frontier[i-1].RelPerf {
			t.Error("frontier not ascending in performance")
		}
		if frontier[i].RelEnergyEff >= frontier[i-1].RelEnergyEff {
			t.Error("frontier must trade energy for performance")
		}
	}
	// No design dominates a frontier point.
	for _, f := range frontier {
		for _, d := range exp.Designs {
			if d.RelPerf > f.RelPerf && d.RelEnergyEff > f.RelEnergyEff {
				t.Errorf("%s dominated by %s", f.Code, d.Code)
			}
		}
	}
}

func TestRelativeTo(t *testing.T) {
	exp := miniExploration(t)
	perf, eff, err := exp.RelativeTo("OOO2-SDNT", "OOO2")
	if err != nil {
		t.Fatal(err)
	}
	if perf <= 1 || eff <= 1 {
		t.Errorf("full OOO2 ExoCore vs OOO2: perf=%.2f eff=%.2f, want > 1", perf, eff)
	}
	if _, _, err := exp.RelativeTo("nope", "OOO2"); err == nil {
		t.Error("unknown design accepted")
	}
}

func TestCategoryAggregate(t *testing.T) {
	exp := miniExploration(t)
	perfReg, _ := exp.CategoryAggregate("OOO2-SDNT", workloads.Regular)
	perfIrr, _ := exp.CategoryAggregate("OOO2-SDNT", workloads.Irregular)
	if perfReg == 0 || perfIrr == 0 {
		t.Fatal("category aggregates missing")
	}
	if perfReg <= perfIrr {
		t.Errorf("regular workloads should benefit more: reg=%.2f irr=%.2f", perfReg, perfIrr)
	}
}

func TestExploreDesignsRestriction(t *testing.T) {
	w, err := workloads.ByName("mm")
	if err != nil {
		t.Fatal(err)
	}
	ws := []*workloads.Workload{w}

	// Duplicates (including non-canonical spellings) collapse; order is
	// the request order; only the named cores are warmed/evaluated.
	exp, err := Explore(Options{Workloads: ws, Engine: stdEngine(25000),
		Designs: []string{"OOO2-SD", "IO2", "OOO2-DS", "OOO2"}})
	if err != nil {
		t.Fatal(err)
	}
	var codes []string
	for _, d := range exp.Designs {
		codes = append(codes, d.Code)
	}
	want := []string{"OOO2-SD", "IO2", "OOO2"}
	if len(codes) != len(want) {
		t.Fatalf("designs = %v, want %v", codes, want)
	}
	for i := range want {
		if codes[i] != want[i] {
			t.Fatalf("designs = %v, want %v", codes, want)
		}
	}

	// IO2 is in the list, so Rel* normalize against it and the restricted
	// results match the full grid's values for the same design points.
	full, err := Explore(Options{Workloads: ws, Engine: stdEngine(25000)})
	if err != nil {
		t.Fatal(err)
	}
	for _, code := range want {
		got, ref := exp.Design(code), full.Design(code)
		if got.RelPerf != ref.RelPerf || got.RelEnergyEff != ref.RelEnergyEff || got.AreaMM2 != ref.AreaMM2 {
			t.Errorf("%s: restricted (%v %v %v) != full grid (%v %v %v)", code,
				got.RelPerf, got.RelEnergyEff, got.AreaMM2, ref.RelPerf, ref.RelEnergyEff, ref.AreaMM2)
		}
	}

	// Without the reference design the Rel* aggregates stay zero.
	noref, err := Explore(Options{Workloads: ws, Engine: stdEngine(25000), Designs: []string{"OOO2-S"}})
	if err != nil {
		t.Fatal(err)
	}
	if d := noref.Design("OOO2-S"); d.RelPerf != 0 || d.RelEnergyEff != 0 {
		t.Errorf("Rel* computed without the reference design: %+v", d)
	}

	if _, err := Explore(Options{Workloads: ws, Engine: stdEngine(25000), Designs: []string{"OOO9-S"}}); err == nil ||
		!strings.Contains(err.Error(), `unknown core "OOO9"`) {
		t.Errorf("unknown design code: err = %v, want the unknown core named", err)
	}
}

// TestExploreRequiresEngine: the engine fixes the budget, the workers and
// the registry, so an exploration without one is an error.
func TestExploreRequiresEngine(t *testing.T) {
	if _, err := Explore(Options{Workloads: pick(t, "mm")}); err == nil {
		t.Error("Explore without an Engine accepted")
	}
}
