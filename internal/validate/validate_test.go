package validate

import (
	"testing"

	"exocore/internal/runner"
)

// engine returns a fresh evaluation engine at a per-benchmark budget.
func engine(maxDyn int) *runner.Engine {
	return runner.New(runner.Options{MaxDyn: maxDyn})
}

func TestCrossValidationWithinBand(t *testing.T) {
	reps, err := CrossValidate(engine(20000))
	if err != nil {
		t.Fatal(err)
	}
	if len(reps) != 2 {
		t.Fatalf("want 2 cross-validation reports, got %d", len(reps))
	}
	for _, r := range reps {
		if r.PerfErr() > 0.05 {
			t.Errorf("%s: perf error %.1f%% exceeds the paper's ~4%% band",
				r.Accel, 100*r.PerfErr())
		}
		if r.EnergyErr() > 0.05 {
			t.Errorf("%s: energy error %.1f%% exceeds band", r.Accel, 100*r.EnergyErr())
		}
		if len(r.Perf) < 10 {
			t.Errorf("%s: only %d benchmarks", r.Accel, len(r.Perf))
		}
	}
}

func TestBSAValidationWithinBand(t *testing.T) {
	// The paper's Table 1 reports ≤15% mean error per accelerator; allow
	// modest headroom for trace-length sensitivity.
	eng := engine(20000)
	for _, accel := range []string{"C-Cores", "BERET", "SIMD", "DySER"} {
		rep, err := ValidateBSA(eng, accel)
		if err != nil {
			t.Fatal(err)
		}
		if rep.PerfErr() > 0.20 {
			t.Errorf("%s: perf error %.1f%% > 20%%", accel, 100*rep.PerfErr())
		}
		if rep.EnergyErr() > 0.20 {
			t.Errorf("%s: energy error %.1f%% > 20%%", accel, 100*rep.EnergyErr())
		}
	}
}

func TestValidationRangesMatchPublications(t *testing.T) {
	rep, err := ValidateBSA(engine(15000), "DySER")
	if err != nil {
		t.Fatal(err)
	}
	pl, ph, el, eh := rep.Ranges()
	if pl < 0.8 || ph > 5.8 {
		t.Errorf("DySER reference range %.2f-%.2f outside published 0.8-5.8", pl, ph)
	}
	if el < 0.25 || eh > 1.28 {
		t.Errorf("DySER energy range %.2f-%.2f outside published", el, eh)
	}
}

func TestProjectionsStayInPlausibleBands(t *testing.T) {
	// No projected speedup should exceed the most optimistic published
	// result for its accelerator class.
	limits := map[string]float64{"C-Cores": 1.6, "BERET": 1.5, "SIMD": 4.4, "DySER": 6.5}
	eng := engine(15000)
	for accel, lim := range limits {
		rep, err := ValidateBSA(eng, accel)
		if err != nil {
			t.Fatal(err)
		}
		for _, row := range rep.Perf {
			if row.Projected > lim {
				t.Errorf("%s on %s: projected %.2fx exceeds plausible %.1fx",
					accel, row.Bench, row.Projected, lim)
			}
			if row.Projected < 0.3 {
				t.Errorf("%s on %s: projected %.2fx implausibly low", accel, row.Bench, row.Projected)
			}
		}
	}
}

func TestUnknownAccelerator(t *testing.T) {
	if _, err := ValidateBSA(engine(1000), "NPU"); err == nil {
		t.Error("unknown accelerator accepted")
	}
}

func TestRowErr(t *testing.T) {
	if e := (Row{Reference: 2, Projected: 1}).Err(); e != 0.5 {
		t.Errorf("Err = %v, want 0.5", e)
	}
	if e := (Row{Reference: 2, Projected: 3}).Err(); e != 0.5 {
		t.Errorf("Err = %v, want 0.5", e)
	}
	if e := (Row{Reference: 0, Projected: 3}).Err(); e != 0 {
		t.Errorf("Err with zero reference = %v, want 0", e)
	}
}
