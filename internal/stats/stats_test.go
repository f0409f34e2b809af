package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestGeomean(t *testing.T) {
	if g := Geomean([]float64{2, 8}); g != 4 {
		t.Errorf("Geomean(2,8) = %v, want 4", g)
	}
	if g := Geomean([]float64{5}); g != 5 {
		t.Errorf("Geomean(5) = %v", g)
	}
	if g := Geomean(nil); g != 0 {
		t.Errorf("Geomean(nil) = %v, want 0", g)
	}
}

func TestGeomeanPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Geomean([]float64{1, 0})
}

func TestGeomeanScaleInvariance(t *testing.T) {
	f := func(a, b, c uint16) bool {
		xs := []float64{float64(a) + 1, float64(b) + 1, float64(c) + 1}
		g1 := Geomean(xs)
		scaled := []float64{xs[0] * 3, xs[1] * 3, xs[2] * 3}
		g2 := Geomean(scaled)
		return math.Abs(g2-3*g1) < 1e-9*g2
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMeanAbsErr(t *testing.T) {
	got := []float64{1.1, 0.9}
	want := []float64{1.0, 1.0}
	if e := MeanAbsErr(got, want); math.Abs(e-0.1) > 1e-12 {
		t.Errorf("MeanAbsErr = %v, want 0.1", e)
	}
	if !math.IsNaN(MeanAbsErr([]float64{1}, []float64{1, 2})) {
		t.Error("mismatched lengths must yield NaN")
	}
}

func TestMinMax(t *testing.T) {
	lo, hi := MinMax([]float64{3, 1, 2})
	if lo != 1 || hi != 3 {
		t.Errorf("MinMax = %v, %v", lo, hi)
	}
	if lo, hi := MinMax(nil); lo != 0 || hi != 0 {
		t.Errorf("MinMax(nil) = %v, %v", lo, hi)
	}
}
