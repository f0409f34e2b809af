package area

import (
	"testing"

	"exocore/internal/bsa"
	"exocore/internal/cores"
	"exocore/internal/tdg"
)

// twoModels instantiates SIMD and NS-DF through the registry.
func twoModels(t *testing.T) (tdg.BSA, tdg.BSA) {
	t.Helper()
	s, err := bsa.Default().NewOne("SIMD")
	if err != nil {
		t.Fatal(err)
	}
	n, err := bsa.Default().NewOne("NS-DF")
	if err != nil {
		t.Fatal(err)
	}
	return s, n
}

func TestTotalSumsComponents(t *testing.T) {
	s, n := twoModels(t)
	got := Total(cores.OOO2, []tdg.BSA{s, n})
	want := cores.OOO2.AreaMM2 + s.AreaMM2() + n.AreaMM2()
	if got != want {
		t.Errorf("Total = %v, want %v", got, want)
	}
	if Total(cores.IO2, nil) != cores.IO2.AreaMM2 {
		t.Error("bare core area wrong")
	}
}

func TestCoreAreaOrdering(t *testing.T) {
	// The paper's area story requires strictly increasing core areas.
	prev := 0.0
	for _, c := range cores.Configs {
		if c.AreaMM2 <= prev {
			t.Errorf("%s area %v not greater than previous %v", c.Name, c.AreaMM2, prev)
		}
		prev = c.AreaMM2
	}
	// And the headline: OOO2 + three BSAs must be well under OOO6+SIMD.
	s, n := twoModels(t)
	small := Total(cores.OOO2, []tdg.BSA{s, n})
	big := Total(cores.OOO6, []tdg.BSA{s})
	if small/big > 0.65 {
		t.Errorf("OOO2-ExoCore area fraction %.2f, want well under OOO6-S", small/big)
	}
}
