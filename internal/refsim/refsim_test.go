package refsim

import (
	"testing"

	"exocore/internal/cores"
	"exocore/internal/workloads"
)

func TestIPCWithinWidth(t *testing.T) {
	for _, name := range []string{"mm", "mcf", "stencil", "gzip"} {
		w, _ := workloads.ByName(name)
		tr, err := w.Trace(20000)
		if err != nil {
			t.Fatal(err)
		}
		for _, cfg := range cores.Configs {
			ipc := float64(tr.Len()) / float64(Simulate(cfg, tr))
			if ipc <= 0 || ipc > float64(cfg.Width) {
				t.Errorf("%s on %s: IPC %.2f out of range", name, cfg.Name, ipc)
			}
		}
	}
}

func TestWiderIsFaster(t *testing.T) {
	w, _ := workloads.ByName("nbody")
	tr, err := w.Trace(20000)
	if err != nil {
		t.Fatal(err)
	}
	c2 := Simulate(cores.OOO2, tr)
	c6 := Simulate(cores.OOO6, tr)
	if c6 >= c2 {
		t.Errorf("OOO6 (%d) not faster than OOO2 (%d)", c6, c2)
	}
}

func TestAgreesWithGraphModel(t *testing.T) {
	// The cross-validation experiment in miniature: the independent
	// cycle-level simulator and the µDG model must agree within the
	// paper's error band on relative terms.
	benches := []string{"mm", "stencil", "mcf", "gzip", "conv", "treesearch"}
	for _, cfg := range []cores.Config{cores.OOO2, cores.OOO6} {
		for _, name := range benches {
			w, _ := workloads.ByName(name)
			tr, err := w.Trace(20000)
			if err != nil {
				t.Fatal(err)
			}
			ref := Simulate(cfg, tr)
			dgc, _ := cores.Evaluate(cfg, tr)
			ratio := float64(dgc) / float64(ref)
			t.Logf("%s on %s: refsim=%d µDG=%d (ratio %.2f)", name, cfg.Name, ref, dgc, ratio)
			if ratio < 0.6 || ratio > 1.6 {
				t.Errorf("%s on %s: models disagree wildly: %.2f", name, cfg.Name, ratio)
			}
		}
	}
}

func TestNoDeadlock(t *testing.T) {
	for _, name := range []string{"needle", "bzip2", "tpch2"} {
		w, _ := workloads.ByName(name)
		tr, err := w.Trace(15000)
		if err != nil {
			t.Fatal(err)
		}
		for _, cfg := range cores.Configs {
			c := Simulate(cfg, tr)
			if c >= int64(tr.Len())*300 {
				t.Errorf("%s on %s hit the deadlock fail-safe", name, cfg.Name)
			}
		}
	}
}

func TestEmptyTrace(t *testing.T) {
	w, _ := workloads.ByName("mm")
	tr, err := w.Trace(1000)
	if err != nil {
		t.Fatal(err)
	}
	tr.Insts = tr.Insts[:0]
	if Simulate(cores.OOO2, tr) != 0 {
		t.Error("empty trace should take 0 cycles")
	}
}
