package workloads

import (
	"testing"

	"exocore/internal/ir"
	"exocore/internal/tdg"
)

func TestRegistryComplete(t *testing.T) {
	all := All()
	if len(all) < 40 {
		t.Fatalf("only %d workloads registered, paper uses 40+", len(all))
	}
	suites := map[string]int{}
	categories := map[Category]int{}
	for _, w := range all {
		suites[w.Suite]++
		categories[w.Category]++
	}
	for _, s := range []string{"TPT", "Parboil", "SPECfp", "Mediabench", "TPCH", "SPECint"} {
		if suites[s] == 0 {
			t.Errorf("suite %s has no workloads", s)
		}
	}
	if categories[Regular] == 0 || categories[SemiRegular] == 0 || categories[Irregular] == 0 {
		t.Error("every category must be populated")
	}
}

func TestByName(t *testing.T) {
	if _, err := ByName("mm"); err != nil {
		t.Error(err)
	}
	if _, err := ByName("not-a-workload"); err == nil {
		t.Error("expected error for unknown workload")
	}
}

func TestEveryWorkloadExecutesAndProfiles(t *testing.T) {
	for _, w := range All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			tr, err := w.Trace(40000)
			if err != nil {
				t.Fatal(err)
			}
			if tr.Len() < 5000 {
				t.Fatalf("trace too short: %d dynamic instructions", tr.Len())
			}
			stats := tr.ComputeStats()
			if stats.Branches == 0 {
				t.Error("no branches — not a loop kernel?")
			}
			td, err := tdg.Build(tr)
			if err != nil {
				t.Fatal(err)
			}
			if len(td.Nest.Loops) == 0 {
				t.Error("no loops recovered")
			}
			// The dominant loop should cover most of the execution.
			ids := td.Prof.SortedLoopsByShare()
			if share := td.Prof.LoopShare(ids[0]); share < 0.5 {
				t.Errorf("hottest loop covers only %.0f%% of execution", share*100)
			}
		})
	}
}

func TestCategoriesHaveExpectedBehaviors(t *testing.T) {
	// Regular workloads should exhibit lower branch misprediction than
	// irregular ones in aggregate.
	missRate := func(c Category) float64 {
		var miss, br int64
		for _, w := range All() {
			if w.Category != c {
				continue
			}
			tr, err := w.Trace(30000)
			if err != nil {
				t.Fatal(err)
			}
			s := tr.ComputeStats()
			miss += int64(s.Mispredicted)
			br += int64(s.Branches)
		}
		return float64(miss) / float64(br)
	}
	reg, irr := missRate(Regular), missRate(Irregular)
	t.Logf("miss rates: regular=%.3f irregular=%.3f", reg, irr)
	if reg >= irr {
		t.Errorf("regular workloads mispredict more than irregular: %.3f vs %.3f", reg, irr)
	}
}

func TestDeterministicTraces(t *testing.T) {
	w, _ := ByName("mm")
	t1, err := w.Trace(10000)
	if err != nil {
		t.Fatal(err)
	}
	t2, err := w.Trace(10000)
	if err != nil {
		t.Fatal(err)
	}
	if t1.Len() != t2.Len() {
		t.Fatalf("non-deterministic trace length: %d vs %d", t1.Len(), t2.Len())
	}
	for i := range t1.Insts {
		if t1.Insts[i] != t2.Insts[i] {
			t.Fatalf("trace diverges at %d", i)
		}
	}
}

func TestLoopStructureVariety(t *testing.T) {
	// The suite must contain both vectorizable and non-vectorizable
	// dominant loops for the DSE to be meaningful.
	vec, nonvec := 0, 0
	for _, w := range All() {
		tr, err := w.Trace(20000)
		if err != nil {
			t.Fatal(err)
		}
		td, err := tdg.Build(tr)
		if err != nil {
			t.Fatal(err)
		}
		ids := td.Prof.SortedLoopsByShare()
		hot := ids[0]
		// Find the hottest *inner* loop.
		for _, id := range ids {
			if td.Nest.Loops[id].Inner() {
				hot = id
				break
			}
		}
		ld := td.Dataflow(hot)
		if !td.Prof.Loops[hot].CarriedMemDep && len(ld.CarriedRegDep) == 0 {
			vec++
		} else {
			nonvec++
		}
	}
	t.Logf("vectorizable-dominant=%d non-vectorizable-dominant=%d", vec, nonvec)
	if vec < 8 || nonvec < 8 {
		t.Errorf("poor behavior diversity: %d vectorizable vs %d not", vec, nonvec)
	}
	_ = ir.StrideInfo{}
}
