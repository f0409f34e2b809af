package workloads

import "testing"

var graphNames = []string{"bfs", "pagerank", "tricount"}

func TestGraphFamilyRegistered(t *testing.T) {
	var got []*Workload
	for _, w := range All() {
		if w.Category == Graph {
			got = append(got, w)
		}
	}
	if len(got) != len(graphNames) {
		t.Fatalf("%d Graph workloads, want %d", len(got), len(graphNames))
	}
	for i, name := range graphNames {
		if got[i].Name != name {
			t.Errorf("graph workload %d = %q, want %q", i, got[i].Name, name)
		}
		if got[i].Suite != "GAP" {
			t.Errorf("%s: suite %q, want GAP", name, got[i].Suite)
		}
	}
}

// TestGraphTraceDeterminism pins the property every cache key and golden
// depends on: the synthetic graph is derived only from the compiled-in
// seed, so the same budget yields the identical dynamic instruction
// stream — annotations included — on every run.
func TestGraphTraceDeterminism(t *testing.T) {
	for _, name := range graphNames {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			w, err := ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			t1, err := w.Trace(20000)
			if err != nil {
				t.Fatal(err)
			}
			t2, err := w.Trace(20000)
			if err != nil {
				t.Fatal(err)
			}
			if t1.Len() != t2.Len() {
				t.Fatalf("non-deterministic trace length: %d vs %d", t1.Len(), t2.Len())
			}
			for i := range t1.Insts {
				if t1.Insts[i] != t2.Insts[i] {
					t.Fatalf("trace diverges at instruction %d: %+v vs %+v",
						i, t1.Insts[i], t2.Insts[i])
				}
			}
		})
	}
}

// TestGraphBehaviorProfile checks the kernels actually exhibit the
// behaviors the family was added for: value working sets beyond L1 (the
// neighbor gathers miss) and, for the traversal kernels, data-dependent
// branches the predictor cannot learn.
func TestGraphBehaviorProfile(t *testing.T) {
	for _, name := range graphNames {
		w, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := w.Trace(30000)
		if err != nil {
			t.Fatal(err)
		}
		s := tr.ComputeStats()
		beyondL1 := s.Loads + s.Stores - s.L1Hits
		t.Logf("%-9s loads+stores=%d beyondL1=%d mispredicted=%d",
			name, s.Loads+s.Stores, beyondL1, s.Mispredicted)
		if beyondL1 < 500 {
			t.Errorf("%s: only %d accesses beyond L1 — gathers are cache-resident", name, beyondL1)
		}
		if name != "pagerank" && s.Mispredicted < 300 {
			t.Errorf("%s: only %d mispredicts — traversal control is too predictable", name, s.Mispredicted)
		}
	}
}
