package workloads

import (
	"reflect"
	"testing"

	"exocore/internal/trace"
)

// TestStreamExemplarsCoverFamilies pins the per-family exemplar list:
// every workload source file nominates exactly one kernel, and each must
// resolve in the registry.
func TestStreamExemplarsCoverFamilies(t *testing.T) {
	ex := StreamExemplars()
	if len(ex) != 7 {
		t.Fatalf("got %d stream exemplars %v, want one per family file (7)", len(ex), ex)
	}
	seen := map[string]bool{}
	for _, name := range ex {
		if seen[name] {
			t.Fatalf("duplicate exemplar %q", name)
		}
		seen[name] = true
		if _, err := ByName(name); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSourceMatchesTrace is the family-coverage identity gate: for every
// family's exemplar kernel, draining the generator-driven source at
// several chunk sizes must reproduce the materialized TraceWith bytes
// exactly — same instructions, same cache annotations, same
// branch-predictor flags — and statistics merged chunk by chunk must
// equal the whole-trace scan.
func TestSourceMatchesTrace(t *testing.T) {
	const maxDyn = 30_000
	for _, name := range StreamExemplars() {
		w, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		want, err := w.Trace(maxDyn)
		if err != nil {
			t.Fatal(err)
		}
		for _, chunk := range []int{1, 257, 4096, 1 << 20} {
			src := w.Source(SourceConfig{MaxDyn: maxDyn, ChunkInsts: chunk})
			var st trace.Stats
			got, err := trace.Materialize(trace.Tee(src, func(c *trace.Chunk) {
				st.Accumulate(src.Prog(), c.Insts)
			}), maxDyn)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got.Insts, want.Insts) {
				t.Fatalf("%s chunk %d: streamed trace differs from materialized", name, chunk)
			}
			if st != want.ComputeStats() {
				t.Fatalf("%s chunk %d: chunk-merged stats %+v != trace stats %+v",
					name, chunk, st, want.ComputeStats())
			}
		}
	}
}

// TestLoopSourceExtendsTrace checks the paper-scale loop mode: when the
// kernel's natural execution is shorter than the budget, the looped
// source re-runs it to fill the budget exactly, and the first natural
// run is bit-identical to the non-loop stream (model state carries, so
// later repeats see a warmed cache and trained predictor).
func TestLoopSourceExtendsTrace(t *testing.T) {
	w, err := ByName("mm")
	if err != nil {
		t.Fatal(err)
	}
	natural, err := w.Trace(1 << 30)
	if err != nil {
		t.Fatal(err)
	}
	n := natural.Len()
	budget := n*2 + n/2
	src := w.Source(SourceConfig{MaxDyn: budget, ChunkInsts: 4096, Loop: true})
	got, err := trace.Materialize(src, budget)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != budget {
		t.Fatalf("looped source yielded %d insts, want %d (natural run %d)", got.Len(), budget, n)
	}
	if !reflect.DeepEqual(got.Insts[:n], natural.Insts) {
		t.Fatal("first repeat of looped stream differs from the natural run")
	}
	// Repeats execute the same instruction sequence (only annotations may
	// differ as the cache warms).
	for i := 0; i < n/2; i++ {
		if got.Insts[n+i].SI != got.Insts[i].SI {
			t.Fatalf("repeat diverges at %d: SI %d != %d", i, got.Insts[n+i].SI, got.Insts[i].SI)
		}
	}
}

// TestSourceChunkAccounting checks the resident-buffer gauge source: the
// high-water mark reflects pooled buffers actually outstanding, not the
// total synthesized.
func TestSourceChunkAccounting(t *testing.T) {
	w, err := ByName("conv")
	if err != nil {
		t.Fatal(err)
	}
	src := w.Source(SourceConfig{MaxDyn: 20_000, ChunkInsts: 1024})
	for {
		c, ok := src.Next()
		if !ok {
			break
		}
		c.Release()
	}
	if err := src.Err(); err != nil {
		t.Fatal(err)
	}
	// Released promptly, so only one buffer was ever outstanding.
	if want := int64(1024 * 16); src.ChunkHighWaterBytes() != want {
		t.Fatalf("chunk high water %d, want %d", src.ChunkHighWaterBytes(), want)
	}
}
