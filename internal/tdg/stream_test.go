package tdg

import (
	"reflect"
	"testing"

	"exocore/internal/trace"
	"exocore/internal/workloads"
)

// TestBuildStreamMatchesBuild is the identity gate for the streaming TDG
// arm: feeding the trace through a StreamBuilder in chunks of any size must
// produce the same CFG, loop nest, profile and statistics as Build on
// the materialized trace. Chunk sizes include values that split the
// trace mid-loop and mid-block.
func TestBuildStreamMatchesBuild(t *testing.T) {
	for _, name := range []string{"mm", "cjpeg", "gzip", "bfs"} {
		w, err := workloads.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := w.Trace(25_000)
		if err != nil {
			t.Fatal(err)
		}
		whole, err := Build(tr)
		if err != nil {
			t.Fatal(err)
		}
		for _, chunk := range []int{1, 313, 4096, 1 << 20} {
			src := trace.NewSliceSource(tr, chunk)
			b, err := NewStreamBuilder(src.Prog())
			if err != nil {
				t.Fatal(err)
			}
			for c, ok := src.Next(); ok; c, ok = src.Next() {
				b.Feed(c)
			}
			s := b.Finish()
			if s.Dyn != tr.Len() {
				t.Fatalf("%s chunk %d: stream dyn %d != %d", name, chunk, s.Dyn, tr.Len())
			}
			if s.Stats != tr.ComputeStats() {
				t.Fatalf("%s chunk %d: stream stats diverge", name, chunk)
			}
			if !reflect.DeepEqual(s.Prof.BlockCount, whole.Prof.BlockCount) {
				t.Fatalf("%s chunk %d: block counts diverge", name, chunk)
			}
			if !reflect.DeepEqual(s.Prof.Loops, whole.Prof.Loops) {
				t.Fatalf("%s chunk %d: loop profiles diverge", name, chunk)
			}
			if !reflect.DeepEqual(s.Prof.Strides, whole.Prof.Strides) {
				t.Fatalf("%s chunk %d: stride classification diverges", name, chunk)
			}
			if s.Prof.TotalDyn != whole.Prof.TotalDyn {
				t.Fatalf("%s chunk %d: total dyn diverges", name, chunk)
			}
		}
	}
}
