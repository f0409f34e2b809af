package serve

import (
	"bytes"
	"context"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"exocore/internal/cli"
	"exocore/internal/cores"
	"exocore/internal/runner"
	"exocore/internal/workloads"
)

var updateAttribution = flag.Bool("update", false, "rewrite the attribution golden")

// TestEvaluateAttributionMatchesGolden pins the critical-path attribution
// behind /v1/evaluate: the per-region cp_<class> latencies EvaluateDocument
// renders for mm, cjpeg, gzip and bfs on IO2 and OOO6, with every
// registered BSA, under both schedulers. The golden was generated by the
// node-building form of the general core, which the time-direct core must
// reproduce byte for byte. Regenerating it (-update) is only legitimate
// when the evaluation model itself changes.
func TestEvaluateAttributionMatchesGolden(t *testing.T) {
	var wls []*workloads.Workload
	for _, name := range []string{"mm", "cjpeg", "gzip", "bfs"} {
		w, err := workloads.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		wls = append(wls, w)
	}
	eng := runner.New(runner.Options{MaxDyn: 20_000})
	all, err := cli.ResolveBSASpecWith(eng.BSAs(), "all")
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	for _, core := range []cores.Config{cores.IO2, cores.OOO6} {
		for _, sched := range []string{"oracle", "amdahl"} {
			doc, err := EvaluateDocument(context.Background(), eng, "exocored", wls, core, all, sched, nil)
			if err != nil {
				t.Fatal(err)
			}
			if err := doc.Write(&got); err != nil {
				t.Fatal(err)
			}
		}
	}
	checkGolden(t, filepath.Join("testdata", "evaluate_attribution.golden.json"), got.Bytes(), *updateAttribution)
}

// checkGolden compares got with the golden file at path, or rewrites the
// file when update is set.
func checkGolden(t *testing.T, path string, got []byte, update bool) {
	t.Helper()
	if update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", path, len(got))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, want) {
		return
	}
	for i := range got {
		if i >= len(want) || got[i] != want[i] {
			lo := max(i-80, 0)
			t.Fatalf("%s: output diverges at byte %d:\ngot:    ...%s\ngolden: ...%s",
				path, i, got[lo:min(i+80, len(got))], want[lo:min(i+80, len(want))])
		}
	}
	t.Fatalf("%s: output (%d bytes) is a prefix of the golden (%d bytes)", path, len(got), len(want))
}
