package dse

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"exocore/internal/bsa"
	"exocore/internal/cli"
	"exocore/internal/cores"
	"exocore/internal/report"
	"exocore/internal/runner"
	"exocore/internal/workloads"
)

var updateGolden = flag.Bool("update", false, "rewrite the testdata goldens")

// TestStandardRegistrySweepMatchesGolden is the compatibility contract
// of the registry redesign: an engine restricted to the paper's four
// BSAs must render the exact bytes the hard-coded four-model sweep
// produced before the registry (and GS-DAE) existed. The golden was
// generated from the pre-registry code; regenerating it (-update) is
// only legitimate when the evaluation model itself changes.
func TestStandardRegistrySweepMatchesGolden(t *testing.T) {
	var ws []*workloads.Workload
	for _, name := range cli.QuickSet {
		w, err := workloads.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		ws = append(ws, w)
	}
	eng := runner.New(runner.Options{MaxDyn: 10_000, BSAs: bsa.Standard()})
	exp, err := Explore(Options{
		Workloads: ws,
		Cores:     []cores.Config{cores.IO2, cores.OOO2},
		Engine:    eng,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(exp.Designs), 2*16; got != want {
		t.Fatalf("restricted sweep has %d designs, want %d", got, want)
	}

	doc := report.New("dse")
	exp.AppendTo(doc)
	var buf bytes.Buffer
	if err := doc.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got := buf.Bytes()

	path := filepath.Join("testdata", "sweep_quick_4bsa.golden.json")
	if *updateGolden {
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
			lo := i - 80
			if lo < 0 {
				lo = 0
			}
			t.Fatalf("sweep diverges from pre-registry golden at byte %d:\ngot:    ...%s\ngolden: ...%s",
				i, got[lo:min(i+80, len(got))], want[lo:min(i+80, len(want))])
		}
	}
	t.Fatalf("sweep output (%d bytes) is a prefix of the golden (%d bytes)", len(got), len(want))
}
