package dse

import (
	"bytes"
	"testing"

	"exocore/internal/bsa"
	"exocore/internal/report"
	"exocore/internal/runner"
	"exocore/internal/workloads"
)

func renderDoc(t *testing.T, doc *report.Document) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := doc.Write(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestShellReassemblyBytesMatchSweep is the in-process version of the
// fabric coordinator's merge path: run a sweep once, then rebuild the
// same document from (a) a shell normalized over per-bench data alone
// and (b) report.Merge of the aggregate and per-bench halves. Both
// must be byte-identical to the direct AppendTo document — this is the
// property that lets shards carry only per-bench rows.
func TestShellReassemblyBytesMatchSweep(t *testing.T) {
	ws := pick(t, "mm", "gzip", "mcf")
	eng := runner.New(runner.Options{MaxDyn: 15000})
	codes := []string{"IO2", "OOO2-S", "OOO2-SD", "OOO4-N", "OOO2-S"} // dup collapses
	exp, err := ExploreCtx(t.Context(), Options{Workloads: ws, Engine: eng, Designs: codes})
	if err != nil {
		t.Fatal(err)
	}
	whole := report.New("dse")
	exp.AppendTo(whole)
	want := renderDoc(t, whole)

	// (a) Shell reconstruction: identity from the grid, measurements
	// fed back one (design, bench) cell at a time, in scrambled order.
	shell, err := NewShell(eng.BSAs(), codes, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range exp.Designs {
		for i := len(d.PerBench) - 1; i >= 0; i-- {
			if err := shell.AddBench(d.Code, d.PerBench[i]); err != nil {
				t.Fatal(err)
			}
		}
	}
	shell.Normalize()
	rebuilt := report.New("dse")
	shell.AppendTo(rebuilt)
	if got := renderDoc(t, rebuilt); !bytes.Equal(got, want) {
		t.Errorf("shell-reassembled document diverges from the sweep\nwant:\n%s\ngot:\n%s", want, got)
	}

	// (b) Merge of the two halves, as the coordinator performs it.
	aggDoc := report.New("dse")
	shell.AppendAggregates(aggDoc)
	pbDoc := report.New("dse")
	exp.AppendPerBench(pbDoc)
	got, err := report.Merge(renderDoc(t, pbDoc), renderDoc(t, aggDoc))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("merged halves diverge from the sweep document")
	}

	// AddBench rejects unknown designs and duplicate cells.
	if err := shell.AddBench("OOO6-T", BenchResult{Bench: "mm"}); err == nil {
		t.Error("AddBench accepted an unknown design")
	}
	if err := shell.AddBench("IO2", BenchResult{Bench: "mm"}); err == nil {
		t.Error("AddBench accepted a duplicate (design, bench) cell")
	}
}

// TestGridCodesMatchesExplore checks GridCodes enumerates exactly the
// designs a full sweep evaluates, in the same order.
func TestGridCodesMatchesExplore(t *testing.T) {
	reg := bsa.Default()
	codes, err := GridCodes(reg, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	ws := pick(t, "mm")
	exp, err := Explore(Options{Workloads: ws, Engine: runner.New(runner.Options{MaxDyn: 10000})})
	if err != nil {
		t.Fatal(err)
	}
	if len(codes) != len(exp.Designs) {
		t.Fatalf("GridCodes found %d designs, Explore %d", len(codes), len(exp.Designs))
	}
	for i, c := range codes {
		if exp.Designs[i].Code != c {
			t.Fatalf("design %d: GridCodes %q, Explore %q", i, c, exp.Designs[i].Code)
		}
	}
}

func pick(t *testing.T, names ...string) []*workloads.Workload {
	t.Helper()
	var ws []*workloads.Workload
	for _, n := range names {
		w, err := workloads.ByName(n)
		if err != nil {
			t.Fatal(err)
		}
		ws = append(ws, w)
	}
	return ws
}
