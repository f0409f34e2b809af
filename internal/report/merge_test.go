package report

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"exocore/internal/runner"
)

func render(t *testing.T, d *Document) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := d.Write(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestMergeEqualsSingleDocument(t *testing.T) {
	whole := New("dse")
	whole.Add(
		Result{Design: "IO2", RelPerf: 1, RelEnergyEff: 1, RelArea: 1},
		Result{Design: "IO2", Bench: "mm", Cycles: 100, EnergyNJ: 1.5},
		Result{Design: "IO2", Bench: "gzip", Cycles: 200, EnergyNJ: 2.5},
		Result{Design: "OOO2-S", RelPerf: 2.2, RelEnergyEff: 1.1, RelArea: 3},
		Result{Design: "OOO2-S", Bench: "mm", Cycles: 50, EnergyNJ: 1.25},
		Result{Design: "OOO2-S", Bench: "gzip", Cycles: 90, EnergyNJ: 2.25,
			Params: map[string]string{"sched": "oracle"}},
	)
	want := render(t, whole)

	// Shard the same rows three ways (aggregates, mm, gzip) in shuffled
	// order; the merge must reproduce the single document exactly.
	agg := New("dse")
	agg.Add(whole.Results[3], whole.Results[0])
	mm := New("dse")
	mm.Add(whole.Results[4], whole.Results[1])
	gz := New("dse")
	gz.Add(whole.Results[5], whole.Results[2])

	got, err := Merge(render(t, gz), render(t, agg), render(t, mm))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("merge diverges from the single document\nwant:\n%s\ngot:\n%s", want, got)
	}

	// A single part round-trips.
	got, err = Merge(want)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("single-part merge is not the identity")
	}
}

func TestMergeRejections(t *testing.T) {
	good := New("dse")
	good.Add(Result{Design: "IO2", Bench: "mm", Cycles: 1})
	goodB := render(t, good)

	check := func(name, wantSub string, parts ...[]byte) {
		t.Helper()
		if _, err := Merge(parts...); err == nil {
			t.Errorf("%s: merge accepted", name)
		} else if !strings.Contains(err.Error(), wantSub) {
			t.Errorf("%s: error %q does not mention %q", name, err, wantSub)
		}
	}

	check("zero parts", "zero parts")
	check("garbage", "decode", goodB, []byte("{"))

	bad := New("dse")
	bad.Schema = "exocore-result/v999"
	bad.Add(Result{Design: "IO2", Bench: "gzip"})
	check("schema mismatch", "schema", goodB, render(t, bad))

	other := New("accelsweep")
	other.Add(Result{Design: "IO2", Bench: "gzip"})
	check("tool mismatch", "tool", goodB, render(t, other))

	dup := New("dse")
	dup.Add(Result{Design: "IO2", Bench: "mm", Cycles: 2})
	check("overlapping rows", "overlaps", goodB, render(t, dup))

	// Same (design, bench) under different params is NOT an overlap.
	variant := New("dse")
	variant.Add(Result{Design: "IO2", Bench: "mm", Cycles: 2,
		Params: map[string]string{"sched": "amdahl"}})
	if _, err := Merge(goodB, render(t, variant)); err != nil {
		t.Errorf("distinct params rejected: %v", err)
	}

	withMetrics := New("dse")
	withMetrics.Add(Result{Design: "OOO2", Bench: "mm"})
	withMetrics.Metrics = &runner.Metrics{}
	check("metrics attachment", "metrics", goodB, render(t, withMetrics))
}

// FuzzMerge: merging any two byte strings must not panic, and a merged
// output must pass the strict decoder. The seeds are two real partial
// sweep shards (the payloads a fabric coordinator merges), one of them
// truncated or stamped with another schema version, and an overlap.
func FuzzMerge(f *testing.F) {
	var shards [][]byte
	for _, name := range []string{"shard_mm.json", "shard_gzip.json"} {
		b, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			f.Fatal(err)
		}
		shards = append(shards, b)
	}
	mm, gz := shards[0], shards[1]
	skewed := bytes.Replace(gz, []byte(Schema), []byte("exocore-result/v0"), 1)
	for _, pair := range [][2][]byte{
		{mm, gz},
		{mm, gz[:len(gz)/2]},
		{skewed, mm},
		{mm, mm},
		{mm, nil},
	} {
		f.Add(pair[0], pair[1])
	}
	f.Fuzz(func(t *testing.T, a, b []byte) {
		out, err := Merge(a, b)
		if err != nil {
			return
		}
		if _, err := Decode(bytes.NewReader(out)); err != nil {
			t.Fatalf("merged output does not decode: %v\n%s", err, out)
		}
	})
}
