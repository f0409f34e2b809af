package report

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func TestSchemaHeader(t *testing.T) {
	var buf bytes.Buffer
	if err := New("mytool").Write(&buf); err != nil {
		t.Fatal(err)
	}
	var got struct {
		Schema string `json:"schema"`
		Tool   string `json:"tool"`
	}
	if err := json.Unmarshal(buf.Bytes(), &got); err != nil {
		t.Fatal(err)
	}
	if got.Schema != Schema || got.Tool != "mytool" {
		t.Errorf("header = %+v", got)
	}
	if !strings.HasPrefix(Schema, "exocore-result/v") {
		t.Errorf("schema %q must be versioned", Schema)
	}
}

func TestWriteSortsByBenchThenDesign(t *testing.T) {
	d := New("t")
	d.Add(
		Result{Design: "OOO2-S", Bench: "mm"},
		Result{Design: "IO2", Bench: "mm"},
		Result{Design: "OOO2-S", Bench: "cjpeg"},
		Result{Design: "OOO2-S"}, // aggregate first
	)
	d.Sort()
	var got []string
	for _, r := range d.Results {
		got = append(got, r.Bench+"/"+r.Design)
	}
	want := []string{"/OOO2-S", "cjpeg/OOO2-S", "mm/IO2", "mm/OOO2-S"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
}

func TestSortStableWithinKey(t *testing.T) {
	// Segment-style rows share (bench, design, params); their original
	// (timeline) order must survive sorting.
	d := New("t")
	p := map[string]string{"model": "NS-DF"}
	d.Add(
		Result{Design: "D", Bench: "b", Params: p, Extra: map[string]float64{"start_cycle": 0}},
		Result{Design: "D", Bench: "b", Params: p, Extra: map[string]float64{"start_cycle": 10}},
		Result{Design: "D", Bench: "b", Params: p, Extra: map[string]float64{"start_cycle": 20}},
	)
	d.Sort()
	for i, want := range []float64{0, 10, 20} {
		if got := d.Results[i].Extra["start_cycle"]; got != want {
			t.Fatalf("row %d start_cycle = %g, want %g (order not stable)", i, got, want)
		}
	}
}

func TestParamsSortDeterministic(t *testing.T) {
	d := New("t")
	d.Add(
		Result{Design: "D", Params: map[string]string{"sweep": "b", "variant": "x"}},
		Result{Design: "D", Params: map[string]string{"sweep": "a", "variant": "y"}},
	)
	d.Sort()
	if d.Results[0].Params["sweep"] != "a" {
		t.Errorf("params order not sorted: %v first", d.Results[0].Params)
	}
}

func TestWriteByteStable(t *testing.T) {
	mk := func() *Document {
		d := New("t")
		d.Add(
			Result{Design: "B", Bench: "w2", Cycles: 2, Coverage: map[string]float64{"GPP": 0.5, "SIMD": 0.5}},
			Result{Design: "A", Bench: "w1", Cycles: 1, Extra: map[string]float64{"x": 1, "y": 2}},
		)
		return d
	}
	var a, b bytes.Buffer
	if err := mk().Write(&a); err != nil {
		t.Fatal(err)
	}
	if err := mk().Write(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("two writes of the same document differ")
	}
}

func TestOmitEmptyFields(t *testing.T) {
	var buf bytes.Buffer
	d := New("t")
	d.Add(Result{Design: "IO2"})
	if err := d.Write(&buf); err != nil {
		t.Fatal(err)
	}
	s := buf.String()
	for _, field := range []string{"cycles", "energy_nj", "per_bsa_coverage", "params", "extra", "metrics"} {
		if strings.Contains(s, field) {
			t.Errorf("empty field %q serialized: %s", field, s)
		}
	}
}

func TestDecodeRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	d := New("t")
	d.Add(Result{Design: "OOO2-S", Core: "OOO2", Bench: "mm", Cycles: 123,
		Params: map[string]string{"sched": "oracle"},
		Extra:  map[string]float64{"speedup": 1.5}})
	if err := d.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Schema != Schema || got.Tool != "t" || len(got.Results) != 1 {
		t.Fatalf("round trip lost data: %+v", got)
	}
	r := got.Results[0]
	if r.Design != "OOO2-S" || r.Cycles != 123 || r.Params["sched"] != "oracle" || r.Extra["speedup"] != 1.5 {
		t.Fatalf("round trip mangled result: %+v", r)
	}

	// A re-encode of the decoded document is byte-identical to the
	// original encoding — the property the serving byte-identity gates
	// rely on when they normalize and re-compare documents.
	var again bytes.Buffer
	if err := d.Write(&buf); err != nil {
		t.Fatal(err)
	}
	if err := got.Write(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), again.Bytes()) {
		t.Error("decode→encode is not byte-stable")
	}
}

func TestDecodeRejectsUnknownSchema(t *testing.T) {
	for _, bad := range []string{
		`{"schema":"exocore-result/v2","tool":"t","results":null}`,
		`{"schema":"","tool":"t"}`,
		`{"tool":"t"}`,
	} {
		if _, err := Decode(strings.NewReader(bad)); err == nil {
			t.Errorf("Decode(%s) succeeded, want schema version error", bad)
		} else if !strings.Contains(err.Error(), Schema) {
			t.Errorf("Decode(%s) error %q does not name the supported schema", bad, err)
		}
	}
	if _, err := Decode(strings.NewReader("not json")); err == nil {
		t.Error("Decode of malformed JSON succeeded")
	}
}

// skewedRow is a shard whose row misspells "cycles": a lenient decoder
// would read it as a row of 0 cycles and a merge would pass it on.
const skewedRow = `{"schema":"exocore-result/v1","tool":"exocored","results":[{"design":"IO2","bench":"gzip","cycle":7}]}`

func TestDecodeRejectsUnknownFieldsAndTrailingData(t *testing.T) {
	d := New("exocored")
	d.Add(Result{Design: "IO2", Bench: "mm", Cycles: 1})
	var buf bytes.Buffer
	if err := d.Write(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.String()
	for name, in := range map[string]string{
		"unknown field":     skewedRow,
		"trailing object":   good + `{"garbage"`,
		"trailing brace":    good + "}",
		"trailing bracket":  good + "]",
		"second document":   good + good,
		"unknown top field": strings.Replace(good, `"tool"`, `"tools": 1, "tool"`, 1),
	} {
		if _, err := Decode(strings.NewReader(in)); err == nil {
			t.Errorf("%s: Decode accepted\n%s", name, in)
		}
		if _, err := Merge([]byte(in)); err == nil {
			t.Errorf("%s: Merge accepted\n%s", name, in)
		}
	}
	if _, err := Decode(strings.NewReader(good + " \n\t\r\n")); err != nil {
		t.Errorf("trailing whitespace rejected: %v", err)
	}
}
