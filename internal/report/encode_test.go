package report_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"
	"unicode/utf8"

	"exocore/internal/cli"
	"exocore/internal/cores"
	"exocore/internal/exocore"
	"exocore/internal/obs"
	"exocore/internal/report"
	"exocore/internal/runner"
	"exocore/internal/serve"
)

// reference renders a document the way encoding/json does: the rows
// sorted by sort.SliceStable with each comparison rebuilding its params
// keys, then an Encoder with SetIndent("", "  ") over the Document. It
// is the contract Render is held to.
func reference(d *report.Document) ([]byte, error) {
	c := *d
	c.Results = slices.Clone(d.Results) // keeps nil apart from empty
	sort.SliceStable(c.Results, func(i, j int) bool {
		a, b := c.Results[i], c.Results[j]
		if a.Bench != b.Bench {
			return a.Bench < b.Bench
		}
		if a.Design != b.Design {
			return a.Design < b.Design
		}
		if a.Category != b.Category {
			return a.Category < b.Category
		}
		return refParamsKey(a.Params) < refParamsKey(b.Params)
	})
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(&c); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func refParamsKey(p map[string]string) string {
	keys := make([]string, 0, len(p))
	for k := range p {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var sb strings.Builder
	for _, k := range keys {
		sb.WriteString(k + "=" + p[k] + ";")
	}
	return sb.String()
}

// checkRender holds d.Render to the reference: the same bytes, or the
// same error text and no bytes. It returns the rendered bytes.
func checkRender(t testing.TB, name string, d *report.Document) []byte {
	t.Helper()
	want, werr := reference(d)
	got, gerr := d.Render()
	switch {
	case werr != nil || gerr != nil:
		if werr == nil || gerr == nil || werr.Error() != gerr.Error() {
			t.Fatalf("%s: Render error %v, encoding/json error %v", name, gerr, werr)
		}
		if got != nil {
			t.Fatalf("%s: Render failed but returned %d bytes", name, len(got))
		}
	case !bytes.Equal(got, want):
		t.Fatalf("%s: Render differs from encoding/json\n--- encoding/json ---\n%s\n--- Render ---\n%s", name, want, got)
	}
	var buf bytes.Buffer
	if err := d.Write(&buf); (err != nil) != (gerr != nil) || !bytes.Equal(buf.Bytes(), got) {
		t.Fatalf("%s: Write (%v) does not write what Render returns", name, err)
	}
	return got
}

var negZero = math.Copysign(0, -1)

// TestRenderEdgeCases covers the strings, floats and shapes where an
// encoder could drift from encoding/json.
func TestRenderEdgeCases(t *testing.T) {
	strs := []string{
		"", "plain", "<script>&amp;</script>", "a<b", "a>b", "a&b", `quote" back\slash`,
		"tab\tnew\nline\rcr\bbs\fff", "\x00\x01\x1f\x7f", "line\u2028para\u2029",
		"\xff\xfe invalid", "naïve ünïcödé 日本", "\U0001F600",
	}
	floats := []float64{
		1, -1.5, 0.1, 1e-6, 1e-7, 9.99e-7, 1e20, 1e21, 123456789012345678901234.0,
		5e-324, math.MaxFloat64, -1e-7, 1.0 / 3, 100, 2.5e-10,
	}
	var rows []report.Result
	for i, s := range strs {
		f := floats[i%len(floats)]
		rows = append(rows, report.Result{
			Design: s, Core: s, BSAs: []string{s, "SIMD"}, Bench: strs[(i+3)%len(strs)], Category: s,
			Cycles:   int64(i) - 3,
			EnergyNJ: f, AreaMM2: -f, RelPerf: floats[(i+1)%len(floats)],
			RelEnergyEff: floats[(i+2)%len(floats)], RelArea: floats[(i+3)%len(floats)],
			Coverage: map[string]float64{s: f, "GPP": negZero, "z": 0},
			Params:   map[string]string{s: s, "sched": "oracle", "region": strs[(i+5)%len(strs)]},
			Extra:    map[string]float64{"cp_" + s: floats[(i+4)%len(floats)], "neg_zero": negZero, "zero": 0},
		})
	}
	for _, f := range floats {
		rows = append(rows, report.Result{Design: "F", Bench: "floats", EnergyNJ: f, Extra: map[string]float64{"x": f, "neg": -f}})
	}
	// Sort ties: on bench and design, then on category, then on params,
	// and full ties that must keep their order.
	for i, cat := range []string{"z", "a", "a", "a", "a", "m"} {
		p := map[string]string{"k": fmt.Sprint(5 - i%3), "j": "x"}
		rows = append(rows,
			report.Result{Design: "T", Bench: "ties", Category: cat, Params: p, Extra: map[string]float64{"i": float64(i)}},
			report.Result{Design: "T", Category: cat, Extra: map[string]float64{"i": float64(i)}})
	}
	rows = append(rows,
		report.Result{Design: "zeros", EnergyNJ: negZero, RelPerf: negZero, Cycles: 0},
		report.Result{Design: "empty", BSAs: []string{}, Coverage: map[string]float64{}, Params: map[string]string{}, Extra: map[string]float64{}},
		report.Result{Design: "extremes", Cycles: math.MinInt64, Extra: map[string]float64{"max": math.MaxInt64}},
	)
	for i := range strs {
		d := report.New(strs[i])
		d.Add(rows...)
		checkRender(t, fmt.Sprintf("tool %q", strs[i]), d)
	}
	odd := report.New("t")
	odd.Schema = "<v&1> "
	odd.Add(rows[0])
	checkRender(t, "escaped schema", odd)

	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, r := range []report.Result{
			{Design: "D", EnergyNJ: f},
			{Design: "D", AreaMM2: f},
			{Design: "D", RelPerf: f},
			{Design: "D", RelEnergyEff: f},
			{Design: "D", RelArea: f},
			{Design: "D", Coverage: map[string]float64{"GPP": f}},
			{Design: "D", Extra: map[string]float64{"a": 1, "b": f, "c": math.NaN()}},
		} {
			d := report.New("t")
			d.Add(report.Result{Design: "ok", Bench: "b", EnergyNJ: 1}, r)
			checkRender(t, fmt.Sprintf("unsupported %v", f), d)
			if _, err := d.Render(); err == nil || !strings.HasPrefix(err.Error(), "json: unsupported value: ") {
				t.Fatalf("Render of %v: error %v, want encoding/json's unsupported-value text", f, err)
			}
		}
	}

	empty := report.New("t")
	if got := checkRender(t, "nil results", empty); !bytes.Contains(got, []byte(`"results": null`)) {
		t.Errorf("nil Results rendered as\n%s", got)
	}
	empty.Results = []report.Result{}
	if got := checkRender(t, "empty results", empty); !bytes.Contains(got, []byte(`"results": []`)) {
		t.Errorf("empty Results rendered as\n%s", got)
	}

	withMetrics := report.New("t")
	withMetrics.Add(rows[:3]...)
	reg := obs.NewRegistry()
	reg.Counter("a<b>").Add(3)
	reg.Histogram("h", obs.DefaultSizeBounds).Observe(100)
	withMetrics.Metrics = &runner.Metrics{EvalCache: &exocore.CacheStats{Hits: 2}, Points: reg.Snapshot()}
	checkRender(t, "metrics attached", withMetrics)
}

// TestRenderCoversEveryResultField sets every exported Result field by
// reflection: a field added to Result that Render misses fails here.
func TestRenderCoversEveryResultField(t *testing.T) {
	var r report.Result
	v := reflect.ValueOf(&r).Elem()
	for i := 0; i < v.NumField(); i++ {
		f, name := v.Field(i), v.Type().Field(i).Name
		switch f.Interface().(type) {
		case string:
			f.SetString("s_" + name)
		case []string:
			f.Set(reflect.ValueOf([]string{"a_" + name, "b_" + name}))
		case int64:
			f.SetInt(int64(7 + i))
		case float64:
			f.SetFloat(1.25 + float64(i))
		case map[string]string:
			f.Set(reflect.ValueOf(map[string]string{"k_" + name: "v_" + name, "a": "b"}))
		case map[string]float64:
			f.Set(reflect.ValueOf(map[string]float64{"k_" + name: float64(i), "a": 0.5}))
		default:
			t.Fatalf("Result.%s has type %s: teach Render and this test about it", name, f.Type())
		}
	}
	d := report.New("t")
	d.Add(r)
	got := checkRender(t, "every field", d)
	for i := 0; i < v.NumField(); i++ {
		tag, _, _ := strings.Cut(v.Type().Field(i).Tag.Get("json"), ",")
		if !bytes.Contains(got, []byte(`"`+tag+`": `)) {
			t.Errorf("field %s (%q) not rendered", v.Type().Field(i).Name, tag)
		}
	}
}

// servedBenches are the benchmarks a warm daemon is typically asked
// about: the quick set plus two graph kernels.
var servedBenches = append(append([]string(nil), cli.QuickSet...), "bfs", "pagerank")

// TestRenderMatchesProducers holds Render to the reference on real
// documents from every producer: /v1/evaluate's over the served
// benchmarks, every core, both schedulers and no, each and all BSAs; a
// full and a partial /v1/sweep; a fabric-style merge of two shards;
// and a tool document with the engine's metrics attached.
func TestRenderMatchesProducers(t *testing.T) {
	const maxDyn = 10_000
	wls, err := cli.ResolveBenchSpec(strings.Join(servedBenches, ","))
	if err != nil {
		t.Fatal(err)
	}
	eng := runner.New(runner.Options{MaxDyn: maxDyn})
	ctx := context.Background()
	names := eng.BSAs().Names()
	sets := [][]string{nil, names}
	for _, n := range names {
		sets = append(sets, []string{n})
	}
	docs := 0
	for _, core := range cores.Configs {
		for _, sched := range []string{"oracle", "amdahl"} {
			for _, bsas := range sets {
				doc, err := serve.EvaluateDocument(ctx, eng, "exocored", wls, core, bsas, sched, nil)
				if err != nil {
					t.Fatal(err)
				}
				checkRender(t, fmt.Sprintf("evaluate %s %s %v", core.Name, sched, bsas), doc)
				docs++
			}
		}
	}

	sweepWls := wls[:2]
	for _, partial := range []bool{false, true} {
		doc, err := serve.SweepDocument(ctx, eng, "exocored", sweepWls, nil, "oracle", partial)
		if err != nil {
			t.Fatal(err)
		}
		checkRender(t, fmt.Sprintf("sweep partial=%v", partial), doc)
		docs++
	}

	var shards [][]byte
	for _, name := range []string{"shard_mm.json", "shard_gzip.json"} {
		b, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		shards = append(shards, b)
	}
	merged, err := report.Merge(shards...)
	if err != nil {
		t.Fatal(err)
	}
	d, err := report.Decode(bytes.NewReader(merged))
	if err != nil {
		t.Fatal(err)
	}
	if got := checkRender(t, "merge", d); !bytes.Equal(got, merged) {
		t.Fatal("a merged document does not render back to itself")
	}

	tool, err := serve.EvaluateDocument(ctx, eng, "tdgsim", wls[:1], cores.OOO2, names, "oracle", nil)
	if err != nil {
		t.Fatal(err)
	}
	m := eng.Metrics()
	tool.Metrics = &m
	checkRender(t, "tool document with engine metrics", tool)
	t.Logf("%d producer documents match encoding/json", docs+2)
}

// FuzzDocumentWrite builds documents from fuzzed strings, floats
// (NaN and ±Inf included), slices and maps. Render must equal the
// encoding/json reference, failing exactly when it does; accepted
// bytes must pass the strict Decode and, when every string is valid
// UTF-8 (encoding/json writes invalid bytes as U+FFFD, so a decoded
// document differs from the fuzzed one), render back to themselves.
func FuzzDocumentWrite(f *testing.F) {
	f.Add("OOO2-SDN", "mm", "region", "L3", int64(1234), 1.5, 0.25, uint8(0))
	f.Add("<a&b>", " ", "k\x00", "\xff", int64(-1), math.NaN(), 1e21, uint8(1))
	f.Add("IO2", "", "sched", "oracle", int64(0), math.Inf(1), 5e-324, uint8(2))
	f.Add("D", "b", "x", "y", int64(7), negZero, 1e-7, uint8(0xff))
	f.Add("", "gzip", "", "", int64(math.MaxInt64), math.Inf(-1), -1e-7, uint8(0x5a))
	f.Fuzz(func(t *testing.T, design, bench, key, val string, cycles int64, x, y float64, shape uint8) {
		d := report.New(val)
		nrows := int(shape & 3)
		if shape&4 != 0 {
			d.Results = []report.Result{}
		}
		for i := 0; i < nrows; i++ {
			r := report.Result{
				Design: design, Bench: bench, Cycles: cycles - int64(i),
				EnergyNJ: x, AreaMM2: y, RelPerf: x * y, RelEnergyEff: -x, RelArea: float64(i) * y,
			}
			if shape&8 != 0 {
				r.Core, r.Category = key, val
				r.BSAs = []string{val, key}
			}
			if shape&16 != 0 {
				r.Params = map[string]string{key: val, val: design}
				if i%2 == 1 {
					r.Params = map[string]string{val: key}
				}
			}
			if shape&32 != 0 {
				r.Coverage = map[string]float64{key: x, "GPP": y}
				r.Extra = map[string]float64{val: y, key: x * float64(i), "n": float64(cycles)}
			} else if shape&64 != 0 {
				r.Coverage, r.Extra = map[string]float64{}, map[string]float64{}
			}
			d.Add(r)
		}
		if shape&128 != 0 {
			d.Metrics = &runner.Metrics{Stages: []runner.StageMetrics{{Stage: key, Calls: cycles}}}
		}
		got := checkRender(t, "fuzzed", d)
		if got == nil {
			return
		}
		back, err := report.Decode(bytes.NewReader(got))
		if err != nil {
			t.Fatalf("rendered document does not decode: %v\n%s", err, got)
		}
		for _, s := range []string{design, bench, key, val} {
			if !utf8.ValidString(s) {
				return
			}
		}
		again, err := back.Render()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again, got) {
			t.Fatalf("decode and render is not the identity\n--- first ---\n%s\n--- again ---\n%s", got, again)
		}
	})
}
