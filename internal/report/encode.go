package report

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"strconv"
)

// rowBytes sizes Render's buffer per result row: an evaluate document's
// rows (the summary with its coverage and extras, the region rows with
// their critical-path classes) render to about 500 bytes each, a
// sweep's to under 200.
const rowBytes = 512

// Render sorts the results and returns the document's bytes: exactly
// what encoding/json's Encoder with SetIndent("", "  ") writes for a
// Document, trailing newline included, but appended by a schema
// encoder instead of reflection. A NaN or infinite float is an error
// (encoding/json's text) and nothing is rendered.
func (d *Document) Render() ([]byte, error) {
	d.Sort()
	e := encoder{buf: make([]byte, 0, 128+rowBytes*len(d.Results))}
	e.buf = append(e.buf, "{\n  \"schema\": "...)
	e.str(d.Schema)
	e.buf = append(e.buf, ",\n  \"tool\": "...)
	e.str(d.Tool)
	e.buf = append(e.buf, ",\n  \"results\": "...)
	switch {
	case d.Results == nil:
		e.buf = append(e.buf, "null"...)
	case len(d.Results) == 0:
		e.buf = append(e.buf, "[]"...)
	default:
		e.buf = append(e.buf, '[')
		for i := range d.Results {
			if i > 0 {
				e.buf = append(e.buf, ',')
			}
			e.result(&d.Results[i])
		}
		e.buf = append(e.buf, "\n  ]"...)
	}
	if e.err != nil {
		return nil, e.err
	}
	if d.Metrics != nil {
		// Only the CLI tools attach metrics, once per process: the
		// reflection encoder is cheap enough there.
		m, err := json.Marshal(d.Metrics)
		if err != nil {
			return nil, err
		}
		e.buf = append(e.buf, ",\n  \"metrics\": "...)
		out := bytes.NewBuffer(e.buf)
		if err := json.Indent(out, m, "  ", "  "); err != nil {
			return nil, err
		}
		e.buf = out.Bytes()
	}
	return append(e.buf, "\n}\n"...), nil
}

// encoder appends one document's JSON; the first unsupported float
// sticks in err.
type encoder struct {
	buf  []byte
	keys []string // reused to sort each map's keys
	err  error
}

// result appends one row at depth 2, its fields in struct order under
// the struct tags' omitempty rules.
func (e *encoder) result(r *Result) {
	e.buf = append(e.buf, "\n    {\n      \"design\": "...)
	e.str(r.Design)
	e.optStr("core", r.Core)
	if len(r.BSAs) > 0 {
		e.field("bsas")
		e.buf = append(e.buf, '[')
		for i, s := range r.BSAs {
			if i > 0 {
				e.buf = append(e.buf, ',')
			}
			e.buf = append(e.buf, "\n        "...)
			e.str(s)
		}
		e.buf = append(e.buf, "\n      ]"...)
	}
	e.optStr("bench", r.Bench)
	e.optStr("category", r.Category)
	if r.Cycles != 0 {
		e.field("cycles")
		e.buf = strconv.AppendInt(e.buf, r.Cycles, 10)
	}
	e.optNum("energy_nj", r.EnergyNJ)
	e.optNum("area_mm2", r.AreaMM2)
	e.optNum("rel_perf", r.RelPerf)
	e.optNum("rel_energy_eff", r.RelEnergyEff)
	e.optNum("rel_area", r.RelArea)
	appendMap(e, "per_bsa_coverage", r.Coverage, (*encoder).num)
	appendMap(e, "params", r.Params, (*encoder).str)
	appendMap(e, "extra", r.Extra, (*encoder).num)
	e.buf = append(e.buf, "\n    }"...)
}

// field starts a row field after an earlier one.
func (e *encoder) field(name string) {
	e.buf = append(e.buf, ",\n      \""...)
	e.buf = append(e.buf, name...)
	e.buf = append(e.buf, "\": "...)
}

func (e *encoder) optStr(name, s string) {
	if s != "" {
		e.field(name)
		e.str(s)
	}
}

// optNum omits zero, -0 included, as omitempty does.
func (e *encoder) optNum(name string, f float64) {
	if f != 0 {
		e.field(name)
		e.num(f)
	}
}

// appendMap appends a non-empty map field with its keys sorted, the
// values always written.
func appendMap[V any](e *encoder, name string, m map[string]V, val func(*encoder, V)) {
	if len(m) == 0 {
		return
	}
	e.field(name)
	keys := e.keys[:0]
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	e.buf = append(e.buf, '{')
	for i, k := range keys {
		if i > 0 {
			e.buf = append(e.buf, ',')
		}
		e.buf = append(e.buf, "\n        "...)
		e.str(k)
		e.buf = append(e.buf, ": "...)
		val(e, m[k])
	}
	e.buf = append(e.buf, "\n      }"...)
	e.keys = keys
}

// plainASCII marks the bytes encoding/json writes as they are inside
// a string: printable ASCII but for '"', '\\' and the HTML characters.
var plainASCII = func() (t [256]bool) {
	for c := 0x20; c < 0x7f; c++ {
		t[c] = true
	}
	t['"'], t['\\'], t['<'], t['>'], t['&'] = false, false, false, false, false
	return t
}()

// str appends a JSON string. A string of plainASCII bytes is copied as
// is; any other goes through json.Marshal, which keeps its HTML,
// control-character, U+2028/U+2029 and invalid-UTF-8 escaping exactly.
func (e *encoder) str(s string) {
	for i := 0; i < len(s); i++ {
		if !plainASCII[s[i]] {
			q, _ := json.Marshal(s) // a string always marshals
			e.buf = append(e.buf, q...)
			return
		}
	}
	e.buf = append(e.buf, '"')
	e.buf = append(e.buf, s...)
	e.buf = append(e.buf, '"')
}

// num appends a float in encoding/json's ES6 form: 'f' format, or 'e'
// for magnitudes below 1e-6 or from 1e21 up, with a one-digit negative
// exponent unpadded (1e-7, not 1e-07).
func (e *encoder) num(f float64) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		if e.err == nil {
			e.err = fmt.Errorf("json: unsupported value: %s", strconv.FormatFloat(f, 'g', -1, 64))
		}
		return
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b := strconv.AppendFloat(e.buf, f, format, -1, 64)
	if n := len(b); format == 'e' && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	e.buf = b
}
