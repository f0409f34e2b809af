// Package report defines the one versioned JSON result schema shared by
// every cmd/ tool's -json mode, so downstream scripts parse a single
// format instead of seven bespoke text layouts.
//
// A document is a flat list of results — one per (design point,
// benchmark) observation, with aggregate rows carrying an empty Bench —
// plus the engine's per-stage metrics. Results are always emitted sorted
// by (benchmark, design) so output is byte-stable across runs and across
// worker counts.
//
// Every producer renders through Document.Render: the tools' -json, the
// daemon's response bodies, the fabric's merged documents. It is a
// schema encoder that appends exactly the bytes encoding/json's indented
// Encoder would write for a Document, without reflection; the package's
// tests hold it to that reference. Decode is the strict reader.
package report

import (
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"strings"

	"exocore/internal/runner"
)

// Schema identifies the document format. Bump the suffix on any
// backwards-incompatible change.
const Schema = "exocore-result/v1"

// Result is one observation: a design point evaluated on a benchmark (or
// an aggregate over benchmarks when Bench is empty). Numeric fields that
// do not apply to a tool are simply omitted.
type Result struct {
	// Design is the design-point code, eg. "OOO2-SDN" or "IO2".
	Design string `json:"design"`
	// Core is the general-core name component, eg. "OOO2".
	Core string `json:"core,omitempty"`
	// BSAs lists the accelerators present in the design.
	BSAs []string `json:"bsas,omitempty"`
	// Bench is the benchmark name; empty for aggregate rows.
	Bench string `json:"bench,omitempty"`
	// Category is the workload category, when the row is per-category.
	Category string `json:"category,omitempty"`

	Cycles       int64   `json:"cycles,omitempty"`
	EnergyNJ     float64 `json:"energy_nj,omitempty"`
	AreaMM2      float64 `json:"area_mm2,omitempty"`
	RelPerf      float64 `json:"rel_perf,omitempty"`
	RelEnergyEff float64 `json:"rel_energy_eff,omitempty"`
	RelArea      float64 `json:"rel_area,omitempty"`

	// Coverage is the per-BSA share of execution cycles ("" in the
	// engine becomes "GPP" here; values sum to ~1 for full rows).
	Coverage map[string]float64 `json:"per_bsa_coverage,omitempty"`

	// Params carries tool-specific string dimensions (eg. sweep/variant
	// labels, scheduler names) without widening the schema per tool.
	Params map[string]string `json:"params,omitempty"`
	// Extra carries tool-specific scalars (eg. local_speedup,
	// unaccelerated_frac) under stable snake_case keys.
	Extra map[string]float64 `json:"extra,omitempty"`
}

// Document is the top-level JSON object every tool emits under -json.
type Document struct {
	Schema  string   `json:"schema"`
	Tool    string   `json:"tool"`
	Results []Result `json:"results"`
	// Metrics is the evaluation engine's per-stage snapshot (cache
	// hit/miss counters, wall clock, instruction counts).
	Metrics *runner.Metrics `json:"metrics,omitempty"`
}

// New creates an empty document for a tool.
func New(tool string) *Document {
	return &Document{Schema: Schema, Tool: tool}
}

// Add appends results.
func (d *Document) Add(rs ...Result) {
	d.Results = append(d.Results, rs...)
}

// Sort orders results by (bench, design, category, params) — the stable
// key the spec requires before printing. Aggregate rows (empty Bench)
// sort before per-bench rows of the same design. Each row's params key
// is built once, rows are compared in place and moved once.
func (d *Document) Sort() {
	rs := d.Results
	keys := make([]string, len(rs))
	perm := make([]int, len(rs))
	for i := range rs {
		keys[i] = paramsKey(rs[i].Params)
		perm[i] = i
	}
	slices.SortStableFunc(perm, func(i, j int) int {
		a, b := &rs[i], &rs[j]
		if c := strings.Compare(a.Bench, b.Bench); c != 0 {
			return c
		}
		if c := strings.Compare(a.Design, b.Design); c != 0 {
			return c
		}
		if c := strings.Compare(a.Category, b.Category); c != 0 {
			return c
		}
		return strings.Compare(keys[i], keys[j])
	})
	// perm[i] is the row that belongs at i: follow each cycle once.
	for i := range perm {
		if perm[i] == i {
			continue
		}
		held, j := rs[i], i
		for perm[j] != i {
			next := perm[j]
			rs[j], perm[j] = rs[next], j
			j = next
		}
		rs[j], perm[j] = held, j
	}
}

// paramsKey renders params as "k=v;" terms in key order, the sort and
// overlap key's last component.
func paramsKey(p map[string]string) string {
	if len(p) == 0 {
		return ""
	}
	var small [8]string
	keys, n := small[:0], 0
	for k, v := range p {
		keys = append(keys, k)
		n += len(k) + len(v) + 2
	}
	slices.Sort(keys)
	var sb strings.Builder
	sb.Grow(n)
	for _, k := range keys {
		sb.WriteString(k)
		sb.WriteByte('=')
		sb.WriteString(p[k])
		sb.WriteByte(';')
	}
	return sb.String()
}

// Write sorts the results and writes the document's Render bytes.
func (d *Document) Write(w io.Writer) error {
	b, err := d.Render()
	if err != nil {
		return err
	}
	_, err = w.Write(b)
	return err
}

// Decode is the strict reader for documents this package wrote: it
// parses one JSON document and rejects unknown fields, any data after
// the document and anything that does not declare the exact schema
// version this build speaks. Consumers that read documents from
// elsewhere (the fabric's shards, Merge, the smoke gates) use it so a
// skewed row or a version mismatch is a loud error instead of a
// silently half-decoded document.
func Decode(r io.Reader) (*Document, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var d Document
	if err := dec.Decode(&d); err != nil {
		return nil, fmt.Errorf("report: decode: %w", err)
	}
	// More alone would pass a stray '}' or ']': only whitespace may follow.
	if _, err := dec.Token(); err != io.EOF {
		return nil, fmt.Errorf("report: decode: data after the document")
	}
	if d.Schema != Schema {
		return nil, fmt.Errorf("report: unsupported schema %q (this build speaks %q)", d.Schema, Schema)
	}
	return &d, nil
}
