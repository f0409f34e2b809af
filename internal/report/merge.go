package report

import (
	"bytes"
	"fmt"
)

// Merge combines partial documents — each the rendered bytes of one
// Document — into one final document, byte-identical to rendering all
// the parts' results through a single Document.Render (the stable
// (bench, design, category, params) sort makes this a pure ordered
// merge; no numeric content is recomputed). It is the merge step under
// the sweep fabric's coordinator, so it is strict: every part must
// declare this build's exact schema version, all parts must agree on
// the tool name, no part may carry a metrics attachment (per-replica
// metrics cannot be merged into one engine snapshot), and two parts
// claiming the same (bench, design, category, params) row — overlapping
// shards — are rejected rather than silently double-counted.
func Merge(parts ...[]byte) ([]byte, error) {
	if len(parts) == 0 {
		return nil, fmt.Errorf("report: merge of zero parts")
	}
	out := New("")
	seen := make(map[string]int, 64)
	for i, part := range parts {
		d, err := Decode(bytes.NewReader(part))
		if err != nil {
			return nil, fmt.Errorf("report: merge part %d: %w", i, err)
		}
		if i == 0 {
			out.Tool = d.Tool
		} else if d.Tool != out.Tool {
			return nil, fmt.Errorf("report: merge part %d: tool %q conflicts with part 0's %q", i, d.Tool, out.Tool)
		}
		if d.Metrics != nil {
			return nil, fmt.Errorf("report: merge part %d: carries an engine metrics attachment", i)
		}
		for _, r := range d.Results {
			key := r.Bench + "\x00" + r.Design + "\x00" + r.Category + "\x00" + paramsKey(r.Params)
			if prev, dup := seen[key]; dup {
				return nil, fmt.Errorf("report: merge part %d: row (bench=%q design=%q category=%q) overlaps part %d",
					i, r.Bench, r.Design, r.Category, prev)
			}
			seen[key] = i
		}
		out.Add(d.Results...)
	}
	return out.Render()
}
