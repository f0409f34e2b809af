package serve

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"

	"exocore/internal/dse"
	"exocore/internal/runner"
)

// fuzzEngine resolves fuzzed requests; resolution never evaluates, so
// one engine serves every input.
var fuzzEngine = runner.New(runner.Options{MaxDyn: testMaxDyn})

// FuzzEvalRequest: decoding and resolving any /v1/evaluate body must not
// panic, an accepted body must be one JSON value followed only by
// whitespace, and an accepted request's canonical form — its resolved
// benchmark names, core, BSA list and scheduler — must resolve to the
// same coalescing key.
func FuzzEvalRequest(f *testing.F) {
	for _, s := range []string{
		`{"bench":"mm"}`,
		`{"bench":"quick","core":"IO2","bsas":"SIMD,NS-DF","sched":"amdahl"}`,
		`{"bench":"mm,gzip","bsas":"none","maxdyn":10000,"deadline_ms":5}`,
		`{"bench":"all","bsas":"all"}`,
		`{"bench":"mm","core":"Pentium"}`,
		`{"bench":"mm","bsas":"GPU"}`,
		`{"bench":"mm","maxdyn":7}`,
		`{"bench":"mm","nope":1}`,
		`{"bench":"mm"} {}`,
		`{"bench":""}`,
		`{"bench":["mm"]}`,
		`[]`, `null`, `{`, ``,
		`{"bench":"mm"} }`, `{"bench":"mm"}]`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var req EvalRequest
		if err := DecodeJSON(httptest.NewRequest("POST", "/v1/evaluate", strings.NewReader(string(body))), &req); err != nil {
			return
		}
		if !json.Valid(body) {
			t.Fatalf("%q: accepted a body that is not one JSON value followed only by whitespace", body)
		}
		q, err := resolveEval(req, fuzzEngine)
		if err != nil {
			return
		}
		names := make([]string, len(q.wls))
		for i, w := range q.wls {
			names[i] = w.Name
		}
		bsas := strings.Join(q.bsas, ",")
		if bsas == "" {
			bsas = "none"
		}
		canon := EvalRequest{Bench: strings.Join(names, ","), Core: q.core.Name, BSAs: bsas, Sched: q.sched}
		q2, err := resolveEval(canon, fuzzEngine)
		if err != nil || q2.key() != q.key() {
			t.Fatalf("%s: canonical %+v resolves to %q (%v), want %q", body, canon, q2.key(), err, q.key())
		}
	})
}

// FuzzSweepRequest: decoding and resolving any /v1/sweep body must not
// panic, an accepted body must be one JSON value followed only by
// whitespace, an accepted request's design codes must all parse, and its
// canonical form must resolve to the same coalescing key.
func FuzzSweepRequest(f *testing.F) {
	for _, s := range []string{
		`{}`,
		`{"bench":"mm","designs":["IO2","OOO2-SDN"],"partial":true}`,
		`{"bench":"quick","sched":"amdahl","async":true}`,
		`{"designs":["OOO2-Q"]}`,
		`{"designs":["Pentium-S"]}`,
		`{"designs":"OOO2"}`,
		`{"bench":"nosuch"}`,
		`{"maxdyn":1}`,
		`{"partial":true,"x":1}`,
		`{} []`, `[`, ``,
		`{"bench":"mm"} }`, `{"bench":"mm"}]`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var req SweepRequest
		if err := DecodeJSON(httptest.NewRequest("POST", "/v1/sweep", strings.NewReader(string(body))), &req); err != nil {
			return
		}
		if !json.Valid(body) {
			t.Fatalf("%q: accepted a body that is not one JSON value followed only by whitespace", body)
		}
		q, err := resolveSweep(req, fuzzEngine)
		if err != nil {
			return
		}
		for _, code := range q.designs {
			if _, _, err := dse.ParseDesignCodeIn(fuzzEngine.BSAs(), code); err != nil {
				t.Fatalf("%s: accepted design %q does not parse: %v", body, code, err)
			}
		}
		names := make([]string, len(q.wls))
		for i, w := range q.wls {
			names[i] = w.Name
		}
		canon := SweepRequest{Bench: strings.Join(names, ","), Designs: q.designs, Sched: q.sched, Partial: q.partial}
		q2, err := resolveSweep(canon, fuzzEngine)
		if err != nil || q2.key() != q.key() {
			t.Fatalf("%s: canonical %+v resolves to %q (%v), want %q", body, canon, q2.key(), err, q.key())
		}
	})
}
