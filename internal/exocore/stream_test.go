package exocore

import (
	"reflect"
	"testing"

	"exocore/internal/cores"
	"exocore/internal/trace"
	"exocore/internal/workloads"
)

// TestRunStreamMatchesRun is the end-to-end identity gate for streaming
// evaluation: RunStream over a chunked source must agree exactly —
// cycles, energy counts, model attribution — with the materialized
// baseline Run, for every (bench, core, chunk size) combination,
// including chunk sizes far from the drive loop's natural boundaries.
func TestRunStreamMatchesRun(t *testing.T) {
	for _, bench := range []string{"cjpeg", "mm", "gzip"} {
		td := buildTDG(t, bench, 20_000)
		for _, core := range []cores.Config{cores.IO2, cores.OOO2, cores.OOO6} {
			whole, err := Run(td, core, nil, nil, nil, RunOpts{})
			if err != nil {
				t.Fatal(err)
			}
			for _, chunk := range []int{257, 4096, 65_536} {
				got, err := RunStream(trace.NewSliceSource(td.Trace, chunk), core, RunOpts{})
				if err != nil {
					t.Fatal(err)
				}
				if got.Cycles != whole.Cycles {
					t.Errorf("%s/%s chunk %d: cycles %d != %d",
						bench, core.Name, chunk, got.Cycles, whole.Cycles)
				}
				if got.Counts != whole.Counts {
					t.Errorf("%s/%s chunk %d: energy counts diverge",
						bench, core.Name, chunk)
				}
				if !reflect.DeepEqual(got.Models, whole.Models) {
					t.Errorf("%s/%s chunk %d: model attribution diverges",
						bench, core.Name, chunk)
				}
			}
		}
	}
}

// TestRunStreamFromGenerator closes the loop trace-side: a
// generator-driven workload source (chunks synthesized on demand, never
// a whole trace) evaluated by RunStream — pipelined behind a producer
// goroutine — must match the fully materialized Run.
func TestRunStreamFromGenerator(t *testing.T) {
	const maxDyn = 20_000
	for _, bench := range []string{"cjpeg", "bfs"} {
		td := buildTDG(t, bench, maxDyn)
		w, err := workloads.ByName(bench)
		if err != nil {
			t.Fatal(err)
		}
		for _, core := range []cores.Config{cores.IO2, cores.OOO6} {
			whole, err := Run(td, core, nil, nil, nil, RunOpts{})
			if err != nil {
				t.Fatal(err)
			}
			src := trace.NewPipelined(
				w.Source(workloads.SourceConfig{MaxDyn: maxDyn, ChunkInsts: 1 << 12}), 2)
			got, err := RunStream(src, core, RunOpts{})
			if err != nil {
				t.Fatal(err)
			}
			if got.Cycles != whole.Cycles || got.Counts != whole.Counts ||
				!reflect.DeepEqual(got.Models, whole.Models) {
				t.Errorf("%s/%s: generator-driven stream diverges from materialized run",
					bench, core.Name)
			}
		}
	}
}
