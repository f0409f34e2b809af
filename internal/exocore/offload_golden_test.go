package exocore

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"exocore/internal/bsa/ccores"
	"exocore/internal/bsa/gsdae"
	"exocore/internal/bsa/nsdf"
	"exocore/internal/bsa/tracep"
	"exocore/internal/bsa/xloops"
	"exocore/internal/cores"
	"exocore/internal/dg"
	"exocore/internal/energy"
	"exocore/internal/tdg"
)

var updateOffload = flag.Bool("update", false, "rewrite the offload-model golden")

// offloadRow is one golden record: a model assigned alone to one loop
// of its plan.
type offloadRow struct {
	Model   string             `json:"model"`
	Bench   string             `json:"bench"`
	Core    string             `json:"core"`
	Loop    int                `json:"loop"`
	Cycles  int64              `json:"cycles"`
	Counts  map[string]int64   `json:"counts"`
	Regions []offloadRegionRow `json:"regions"`
}

type offloadRegionRow struct {
	Loop    int              `json:"loop"`
	BSA     string           `json:"bsa"`
	Dyn     int64            `json:"dyn"`
	Cycles  int64            `json:"cycles"`
	Classes map[string]int64 `json:"classes"`
}

func nonZeroCounts(c *energy.Counts) map[string]int64 {
	m := map[string]int64{}
	for e, v := range c {
		if v != 0 {
			m[energy.Event(e).String()] = v
		}
	}
	return m
}

// TestOffloadModelsMatchGolden pins the offload models — NS-DF, Trace-P,
// BERET, XLoops, C-Cores and GS-DAE: each is assigned alone to every loop
// it plans, one loop per run, on cjpeg, mm, gzip, bfs, vr, vpr and bzip2
// at 10k instructions, on IO2 and OOO2, and every RecordRegions run's
// cycles, energy counts and per-region critical-path classes must match
// the golden byte for byte.
// Regenerating it (-update) is only legitimate when a model's timing
// itself changes.
func TestOffloadModelsMatchGolden(t *testing.T) {
	models := []tdg.BSA{nsdf.New(), tracep.New(), tracep.NewBERET(), xloops.New(), ccores.New(), gsdae.New()}
	var got bytes.Buffer
	enc := json.NewEncoder(&got)
	for _, bench := range []string{"cjpeg", "mm", "gzip", "bfs", "vr", "vpr", "bzip2"} {
		td := buildTDG(t, bench, 10_000)
		for _, m := range models {
			name := m.Name()
			bsas := map[string]tdg.BSA{name: m}
			plans := map[string]*tdg.Plan{name: m.Analyze(td)}
			loops := make([]int, 0, len(plans[name].Regions))
			for l := range plans[name].Regions {
				loops = append(loops, l)
			}
			sort.Ints(loops)
			for _, core := range []cores.Config{cores.IO2, cores.OOO2} {
				for _, l := range loops {
					res, err := Run(td, core, bsas, plans, Assignment{l: name}, RunOpts{RecordRegions: true})
					if err != nil {
						t.Fatal(err)
					}
					row := offloadRow{Model: name, Bench: bench, Core: core.Name, Loop: l,
						Cycles: res.Cycles, Counts: nonZeroCounts(&res.Counts)}
					for _, r := range res.Regions {
						classes := map[string]int64{}
						for c, v := range r.Classes {
							if v != 0 {
								classes[dg.EdgeClass(c).String()] = v
							}
						}
						row.Regions = append(row.Regions, offloadRegionRow{
							Loop: r.LoopID, BSA: r.BSA, Dyn: r.Dyn, Cycles: r.Cycles, Classes: classes})
					}
					if err := enc.Encode(&row); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
	}

	path := filepath.Join("testdata", "offload_models.golden.jsonl")
	if *updateOffload {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", path, got.Len())
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	gotLines, wantLines := bytes.Split(got.Bytes(), []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := range gotLines {
		if i >= len(wantLines) || !bytes.Equal(gotLines[i], wantLines[i]) {
			var w []byte
			if i < len(wantLines) {
				w = wantLines[i]
			}
			t.Fatalf("%s line %d:\ngot:    %s\ngolden: %s", path, i+1, gotLines[i], w)
		}
	}
	if len(gotLines) != len(wantLines) {
		t.Fatalf("%s: %d lines, golden has %d", path, len(gotLines), len(wantLines))
	}
}
