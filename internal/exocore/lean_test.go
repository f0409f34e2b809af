package exocore

import (
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"

	"exocore/internal/bsa"
	"exocore/internal/cores"
	"exocore/internal/tdg"
	"exocore/internal/trace"
)

// leanBenches holds one benchmark per workload family (the streaming
// exemplars, bfs among them, plus TPC-H, which nominates none).
var leanBenches = []string{"cjpeg", "mm", "fft", "milc", "gzip", "conv", "bfs", "tpch1"}

// sameRun reports the first way two run results differ in cycles,
// energy counts, per-model attribution or offload cycles.
func sameRun(a, b *RunResult) string {
	switch {
	case a.Cycles != b.Cycles:
		return "cycles"
	case a.Counts != b.Counts:
		return "energy counts"
	case !reflect.DeepEqual(a.Models, b.Models):
		return "model attribution"
	case a.OffloadCycles != b.OffloadCycles:
		return "offload cycles"
	}
	return ""
}

// TestLeanRunMatchesAttribution holds lean runs to attributed ones: a
// lean Run — the lean step, per-segment retirement, and through a Cache
// also delta composition — must equal an uncached RecordRegions Run,
// whose core takes the attributed step and whose transforms build
// attribution graphs that are never retired. (The attributed step itself
// is held to the node-form core by the cores package's differential
// tests.) The corpus is one benchmark per family × every core × random
// assignments drawn over every registered BSA; each cache first runs the
// baseline, so the assigned runs compose partly from cached units.
func TestLeanRunMatchesAttribution(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	bsas := bsa.Default().New()
	for _, bench := range leanBenches {
		td := buildTDG(t, bench, 20000)
		plans := analyzeAll(td, bsas)
		var loops []int
		cands := make(map[int][]string)
		for l := range td.Nest.Loops {
			for _, n := range bsa.Default().Names() {
				if plans[n].Region(l) != nil {
					cands[l] = append(cands[l], n)
				}
			}
			if len(cands[l]) > 0 {
				loops = append(loops, l)
			}
		}
		sort.Ints(loops)
		for _, core := range cores.Configs {
			cache := NewCache(core)
			assigns := []Assignment{nil}
			for trial := 0; trial < 4; trial++ {
				a := Assignment{}
				for _, l := range loops {
					if rng.Intn(2) == 0 {
						a[l] = cands[l][rng.Intn(len(cands[l]))]
					}
				}
				assigns = append(assigns, a)
			}
			for _, a := range assigns {
				ref, err := Run(td, core, bsas, plans, a, RunOpts{RecordRegions: true})
				if err != nil {
					t.Fatal(err)
				}
				for _, opts := range []RunOpts{{}, {Cache: cache}} {
					got, err := Run(td, core, bsas, plans, a, opts)
					if err != nil {
						t.Fatal(err)
					}
					if d := sameRun(got, ref); d != "" {
						t.Errorf("%s/%s %v (cached %v): lean %s differ from attribution",
							bench, core.Name, a, opts.Cache != nil, d)
					}
				}
			}
		}
	}
}

// streamRefs memoizes FuzzRunStreamChunks' per-(bench, core) oracle.
var streamRefs struct {
	sync.Mutex
	tdgs map[string]*tdg.TDG
	runs map[[2]string]*RunResult
}

// FuzzRunStreamChunks: RunStream over a SliceSource cut into chunks of
// any size from 1 to 65536 instructions must equal the attribution-mode
// Run of the whole trace, for every benchmark family and core. The seed
// corpus runs with the ordinary tests; `make fuzz` explores further.
func FuzzRunStreamChunks(f *testing.F) {
	for i := range leanBenches {
		f.Add(uint8(i), uint8(i), uint32(i*4093))
	}
	f.Add(uint8(0), uint8(1), uint32(0))     // one-instruction chunks
	f.Add(uint8(3), uint8(2), uint32(65535)) // one chunk
	f.Fuzz(func(t *testing.T, bench, core uint8, chunk uint32) {
		name := leanBenches[int(bench)%len(leanBenches)]
		cfg := cores.Configs[int(core)%len(cores.Configs)]
		streamRefs.Lock()
		if streamRefs.tdgs == nil {
			streamRefs.tdgs = make(map[string]*tdg.TDG)
			streamRefs.runs = make(map[[2]string]*RunResult)
		}
		td := streamRefs.tdgs[name]
		if td == nil {
			td = buildTDG(t, name, 6000)
			streamRefs.tdgs[name] = td
		}
		ref := streamRefs.runs[[2]string{name, cfg.Name}]
		if ref == nil {
			var err error
			if ref, err = Run(td, cfg, nil, nil, nil, RunOpts{RecordRegions: true}); err != nil {
				t.Fatal(err)
			}
			streamRefs.runs[[2]string{name, cfg.Name}] = ref
		}
		streamRefs.Unlock()

		size := 1 + int(chunk%65536)
		got, err := RunStream(trace.NewSliceSource(td.Trace, size), cfg, RunOpts{})
		if err != nil {
			t.Fatal(err)
		}
		if d := sameRun(got, ref); d != "" {
			t.Fatalf("%s/%s chunk %d: streamed %s differ from attribution run", name, cfg.Name, size, d)
		}
	})
}
