// Package validate reproduces the paper's §2.5 validation experiments
// (Table 1 and Figure 5):
//
//   - OOO cross-validation: the µDG graph model against the independent
//     cycle-level reference simulator (refsim), at 1-wide and 8-wide
//     design points, on performance (IPC) and energy efficiency (IPE);
//   - per-accelerator validation: the framework's projected speedup and
//     energy reduction for C-Cores, BERET, SIMD and DySER design points
//     against reference values digitized from the original publications
//     (approximate — see EXPERIMENTS.md for the fidelity discussion).
package validate

import (
	"fmt"
	"sort"

	"exocore/internal/bsa"
	"exocore/internal/bsa/ccores"
	"exocore/internal/bsa/tracep"
	"exocore/internal/cores"
	"exocore/internal/energy"
	"exocore/internal/exocore"
	"exocore/internal/refsim"
	"exocore/internal/runner"
	"exocore/internal/stats"
	"exocore/internal/tdg"
	"exocore/internal/trace"
	"exocore/internal/workloads"
)

// OOO1 and OOO8 are the extreme design points of the cross-validation.
var (
	OOO1 = cores.Config{
		Name: "OOO1", Width: 1, ROB: 32, Window: 16, DCachePorts: 1,
		IntAlu: 1, IntMulDiv: 1, FpUnits: 1, FrontendDepth: 8, AreaMM2: 1.8,
	}
	OOO8 = cores.Config{
		Name: "OOO8", Width: 8, ROB: 224, Window: 64, DCachePorts: 4,
		IntAlu: 5, IntMulDiv: 2, FpUnits: 4, FrontendDepth: 14, AreaMM2: 16.0,
	}
)

// Row is one benchmark's reference-vs-projected pair.
type Row struct {
	Bench     string
	Reference float64
	Projected float64
}

// Err returns the relative error of the row.
func (r Row) Err() float64 {
	if r.Reference == 0 {
		return 0
	}
	e := (r.Projected - r.Reference) / r.Reference
	if e < 0 {
		return -e
	}
	return e
}

// Report is one validation experiment (one Table 1 line).
type Report struct {
	Accel  string
	Base   string
	Perf   []Row
	Energy []Row
}

func errOf(rows []Row) float64 {
	var got, want []float64
	for _, r := range rows {
		got = append(got, r.Projected)
		want = append(want, r.Reference)
	}
	return stats.MeanAbsErr(got, want)
}

// PerfErr is the mean absolute relative performance error.
func (r *Report) PerfErr() float64 { return errOf(r.Perf) }

// EnergyErr is the mean absolute relative energy error.
func (r *Report) EnergyErr() float64 { return errOf(r.Energy) }

// Ranges returns (perfLo, perfHi, energyLo, energyHi) of reference values.
func (r *Report) Ranges() (float64, float64, float64, float64) {
	var p, e []float64
	for _, row := range r.Perf {
		p = append(p, row.Reference)
	}
	for _, row := range r.Energy {
		e = append(e, row.Reference)
	}
	pl, ph := stats.MinMax(p)
	el, eh := stats.MinMax(e)
	return pl, ph, el, eh
}

// crossBenches are the microbenchmark proxies for the paper's "vertical
// microbenchmarks" [2] used in the OOO cross-validation.
var crossBenches = []string{
	"mm", "stencil", "conv", "mcf", "gzip", "treesearch", "radar",
	"spmv", "kmeans", "merge", "vpr", "hmmer", "sad", "lbm", "tpch1",
}

// refEnergyNJ is the reference-side energy estimate: built independently
// of the µDG event stream, including the wrong-path fetch/decode work
// after mispredictions that the graph model does not capture.
func refEnergyNJ(cfg cores.Config, tr *trace.Trace, cycles int64) float64 {
	var c energy.Counts
	for i := 0; i < tr.Len(); i++ {
		in := tr.Static(i)
		d := &tr.Insts[i]
		c.Add(energy.EvFetch, 1)
		c.Add(energy.EvDecode, 1)
		c.Add(energy.EvCommit, 1)
		if !cfg.InOrder {
			c.Add(energy.EvRename, 1)
			c.Add(energy.EvIssueWakeup, 1)
			c.Add(energy.EvROB, 1)
		}
		if in.Src1.Valid() {
			c.Add(energy.EvRegRead, 1)
		}
		if in.Src2.Valid() {
			c.Add(energy.EvRegRead, 1)
		}
		if in.HasDst() {
			c.Add(energy.EvRegWrite, 1)
		}
		switch {
		case in.Op.IsMem():
			c.Add(energy.EvLSQ, 1)
			c.Add(energy.EvL1Access, 1)
			if d.Level >= trace.LevelL2 {
				c.Add(energy.EvL2Access, 1)
			}
			if d.Level >= trace.LevelMem {
				c.Add(energy.EvMemAccess, 1)
			}
		case in.Op.IsBranch():
			c.Add(energy.EvBpred, 1)
			c.Add(energy.EvIntAluOp, 1)
			if d.Mispredicted() {
				// Wrong-path work: roughly half the refill window of
				// fetch/decode at full width is wasted.
				waste := int64(cfg.Width * cfg.FrontendDepth / 2)
				c.Add(energy.EvFetch, waste)
				c.Add(energy.EvDecode, waste)
			}
		case in.Op.IsFp():
			c.Add(energy.EvFpAddOp, 1)
		default:
			c.Add(energy.EvIntAluOp, 1)
		}
	}
	tbl := energy.CoreTable(cfg.EnergyParams())
	return tbl.Evaluate(&c, cycles).TotalNJ()
}

// CrossValidate runs the OOO1/OOO8 cross-validation and returns two
// reports ("OOO8→1" and "OOO1→8" in Table 1's terms: the graph model
// projecting each extreme, judged against the independent reference).
// Each benchmark's trace comes from the engine, so it is built once and
// reused across both extreme design points (and by ValidateBSA on the
// same engine).
func CrossValidate(eng *runner.Engine) ([]Report, error) {
	var reports []Report
	for _, cfg := range []cores.Config{OOO1, OOO8} {
		rep := Report{Accel: "OOO-" + cfg.Name, Base: "-"}
		for _, name := range crossBenches {
			w, err := workloads.ByName(name)
			if err != nil {
				return nil, err
			}
			tr, err := eng.Trace(w)
			if err != nil {
				return nil, err
			}
			refCycles := refsim.Simulate(cfg, tr)
			dgCycles, counts := cores.Evaluate(cfg, tr)
			refIPC := float64(tr.Len()) / float64(refCycles)
			dgIPC := float64(tr.Len()) / float64(dgCycles)
			rep.Perf = append(rep.Perf, Row{Bench: name, Reference: refIPC, Projected: dgIPC})

			tbl := energy.CoreTable(cfg.EnergyParams())
			dgE := tbl.Evaluate(&counts, dgCycles).TotalNJ()
			refE := refEnergyNJ(cfg, tr, refCycles)
			// IPE: uops per microjoule.
			rep.Energy = append(rep.Energy, Row{
				Bench:     name,
				Reference: float64(tr.Len()) / refE,
				Projected: float64(tr.Len()) / dgE,
			})
		}
		reports = append(reports, rep)
	}
	return reports, nil
}

// published holds the digitized reference results per accelerator: map
// bench -> (speedup over base, energy relative to base). Values are
// approximate readings of the original publications' results (Figure 5's
// x-axes); see EXPERIMENTS.md.
var published = map[string]map[string][2]float64{
	// C-Cores (Venkatesh et al. [53]): speedups 0.84–1.2×, energy
	// 0.5–0.9× of the in-order host.
	"C-Cores": {
		"cjpeg2": {1.07, 0.72}, "djpeg2": {1.05, 0.74},
		"vpr": {1.14, 0.70}, "mcf429": {0.93, 0.88},
		"bzip2": {0.95, 0.80}, "bzip2-401": {0.95, 0.80},
	},
	// BERET (Gupta et al. [18]): speedups 0.82–1.17×, energy 0.46–0.99×.
	"BERET": {
		"mcf": {0.90, 0.70}, "mcf429": {0.90, 0.70},
		"gzip": {1.06, 0.90}, "vpr": {0.94, 0.92},
		"parser": {0.84, 0.80}, "bzip2": {0.88, 0.82},
		"cjpeg2": {1.04, 0.68}, "gsmdecode": {1.12, 0.58},
		"gsmencode": {1.08, 0.60},
	},
	// SIMD (gem5-measured in the paper): speedups 1.0–3.6×.
	"SIMD": {
		"conv": {3.50, 0.33}, "radar": {1.80, 0.55}, "mm": {2.55, 0.41},
		"stencil": {3.25, 0.36}, "lbm": {2.05, 0.47}, "nnw": {2.40, 0.44},
		"sad": {3.00, 0.38}, "fft": {1.15, 0.98}, "kmeans": {1.30, 0.74},
		"tpch1": {2.55, 0.58},
	},
	// DySER (Govindaraju et al. [17]): speedups 0.8–5.8×.
	"DySER": {
		"conv": {3.80, 0.30}, "nbody": {3.80, 0.31}, "radar": {1.90, 0.53},
		"cutcp": {3.60, 0.32}, "kmeans": {1.10, 0.78}, "lbm": {3.60, 0.31},
		"mm": {2.15, 0.48}, "spmv": {3.05, 0.46}, "stencil": {2.90, 0.39},
		"vr": {3.30, 0.35},
	},
}

// bsaSetup maps a validation line to its model constructor and base core.
var bsaSetup = map[string]struct {
	base  cores.Config
	model func() tdg.BSA
}{
	"C-Cores": {cores.IO2, func() tdg.BSA { return ccores.New() }},
	"BERET":   {cores.IO2, func() tdg.BSA { return tracep.NewBERET() }},
	"SIMD":    {cores.OOO4, registryModel("SIMD")},
	"DySER":   {cores.OOO4, registryModel("DP-CGRA")},
}

// registryModel resolves a default-parameter model through the shared
// BSA registry, so validation exercises the exact constructors every
// tool uses; published-accelerator proxies with non-default parameters
// (C-Cores, BERET) keep their direct constructors.
func registryModel(name string) func() tdg.BSA {
	return func() tdg.BSA {
		m, err := bsa.Default().NewOne(name)
		if err != nil {
			panic(err)
		}
		return m
	}
}

// ValidateBSA measures projected speedup and energy reduction for one
// accelerator over its validation benchmarks and pairs them with the
// published references. Benchmarks shared between accelerator lines
// (vpr, mcf429, cjpeg2, ...) reuse the engine's cached trace and TDG
// instead of rebuilding them per line.
func ValidateBSA(eng *runner.Engine, accel string) (Report, error) {
	setup, ok := bsaSetup[accel]
	if !ok {
		return Report{}, fmt.Errorf("validate: unknown accelerator %q", accel)
	}
	pub := published[accel]
	var benches []string
	for b := range pub {
		benches = append(benches, b)
	}
	sort.Strings(benches)

	rep := Report{Accel: accel, Base: setup.base.Name}
	for _, bench := range benches {
		w, err := workloads.ByName(bench)
		if err != nil {
			return Report{}, err
		}
		td, err := eng.TDG(w)
		if err != nil {
			return Report{}, err
		}
		model := setup.model()
		bsas := map[string]tdg.BSA{model.Name(): model}
		plans := map[string]*tdg.Plan{model.Name(): model.Analyze(td)}

		base, err := exocore.Run(td, setup.base, bsas, plans, nil, exocore.RunOpts{})
		if err != nil {
			return Report{}, err
		}
		assign := exocore.Assignment{}
		// Assign every planned region; outermost-wins resolves nesting.
		for l := range plans[model.Name()].Regions {
			assign[l] = model.Name()
		}
		acc, err := exocore.Run(td, setup.base, bsas, plans, assign, exocore.RunOpts{})
		if err != nil {
			return Report{}, err
		}
		baseE := exocore.EnergyOf(base, setup.base, bsas).TotalNJ()
		accE := exocore.EnergyOf(acc, setup.base, bsas).TotalNJ()

		rep.Perf = append(rep.Perf, Row{
			Bench:     bench,
			Reference: pub[bench][0],
			Projected: float64(base.Cycles) / float64(acc.Cycles),
		})
		rep.Energy = append(rep.Energy, Row{
			Bench:     bench,
			Reference: pub[bench][1],
			Projected: accE / baseE,
		})
	}
	return rep, nil
}

// Table1 runs the full validation suite (the paper's Table 1) on a
// shared evaluation engine; the six experiment lines reuse each other's
// cached traces and TDGs, and the accelerator lines run over the
// engine's worker pool.
func Table1(eng *runner.Engine) ([]Report, error) {
	reports, err := CrossValidate(eng)
	if err != nil {
		return nil, err
	}
	accels := []string{"C-Cores", "BERET", "SIMD", "DySER"}
	accelReps, err := runner.Map(eng, len(accels), func(i int) (Report, error) {
		return ValidateBSA(eng, accels[i])
	})
	if err != nil {
		return nil, err
	}
	return append(reports, accelReps...), nil
}
