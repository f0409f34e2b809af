// Package dse drives the paper's design-space exploration (§5): all
// combinations of the four general cores and every subset of the
// registered BSAs (4 cores × 2^N subsets; 64 designs for the paper's
// original four models, 128 with GS-DAE registered), evaluated over the
// full workload suite with the Oracle scheduler (one result set uses the
// Amdahl-tree scheduler for the §5.4 comparison). The grid follows the
// engine's bsa.Registry, so registering a model grows the sweep without
// touching this package. All pipeline stages — trace, TDG, scheduling
// context, assignment evaluation — run through the shared runner.Engine,
// so per-(benchmark, core) artifacts are built once and identical
// assignments across subsets are evaluated once.
package dse

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"

	"exocore/internal/area"
	"exocore/internal/bsa"
	"exocore/internal/cores"
	"exocore/internal/report"
	"exocore/internal/runner"
	"exocore/internal/stats"
	"exocore/internal/tdg"
	"exocore/internal/workloads"
)

// DesignCodeIn names a design point: the core and the BSAs mask selects
// from reg (bit i = entry i), eg. "OOO2-SDN", or just "IO2" for no BSAs.
func DesignCodeIn(reg *bsa.Registry, core cores.Config, mask int) string {
	s := reg.SubsetName(mask)
	if s == "" {
		return core.Name
	}
	return core.Name + "-" + s
}

// ParseDesignCodeIn inverts DesignCodeIn: "OOO2-SDN" → (OOO2 config,
// mask for SIMD+DP-CGRA+NS-DF). A bare core name parses as the empty
// subset. The daemon validates request design codes against its
// engine's (possibly restricted) registry, so a letter outside that
// registry is a client error, not a silent full-registry fallback.
func ParseDesignCodeIn(reg *bsa.Registry, code string) (cores.Config, int, error) {
	name, letters, _ := strings.Cut(code, "-")
	core, ok := cores.ConfigByName(name)
	if !ok {
		return cores.Config{}, 0, fmt.Errorf("dse: unknown core %q in design %q", name, code)
	}
	mask, err := reg.ParseLetters(letters)
	if err != nil {
		return cores.Config{}, 0, fmt.Errorf("dse: design %q: %w", code, err)
	}
	return core, mask, nil
}

// BenchResult is one benchmark's outcome on one design point.
type BenchResult struct {
	Bench    string
	Category workloads.Category
	Cycles   int64
	EnergyNJ float64
}

// DesignResult aggregates one design point.
type DesignResult struct {
	Core cores.Config
	// Mask selects BSAs by bit position in the exploration's registry
	// (the engine's, which may be a restricted subset of the default).
	Mask int
	// BSAs is the resolved model-name list the mask selects.
	BSAs     []string
	Code     string
	AreaMM2  float64
	PerBench []BenchResult

	// Aggregates relative to the reference design (set by Explore).
	RelPerf      float64
	RelEnergyEff float64
	RelArea      float64
}

// Options configures an exploration.
type Options struct {
	// Workloads restricts the benchmark set (nil = all).
	Workloads []*workloads.Workload
	// Cores restricts the core set (nil = all four).
	Cores []cores.Config
	// Sched names the scheduler (sched.Names): "amdahl" selects the
	// Amdahl tree, any other name the Oracle.
	Sched string
	// Engine is the evaluation engine (required). It fixes the budget,
	// the worker bound and the BSA registry, and repeated explorations
	// (or other tools in the same process) reuse its artifact caches.
	Engine *runner.Engine
	// Designs, if non-empty, restricts the sweep to these design codes
	// (eg. "OOO2-SDN"), evaluated in the given order with duplicates
	// collapsed, instead of the full cores × 2^N-subset grid. Rel*
	// aggregates are normalized against the reference design only when
	// the list contains it; otherwise they stay zero.
	Designs []string
}

// Exploration is the full design-space result.
type Exploration struct {
	Designs []DesignResult
	// Reference is the design all Rel* metrics are normalized to (IO2
	// with no BSAs, as in Figure 12).
	Reference string
}

// Explore runs the full exploration.
func Explore(opts Options) (*Exploration, error) {
	return ExploreCtx(context.Background(), opts)
}

// ExploreCtx is Explore with cancellation: a done ctx stops workers from
// claiming new (bench, core) warm-ups or design evaluations and the
// exploration returns the ctx error. The evaluation daemon threads each
// request's ctx through here so disconnected sweep clients stop burning
// workers.
func ExploreCtx(ctx context.Context, opts Options) (*Exploration, error) {
	eng := opts.Engine
	if eng == nil {
		return nil, errors.New("dse: Options.Engine is required")
	}
	ws := opts.Workloads
	if ws == nil {
		ws = workloads.All()
	}
	reg := eng.BSAs()

	// Resolve the design grid: the full cores × 2^N-subset cross product
	// over the engine's registry, or an explicit design-code list.
	protos, cs, err := designGrid(reg, opts.Designs, opts.Cores)
	if err != nil {
		return nil, err
	}

	// Phase 1: warm the per-(bench, core) scheduling contexts in
	// parallel. The engine computes each exactly once.
	type pair struct {
		w    *workloads.Workload
		core cores.Config
	}
	var pairs []pair
	for _, w := range ws {
		for _, core := range cs {
			pairs = append(pairs, pair{w, core})
		}
	}
	if err := eng.ForEachCtx(ctx, len(pairs), func(i int) error {
		_, err := eng.ContextCtx(ctx, pairs[i].w, pairs[i].core)
		return err
	}); err != nil {
		return nil, err
	}

	// Phase 2: evaluate every design point. Designs are laid out in a
	// fixed order and filled by index, so the result is identical
	// regardless of worker count or completion order; the engine's eval
	// cache deduplicates identical assignments across subsets.
	designs, err := runner.MapCtx(ctx, eng, len(protos), func(di int) (DesignResult, error) {
		d := protos[di]
		avail := d.BSAs
		for _, w := range ws {
			sc, err := eng.ContextCtx(ctx, w, d.Core)
			if err != nil {
				return d, err
			}
			cycles, energy, err := eng.EvaluateCtx(ctx, w, d.Core, sc.Assign(opts.Sched, avail))
			if err != nil {
				return d, err
			}
			d.PerBench = append(d.PerBench, BenchResult{
				Bench: w.Name, Category: w.Category,
				Cycles: cycles, EnergyNJ: energy,
			})
		}
		sort.Slice(d.PerBench, func(a, b int) bool { return d.PerBench[a].Bench < d.PerBench[b].Bench })
		return d, nil
	})
	if err != nil {
		return nil, err
	}

	exp := &Exploration{Designs: designs, Reference: "IO2"}
	exp.Normalize()
	return exp, nil
}

// designGrid resolves a design list into evaluation-ready prototypes
// (code, BSA names, area — everything but the measurements) plus the
// distinct cores involved. An explicit code list is kept in order with
// canonical duplicates collapsed; an empty list expands to the full
// cs × 2^N-subset cross product (cs nil = all four cores). This is the
// single grid-resolution path, shared by ExploreCtx and by the fabric
// coordinator's shell (NewShell), so both agree on design identity,
// order and area to the last bit.
func designGrid(reg *bsa.Registry, designs []string, cs []cores.Config) ([]DesignResult, []cores.Config, error) {
	if cs == nil {
		cs = cores.Configs
	}
	type point struct {
		core cores.Config
		mask int
	}
	var points []point
	if len(designs) > 0 {
		seen := make(map[string]bool, len(designs))
		csSeen := make(map[string]bool)
		cs = nil
		for _, code := range designs {
			core, mask, err := ParseDesignCodeIn(reg, code)
			if err != nil {
				return nil, nil, err
			}
			if canon := DesignCodeIn(reg, core, mask); seen[canon] {
				continue
			} else {
				seen[canon] = true
			}
			points = append(points, point{core, mask})
			if !csSeen[core.Name] {
				csSeen[core.Name] = true
				cs = append(cs, core)
			}
		}
	} else {
		for _, core := range cs {
			for mask := 0; mask < 1<<reg.Len(); mask++ {
				points = append(points, point{core, mask})
			}
		}
	}

	// Area accounting is stateless, so one BSA set and one model slice
	// per mask serve every core instead of being rebuilt per design.
	set := reg.New()
	maskModels := make([][]tdg.BSA, 1<<reg.Len())
	for mask := 1; mask < len(maskModels); mask++ {
		for _, n := range reg.SubsetNames(mask) {
			maskModels[mask] = append(maskModels[mask], set[n])
		}
	}
	protos := make([]DesignResult, 0, len(points))
	for _, p := range points {
		protos = append(protos, DesignResult{
			Core: p.core, Mask: p.mask,
			BSAs:    reg.SubsetNames(p.mask),
			Code:    DesignCodeIn(reg, p.core, p.mask),
			AreaMM2: area.Total(p.core, maskModels[p.mask]),
		})
	}
	return protos, cs, nil
}

// GridCodes enumerates the design codes a sweep would evaluate: the
// explicit list canonicalized with duplicates collapsed, or (for an
// empty list) the full cores × subsets grid over reg. The fabric
// coordinator uses it to shard exactly the grid a single daemon would
// sweep.
func GridCodes(reg *bsa.Registry, designs []string, cs []cores.Config) ([]string, error) {
	protos, _, err := designGrid(reg, designs, cs)
	if err != nil {
		return nil, err
	}
	codes := make([]string, len(protos))
	for i := range protos {
		codes[i] = protos[i].Code
	}
	return codes, nil
}

// NewShell builds an Exploration over the given design codes with
// every measurement still missing: the grid-derived identity (codes,
// BSA lists, areas) is filled in, PerBench is empty. The fabric
// coordinator reassembles sharded sweep results into a shell via
// AddBench + Normalize, reproducing ExploreCtx's aggregates bit for
// bit without re-evaluating anything.
func NewShell(reg *bsa.Registry, designs []string, cs []cores.Config) (*Exploration, error) {
	protos, _, err := designGrid(reg, designs, cs)
	if err != nil {
		return nil, err
	}
	return &Exploration{Designs: protos, Reference: "IO2"}, nil
}

// AddBench appends one benchmark observation to the named design
// (call Normalize once all observations are in).
func (e *Exploration) AddBench(code string, b BenchResult) error {
	d := e.Design(code)
	if d == nil {
		return fmt.Errorf("dse: AddBench: unknown design %q", code)
	}
	for _, have := range d.PerBench {
		if have.Bench == b.Bench {
			return fmt.Errorf("dse: AddBench: design %q already has bench %q", code, b.Bench)
		}
	}
	d.PerBench = append(d.PerBench, b)
	return nil
}

// Normalize sorts each design's per-benchmark results by benchmark
// name and computes the Rel* aggregates against the reference design
// (zero when the reference is absent). Exported because the fabric
// coordinator must reproduce a single daemon's aggregates over
// reassembled shards: the bench-name sort fixes the geomean's operand
// order, so coordinator and single-daemon floats agree bit for bit.
func (e *Exploration) Normalize() {
	for i := range e.Designs {
		d := &e.Designs[i]
		sort.Slice(d.PerBench, func(a, b int) bool { return d.PerBench[a].Bench < d.PerBench[b].Bench })
	}
	ref := e.Design(e.Reference)
	if ref == nil {
		return
	}
	refBench := make(map[string]BenchResult, len(ref.PerBench))
	for _, b := range ref.PerBench {
		refBench[b.Bench] = b
	}
	for i := range e.Designs {
		d := &e.Designs[i]
		var perf, eff []float64
		for _, b := range d.PerBench {
			r := refBench[b.Bench]
			perf = append(perf, float64(r.Cycles)/float64(b.Cycles))
			eff = append(eff, r.EnergyNJ/b.EnergyNJ)
		}
		d.RelPerf = stats.Geomean(perf)
		d.RelEnergyEff = stats.Geomean(eff)
		d.RelArea = d.AreaMM2 / ref.AreaMM2
	}
}

// Design returns the named design point, or nil.
func (e *Exploration) Design(code string) *DesignResult {
	for i := range e.Designs {
		if e.Designs[i].Code == code {
			return &e.Designs[i]
		}
	}
	return nil
}

// RelativeTo recomputes (perf, energy-eff) of design `code` against an
// arbitrary baseline design, per-benchmark geomean — used for headline
// claims like "OOO2-SDN vs OOO6-S".
func (e *Exploration) RelativeTo(code, baseline string) (float64, float64, error) {
	d := e.Design(code)
	b := e.Design(baseline)
	if d == nil || b == nil {
		return 0, 0, fmt.Errorf("dse: unknown design %q or %q", code, baseline)
	}
	baseBench := make(map[string]BenchResult, len(b.PerBench))
	for _, r := range b.PerBench {
		baseBench[r.Bench] = r
	}
	var perf, eff []float64
	for _, r := range d.PerBench {
		base := baseBench[r.Bench]
		perf = append(perf, float64(base.Cycles)/float64(r.Cycles))
		eff = append(eff, base.EnergyNJ/r.EnergyNJ)
	}
	return stats.Geomean(perf), stats.Geomean(eff), nil
}

// CategoryAggregate returns (relPerf, relEff) of a design over one
// workload category, normalized to the reference design (Figure 11).
func (e *Exploration) CategoryAggregate(code string, cat workloads.Category) (float64, float64) {
	d := e.Design(code)
	ref := e.Design(e.Reference)
	if d == nil || ref == nil {
		return 0, 0
	}
	refBench := make(map[string]BenchResult, len(ref.PerBench))
	for _, b := range ref.PerBench {
		refBench[b.Bench] = b
	}
	var perf, eff []float64
	for _, b := range d.PerBench {
		if b.Category != cat {
			continue
		}
		r := refBench[b.Bench]
		perf = append(perf, float64(r.Cycles)/float64(b.Cycles))
		eff = append(eff, r.EnergyNJ/b.EnergyNJ)
	}
	if len(perf) == 0 {
		return 0, 0
	}
	return stats.Geomean(perf), stats.Geomean(eff)
}

// AppendTo appends the exploration to a report document in the shared
// schema: one aggregate row per design (area + Rel* normalized to the
// reference) and one row per (design, benchmark) observation. This is
// the single serialization used by cmd/dse's -json mode and the
// evaluation daemon's /v1/sweep endpoint, so their documents are
// byte-identical for the same inputs. It is exactly AppendAggregates +
// AppendPerBench: the document's stable sort makes the interleaving
// immaterial, which is what lets report.Merge reassemble a sharded
// sweep (per-bench rows from replicas, aggregates from the
// coordinator's shell) into the same bytes.
func (e *Exploration) AppendTo(doc *report.Document) {
	e.AppendAggregates(doc)
	e.AppendPerBench(doc)
}

// AppendAggregates appends the per-design aggregate rows (empty Bench:
// area plus the Rel* metrics Normalize computed).
func (e *Exploration) AppendAggregates(doc *report.Document) {
	for _, d := range e.Designs {
		doc.Add(report.Result{
			Design: d.Code, Core: d.Core.Name, BSAs: d.BSAs,
			AreaMM2: d.AreaMM2,
			RelPerf: d.RelPerf, RelEnergyEff: d.RelEnergyEff, RelArea: d.RelArea,
		})
	}
}

// AppendPerBench appends the per-(design, benchmark) observation rows
// — the shard-local content of a partial sweep, which carries no
// normalization and therefore needs no view of other shards.
func (e *Exploration) AppendPerBench(doc *report.Document) {
	for _, d := range e.Designs {
		for _, b := range d.PerBench {
			doc.Add(report.Result{
				Design: d.Code, Core: d.Core.Name, Bench: b.Bench,
				Category: string(b.Category),
				Cycles:   b.Cycles, EnergyNJ: b.EnergyNJ,
			})
		}
	}
}

// Frontier returns the Pareto-optimal designs by (RelPerf ↑,
// RelEnergyEff ↑), sorted by performance — the Figure 3/10 frontier.
func (e *Exploration) Frontier() []DesignResult {
	sorted := append([]DesignResult(nil), e.Designs...)
	sort.Slice(sorted, func(a, b int) bool {
		if sorted[a].RelPerf != sorted[b].RelPerf {
			return sorted[a].RelPerf > sorted[b].RelPerf
		}
		return sorted[a].Code < sorted[b].Code
	})
	var out []DesignResult
	bestEff := 0.0
	for _, d := range sorted {
		if d.RelEnergyEff > bestEff {
			out = append(out, d)
			bestEff = d.RelEnergyEff
		}
	}
	// Return in ascending performance order.
	for l, r := 0, len(out)-1; l < r; l, r = l+1, r-1 {
		out[l], out[r] = out[r], out[l]
	}
	return out
}
