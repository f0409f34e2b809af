// Package exocore composes a general-purpose core with a set of
// behavior-specialized accelerator models, implementing the ExoCore
// organization of the paper (§3). Execution migrates between the core and
// accelerators at loop boundaries according to a per-region assignment;
// energy is accounted per component including frontend power-gating
// during offload (§5.3).
//
// # Segment evaluation model
//
// Run splits the trace into segments (maximal spans under one model) and
// groups them into evaluation units: every offload-BSA segment stands
// alone, while each maximal run of core-resident segments (general core
// plus coupled BSAs such as SIMD and DP-CGRA) forms one unit. Each unit
// is evaluated independently on a fresh µDG from a drained pipeline
// boundary — relative cycle 0, empty window/ROB, all registers available
// at the origin — and total cycles and energy compose by summation.
// Inside a unit, segments share one pipeline exactly as the original
// monolithic engine did, so frontend and window overlap across coupled
// joints is preserved.
//
// This drained-pipeline-handoff boundary state is an explicit
// approximation, applied only where it is accurate: offload entry/exit
// already serializes on live-value transfer (the model joins its inputs
// at an entry handshake anchored at the core's last commit and hands back
// through an exit barrier: bsautil.Enter and HandBack), so essentially no
// ILP crosses an offload boundary. Core-resident joints, where a shared
// window keeps substantial ILP in flight, never see a drained boundary —
// they stay inside a unit.
// What the approximation buys is compositionality: a unit's outcome is a
// pure function of (core, span, model sequence, config residency), which
// makes outcomes cacheable across the 2^n-assignment design sweeps of §5
// — a 16-mask sweep evaluates each distinct unit once. The cached and
// uncached paths share the single evalUnit implementation, so their
// results agree bit-for-bit by construction (gated by the equivalence
// tests in this package and internal/dse).
//
// Cross-unit accelerator state — configuration residency — is simulated
// by the engine itself in composition order (per-BSA LRU of
// ConfigCacheWays entries) and passed into models via Ctx.ConfigResident,
// keeping it out of the per-unit state.
package exocore

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"exocore/internal/bsa/bsautil"
	"exocore/internal/cores"
	"exocore/internal/dg"
	"exocore/internal/energy"
	"exocore/internal/obs"
	"exocore/internal/tdg"
)

// Assignment maps loop IDs to the name of the BSA chosen for them. Loops
// not present run on the general core. Assigned loops must not be nested
// inside one another; if they are, the outermost assignment wins.
type Assignment map[int]string

// Segment is a maximal run of dynamic instructions executing under one
// model: LoopID == -1 means the general core.
type Segment struct {
	LoopID int
	Start  int // dynamic index, inclusive
	End    int // exclusive
}

// SegmentRecord captures one executed segment for affinity analysis
// (Figure 13/14).
type SegmentRecord struct {
	LoopID     int
	BSA        string // "" for the general core
	StartCycle int64
	EndCycle   int64
	Dyn        int // original dynamic instructions covered
}

// RunOpts controls optional engine inputs and outputs.
type RunOpts struct {
	// RecordSegments retains the per-segment timeline (Figure 14).
	RecordSegments bool
	// RecordRegions builds the per-region attribution table
	// (RunResult.Regions): dynamic instructions, cycles, energy events and
	// critical-path class histogram per (loop, model).
	RecordRegions bool
	// Cache, when non-nil, memoizes segment outcomes and pools evaluation
	// arenas across Runs, and evaluates incrementally: composer
	// segmentation, unit reuse across assignments and the cross-core shared
	// pool. It must have been created for the same core config and be
	// used with a fixed (TDG, bsas, plans) tuple. Without a cache, Run
	// segmentizes and evaluates every unit from scratch — the reference
	// the identity tests hold cached runs to.
	Cache *Cache
	// Span, when active, receives one child span per evaluation unit
	// (annotated with cache hit/miss) with nested transform spans. The
	// zero Span disables tracing at nil-check cost.
	Span obs.Span
	// Reg, when non-nil, receives engine-level instruments: the
	// "eval.segment_len" histogram, per-BSA
	// "eval.offload_segments.<name>" counters, and the
	// "dg.graph_high_water_bytes" gauge (peak resident µDG footprint).
	Reg *obs.Registry
}

// ModelStat attributes one model's share of a run ("" = general core).
type ModelStat struct {
	Name string
	// Dyn counts original dynamic instructions covered by the model — the
	// paper's "% of cycles un-accelerated" analysis (§5).
	Dyn int64
	// Cycles attributes execution cycles to the model.
	Cycles int64
	// ActiveCycles counts cycles the accelerator was powered (0 for the
	// general core).
	ActiveCycles int64
	// Counts attributes energy events to the model.
	Counts energy.Counts
}

// RunResult is the outcome of executing one benchmark on one design point.
type RunResult struct {
	Cycles int64
	Counts energy.Counts
	// Models holds per-model attribution, sorted by name (the "" general
	// core row first). A small fixed slice instead of per-call maps: a DSE
	// sweep builds millions of RunResults.
	Models []ModelStat
	// OffloadCycles counts cycles during which an offload BSA (NS-DF,
	// Trace-P) ran and the core frontend could be power-gated.
	OffloadCycles int64
	Segments      []SegmentRecord
	// Regions is the per-region attribution table (only when
	// RunOpts.RecordRegions), sorted by (LoopID, BSA) with the
	// general-core row (-1, "") first.
	Regions []RegionStat
}

// RegionStat attributes one region's share of a run: the paper-style
// breakdown row answering "where did this design's cycles and energy go,
// and why" (§5's Figure 13 analysis, grounded in the µDG critical path).
type RegionStat struct {
	// LoopID is the assigned loop (-1 for execution left on the general
	// core outside any assigned region).
	LoopID int
	// BSA is the model that ran the region ("" for the general core).
	BSA string
	// Dyn counts original dynamic instructions covered by the region.
	Dyn int64
	// Cycles is the execution time attributed to the region.
	Cycles int64
	// Counts holds the region's energy events.
	Counts energy.Counts
	// Classes is the critical-path latency attributed to the region's
	// segments, by µDG edge class — the "critical-path event class
	// histogram" explaining what the region's cycles waited on.
	Classes [dg.NumEdgeClasses]int64
}

// DynamicEnergyNJ evaluates the region's energy events under the core's
// energy table (dynamic energy only; static energy is a whole-run
// quantity, see EnergyOf).
func (rs *RegionStat) DynamicEnergyNJ(core cores.Config) float64 {
	tbl := energy.CoreTable(core.EnergyParams())
	return tbl.Evaluate(&rs.Counts, 0).DynamicNJ
}

// Region returns the run's attribution row for (loop, bsa), or nil.
func (r *RunResult) Region(loopID int, bsa string) *RegionStat {
	for i := range r.Regions {
		if r.Regions[i].LoopID == loopID && r.Regions[i].BSA == bsa {
			return &r.Regions[i]
		}
	}
	return nil
}

// stat returns the model's attribution row, appending one if absent. The
// slice stays tiny (GPP + assigned BSAs), so linear scan beats a map.
func (r *RunResult) stat(name string) *ModelStat {
	for i := range r.Models {
		if r.Models[i].Name == name {
			return &r.Models[i]
		}
	}
	r.Models = append(r.Models, ModelStat{Name: name})
	return &r.Models[len(r.Models)-1]
}

// Model returns the named model's attribution row ("" = general core), or
// nil if the model covered nothing.
func (r *RunResult) Model(name string) *ModelStat {
	for i := range r.Models {
		if r.Models[i].Name == name {
			return &r.Models[i]
		}
	}
	return nil
}

// DynOf returns the dynamic instructions the named model covered.
func (r *RunResult) DynOf(name string) int64 {
	if m := r.Model(name); m != nil {
		return m.Dyn
	}
	return 0
}

// CyclesOf returns the cycles attributed to the named model.
func (r *RunResult) CyclesOf(name string) int64 {
	if m := r.Model(name); m != nil {
		return m.Cycles
	}
	return 0
}

// Segmentize splits the trace into GPP and region segments under an
// assignment. A dynamic instruction belongs to the outermost assigned
// loop in its loop chain.
//
// The instruction's region depends only on its innermost loop, so the
// split runs over the TDG's memoized innermost-loop atoms: one region
// resolution per distinct loop (memoized in a nest-indexed scratch
// slice), one merge pass over the atoms — O(atoms + loops × depth)
// instead of the per-instruction nest walk this replaces, which was the
// single largest cost of uncached evaluation.
func Segmentize(t *tdg.TDG, assign Assignment) []Segment {
	nest := t.Nest
	atoms := t.LoopAtoms()
	resolved := make([]int32, len(nest.Loops)+1)
	for i := range resolved {
		resolved[i] = -2 // not yet resolved; -1 means "general core"
	}
	var segs []Segment
	cur := Segment{LoopID: -2}
	for _, a := range atoms {
		region := resolved[a.Loop+1]
		if region == -2 {
			region = -1
			for l := int(a.Loop); l != -1; l = nest.Loops[l].Parent {
				if _, ok := assign[l]; ok {
					region = int32(l) // keep walking: outermost assigned wins
				}
			}
			resolved[a.Loop+1] = region
		}
		if int(region) != cur.LoopID {
			if cur.LoopID != -2 {
				segs = append(segs, cur)
			}
			cur = Segment{LoopID: int(region), Start: int(a.Start), End: int(a.End)}
		} else {
			cur.End = int(a.End)
		}
	}
	if cur.LoopID != -2 {
		segs = append(segs, cur)
	}
	return segs
}

// Run executes the benchmark under the given core and assignment,
// returning cycles, energy events and attribution. bsas maps BSA name to
// model; plans maps BSA name to its analysis plan (so TransformRegion
// receives its region config). See the package comment for the segment
// evaluation model and its boundary-state approximation.
func Run(t *tdg.TDG, core cores.Config, bsas map[string]tdg.BSA,
	plans map[string]*tdg.Plan, assign Assignment, opts RunOpts) (*RunResult, error) {

	// Validate the assignment before doing any work.
	for loopID, name := range assign {
		if loopID < 0 || loopID >= len(t.Nest.Loops) {
			return nil, fmt.Errorf("exocore: assignment names unknown loop %d", loopID)
		}
		if _, ok := bsas[name]; !ok {
			return nil, fmt.Errorf("exocore: assignment names unknown BSA %q", name)
		}
		if plans[name].Region(loopID) == nil {
			return nil, fmt.Errorf("exocore: BSA %q has no plan for loop %d", name, loopID)
		}
	}

	// With a cache, the composer's precomputed atoms segmentize in
	// O(atoms). One worker (graph + GPP arenas) serves every unit of this
	// run, drawn from — and returned to — the per-config arena pool.
	var segs []Segment
	var w *segWorker
	if opts.Cache != nil {
		segs = opts.Cache.composerFor(t, plans).segmentize(assign)
		w = opts.Cache.getWorker()
		defer opts.Cache.putWorker(w)
	} else {
		segs = Segmentize(t, assign)
		w = acquireWorker(core, nil)
		defer releaseWorker(core, w)
	}
	units := unitize(t, segs, assign, bsas)
	res := &RunResult{Models: make([]ModelStat, 0, len(assign)+1)}

	if opts.Reg != nil {
		// Peak resident µDG footprint across this run's units (the
		// worker samples its own peaks at reset/retire), folded into the
		// engine-wide gauge with max semantics.
		defer func() {
			opts.Reg.Gauge("dg.graph_high_water_bytes").SetMax(w.g.HighWaterBytes())
		}()
	}

	var segLen *obs.Histogram
	var offloadCtr map[string]*obs.Counter
	if opts.Reg != nil {
		segLen = opts.Reg.Histogram("eval.segment_len", obs.DefaultSizeBounds)
	}

	var lastEnd int64
	// pkey holds the cache's persist namespace followed by the unit's key;
	// the memo and the shared pool use the key, the durable store all of
	// pkey.
	var pkey, pvalScratch []byte
	for _, u := range units {
		usp := obs.Span{}
		if opts.Span.Active() {
			usp = opts.Span.Child("segment",
				"unit["+strconv.Itoa(u.segs[0].Start)+","+strconv.Itoa(u.segs[len(u.segs)-1].End)+")").
				ArgInt("segments", int64(len(u.segs)))
		}
		var out *unitOutcome
		if opts.Cache != nil {
			pkey = appendKey(append(pkey[:0], opts.Cache.persistNS...), &u)
			key := pkey[len(opts.Cache.persistNS):]
			out = opts.Cache.lookup(key)
			if usp.Active() {
				usp.Arg("cache", map[bool]string{true: "hit", false: "miss"}[out != nil])
			}
			switch {
			case out == nil:
				// Offload solo units are usually core-independent (the model
				// never touches the host pipeline), so before evaluating,
				// consult the cross-core shared pool populated by sibling
				// caches for the same TDG.
				var shared *sharedPool
				if len(u.segs) == 1 && u.names[0] != "" && bsas[u.names[0]].OffloadsCore() {
					shared = opts.Cache.shared
					if so := shared.lookup(key); so != nil &&
						(!opts.RecordRegions || so.segClasses != nil) {
						out = opts.Cache.store(key, so)
						opts.Cache.sharedHits.Add(1)
						// Write shared hits through too: the sibling core's
						// evaluation persisted under its own namespace, so
						// without this a restart of this core goes cold.
						if opts.Cache.persist != nil && !opts.RecordRegions {
							pvalScratch = encodeOutcome(out, pvalScratch)
							opts.Cache.persist.Put(pkey, pvalScratch)
						}
						break
					}
				}
				// Durable tier: a restarted daemon re-reads outcomes its
				// predecessor (or a sibling replica sharing the directory)
				// already derived. Class-attributed runs bypass it — classes
				// are never persisted, and storing a classless outcome here
				// would only be replaced again.
				persist := opts.Cache.persist
				if persist != nil && opts.RecordRegions {
					persist = nil
				}
				if persist != nil {
					if raw, ok := persist.Get(pkey); ok {
						if po := decodeOutcome(raw); po != nil && len(po.segDurs) == len(u.segs) {
							out = opts.Cache.store(key, po)
							break
						}
					}
				}
				o := evalUnit(w, t, bsas, plans, u, usp, opts.RecordRegions)
				out = opts.Cache.store(key, &o)
				if persist != nil {
					pvalScratch = encodeOutcome(out, pvalScratch)
					persist.Put(pkey, pvalScratch)
				}
				// Publish to the shared pool only when the evaluation proved
				// itself core-independent: zero retired core µops means the
				// transform never consulted the host pipeline.
				if shared != nil && w.gpp.Retired() == 0 {
					shared.store(key, out)
				}
			case opts.RecordRegions && out.segClasses == nil:
				// Cached by a sweep without class attribution; re-evaluate
				// once with it and replace the entry.
				o := evalUnit(w, t, bsas, plans, u, usp, true)
				out = opts.Cache.store(key, &o)
			}
		} else {
			o := evalUnit(w, t, bsas, plans, u, usp, opts.RecordRegions)
			out = &o
		}

		for i, seg := range u.segs {
			name := u.names[i]
			dyn := int64(seg.End - seg.Start)
			dur := out.segDurs[i]
			st := res.stat(name)
			st.Dyn += dyn
			st.Cycles += dur
			st.Counts.AddCounts(&out.segCounts[i])
			res.Counts.AddCounts(&out.segCounts[i])
			segLen.Observe(dyn)
			if name != "" {
				st.ActiveCycles += dur
				if bsas[name].OffloadsCore() {
					res.OffloadCycles += dur
					if opts.Reg != nil {
						c := offloadCtr[name]
						if c == nil {
							if offloadCtr == nil {
								offloadCtr = make(map[string]*obs.Counter, 2)
							}
							c = opts.Reg.Counter("eval.offload_segments." + name)
							offloadCtr[name] = c
						}
						c.Add(1)
					}
				}
			}
			if opts.RecordRegions {
				rs := res.regionStat(seg.LoopID, name)
				rs.Dyn += dyn
				rs.Cycles += dur
				rs.Counts.AddCounts(&out.segCounts[i])
				for cl, v := range out.segClasses[i] {
					rs.Classes[cl] += v
				}
			}
			if opts.RecordSegments {
				res.Segments = append(res.Segments, SegmentRecord{
					LoopID: seg.LoopID, BSA: name,
					StartCycle: lastEnd, EndCycle: lastEnd + dur,
					Dyn: seg.End - seg.Start,
				})
			}
			lastEnd += dur
		}
		usp.End()
	}
	res.Cycles = lastEnd
	slices.SortFunc(res.Models, func(a, b ModelStat) int { return strings.Compare(a.Name, b.Name) })
	slices.SortFunc(res.Regions, func(a, b RegionStat) int {
		if a.LoopID != b.LoopID {
			return a.LoopID - b.LoopID
		}
		return strings.Compare(a.BSA, b.BSA)
	})
	return res, nil
}

// regionStat returns the attribution row for (loop, bsa), appending one
// if absent; like stat, the table stays tiny so linear scan wins.
func (r *RunResult) regionStat(loopID int, bsa string) *RegionStat {
	for i := range r.Regions {
		if r.Regions[i].LoopID == loopID && r.Regions[i].BSA == bsa {
			return &r.Regions[i]
		}
	}
	r.Regions = append(r.Regions, RegionStat{LoopID: loopID, BSA: bsa})
	return &r.Regions[len(r.Regions)-1]
}

// unit is one evaluation unit: either a single offload-BSA segment, or a
// maximal run of core-resident segments (general core + coupled BSAs)
// sharing one pipeline. names and cfgRes parallel segs.
type unit struct {
	segs   []Segment
	names  []string
	cfgRes []bool
}

// unitize groups segments into evaluation units and runs the
// configuration-residency simulation (in composition order, so residency
// is identical whether or not unit outcomes later come from a cache).
// Units hold subslices of segs and of two shared backing arrays, so the
// partition costs a fixed three allocations however many units form.
func unitize(t *tdg.TDG, segs []Segment, assign Assignment, bsas map[string]tdg.BSA) []unit {
	if len(segs) == 0 {
		return nil
	}
	names := make([]string, len(segs))
	cfgRes := make([]bool, len(segs))
	units := make([]unit, 0, len(segs))
	runStart := 0
	flush := func(end int) {
		if end > runStart {
			units = append(units, unit{
				segs: segs[runStart:end], names: names[runStart:end], cfgRes: cfgRes[runStart:end],
			})
			runStart = end
		}
	}
	var cfgCaches map[string]*bsautil.ConfigCache
	for i, seg := range segs {
		offload := false
		if seg.LoopID >= 0 {
			name := assign[seg.LoopID]
			offload = bsas[name].OffloadsCore()
			if cfgCaches == nil {
				cfgCaches = make(map[string]*bsautil.ConfigCache, len(bsas))
			}
			cc := cfgCaches[name]
			if cc == nil {
				cc = bsautil.NewConfigCache(ConfigCacheWays)
				cfgCaches[name] = cc
			}
			names[i] = name
			cfgRes[i] = cc.Lookup(seg.LoopID)
		}
		if offload {
			flush(i)     // close any open core-resident run
			flush(i + 1) // the offload segment is its own unit
		}
	}
	flush(len(segs))
	return units
}

// GatedCoreStaticFraction is the fraction of core static power still paid
// while an offload BSA runs (frontend, window and FUs power-gated; caches
// and MMU stay on, shared with the accelerator).
const GatedCoreStaticFraction = 0.35

// EnergyOf converts a run result into total energy for a design point:
// core dynamic + core static (gated during offload) + accelerator static
// while active. Idle accelerators are assumed fully power-gated (the
// dark-silicon premise of §1).
func EnergyOf(res *RunResult, core cores.Config, bsas map[string]tdg.BSA) energy.Result {
	tbl := energy.CoreTable(core.EnergyParams())
	dyn := tbl.Evaluate(&res.Counts, 0).DynamicNJ

	cyclesToSec := 1.0 / (energy.FrequencyGHz * 1e9)
	onCycles := float64(res.Cycles - res.OffloadCycles)
	gated := float64(res.OffloadCycles)
	staticNJ := tbl.StaticW * (onCycles + GatedCoreStaticFraction*gated) * cyclesToSec * 1e9
	// Models is name-sorted, so this float accumulation is order-stable
	// between otherwise identical runs.
	for i := range res.Models {
		m := &res.Models[i]
		if m.Name == "" || m.ActiveCycles == 0 {
			continue
		}
		w := energy.AccelStaticW(energy.AccelParams{AreaMM2: bsas[m.Name].AreaMM2()})
		staticNJ += w * float64(m.ActiveCycles) * cyclesToSec * 1e9
	}
	return energy.Result{DynamicNJ: dyn, StaticNJ: staticNJ, Cycles: res.Cycles}
}

// UnacceleratedFraction returns the fraction of original dynamic
// instructions that stayed on the general core.
func (r *RunResult) UnacceleratedFraction() float64 {
	var total int64
	for i := range r.Models {
		total += r.Models[i].Dyn
	}
	if total == 0 {
		return 1
	}
	return float64(r.DynOf("")) / float64(total)
}
