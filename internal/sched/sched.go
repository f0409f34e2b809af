// Package sched implements BSA selection for ExoCores: the Oracle
// scheduler that picks the best accelerator per static region from
// measured execution characteristics with an energy-delay metric and a
// 10% performance-loss guard (paper §4), and the Amdahl-Tree scheduler
// that composes approximate per-region speedup estimates bottom-up over
// the loop nest (paper §3.3, Figure 9).
package sched

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"

	"exocore/internal/cores"
	"exocore/internal/exocore"
	"exocore/internal/obs"
	"exocore/internal/tdg"
)

// Candidate is one measured (loop, BSA) acceleration option.
type Candidate struct {
	LoopID int
	BSA    string
	// Cycles and EnergyNJ are whole-benchmark totals with only this
	// region assigned ("past execution characteristics").
	Cycles   int64
	EnergyNJ float64
	// EstSpeedup is the analyzer's static estimate (Amdahl tree input).
	EstSpeedup float64
}

// Context holds everything needed to schedule one benchmark on one core:
// plans, baseline measurements and per-candidate solo measurements.
type Context struct {
	TDG   *tdg.TDG
	Core  cores.Config
	BSAs  map[string]tdg.BSA
	Plans map[string]*tdg.Plan

	// Cache memoizes evaluation-unit outcomes across every Run this
	// context issues (baseline, per-candidate solos, and Evaluate calls
	// for full designs). Never nil.
	Cache *exocore.Cache

	BaseCycles   int64
	BaseEnergyNJ float64
	Candidates   []Candidate

	reg *obs.Registry
}

// ContextOpts tunes context construction.
type ContextOpts struct {
	// Reg, when non-nil, receives evaluation metrics (segment-length
	// histogram, per-BSA offload counters) from every Run this context
	// issues, including later Evaluate calls.
	Reg *obs.Registry
	// Span, when active, parents one child span per measurement run the
	// constructor issues (baseline plus each candidate solo). Inert spans
	// cost a nil check.
	Span obs.Span
	// Workers bounds the number of candidate solo measurements run
	// concurrently during construction (values <= 1 measure one at a
	// time). An active Span forces one worker because child spans share
	// the parent's trace lane and must not overlap.
	Workers int
	// Persist, when non-nil, attaches a durable unit-outcome store under
	// the context's cache, namespaced by PersistNS (which must uniquely
	// identify the (trace, core, BSA set) tuple across restarts — see
	// exocore.Cache.AttachPersist).
	Persist   exocore.Persist
	PersistNS string
}

// NewContext analyzes the TDG with every BSA and measures the baseline
// plus each (loop, BSA) candidate in isolation.
func NewContext(t *tdg.TDG, core cores.Config, bsas map[string]tdg.BSA, opts ContextOpts) (*Context, error) {
	ctx := &Context{TDG: t, Core: core, BSAs: bsas, Plans: make(map[string]*tdg.Plan),
		Cache: exocore.NewCache(t), reg: opts.Reg}
	if opts.Persist != nil {
		ctx.Cache.AttachPersist(opts.Persist, opts.PersistNS)
	}
	for name, b := range bsas {
		ctx.Plans[name] = b.Analyze(t)
	}
	bsp := obs.Span{}
	if opts.Span.Active() {
		bsp = opts.Span.Child("run", "baseline")
	}
	base, err := exocore.Run(t, core, bsas, ctx.Plans, nil,
		exocore.RunOpts{Cache: ctx.Cache, Span: bsp, Reg: opts.Reg})
	bsp.End()
	if err != nil {
		return nil, fmt.Errorf("sched: baseline: %w", err)
	}
	ctx.BaseCycles = base.Cycles
	ctx.BaseEnergyNJ = exocore.EnergyOf(base, core, bsas).TotalNJ()

	// Candidate solo measurements, in deterministic (BSA name, loop)
	// order. The job list is built serially; measurement fans out on a
	// bounded worker pool, with results landing at their job index so
	// Candidates keeps the job order whatever the completion order.
	type job struct {
		name string
		loop int
	}
	var names []string
	for name := range bsas {
		names = append(names, name)
	}
	sort.Strings(names)
	var jobs []job
	for _, name := range names {
		var loops []int
		for l := range ctx.Plans[name].Regions {
			loops = append(loops, l)
		}
		sort.Ints(loops)
		for _, l := range loops {
			jobs = append(jobs, job{name: name, loop: l})
		}
	}

	measure := func(j job) (Candidate, error) {
		sp := obs.Span{}
		if opts.Span.Active() {
			sp = opts.Span.Child("run", "candidate "+j.name+"@L"+strconv.Itoa(j.loop))
		}
		res, err := exocore.Run(t, core, bsas, ctx.Plans,
			exocore.Assignment{j.loop: j.name},
			exocore.RunOpts{Cache: ctx.Cache, Span: sp, Reg: opts.Reg})
		sp.End()
		if err != nil {
			return Candidate{}, fmt.Errorf("sched: candidate %s@L%d: %w", j.name, j.loop, err)
		}
		return Candidate{
			LoopID: j.loop, BSA: j.name,
			Cycles:     res.Cycles,
			EnergyNJ:   exocore.EnergyOf(res, core, bsas).TotalNJ(),
			EstSpeedup: ctx.Plans[j.name].Regions[j.loop].EstSpeedup,
		}, nil
	}

	// Child spans share the parent's trace lane, so concurrent candidate
	// spans would interleave and break the nesting invariant; tracing
	// measures one candidate at a time.
	workers := max(1, min(opts.Workers, len(jobs)))
	if opts.Span.Active() {
		workers = 1
	}
	ctx.Candidates = make([]Candidate, len(jobs))
	errs := make([]error, len(jobs))
	next := make(chan int)
	var wg sync.WaitGroup
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				ctx.Candidates[i], errs[i] = measure(jobs[i])
			}
		}()
	}
	for i := range jobs {
		next <- i
	}
	close(next)
	wg.Wait()
	// The lowest-index failure wins, so the error is deterministic too.
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return ctx, nil
}

// PerfLossGuard is the maximum region-level slowdown the Oracle accepts
// (paper §4: "no individual region should reduce the performance by more
// than 10%").
const PerfLossGuard = 0.10

// Names lists the schedulers a run can name, the default first.
var Names = []string{"oracle", "amdahl"}

// Resolve validates a scheduler name, resolving "" to the default.
func Resolve(name string) (string, error) {
	switch name {
	case "":
		return Names[0], nil
	case "oracle", "amdahl":
		return name, nil
	}
	return "", fmt.Errorf("unknown scheduler %q (have %s)", name, strings.Join(Names, ", "))
}

// Assign returns the named scheduler's assignment drawing only from the
// available BSA subset: the Amdahl tree for "amdahl", the Oracle for any
// other name.
func (c *Context) Assign(name string, avail []string) exocore.Assignment {
	if name == "amdahl" {
		return c.AmdahlTree(avail)
	}
	return c.Oracle(avail)
}

// Oracle returns the energy-delay-optimal assignment drawing only from
// the available BSA subset, resolved hierarchically over the loop forest
// (a region choice covers its nested loops).
func (c *Context) Oracle(avail []string) exocore.Assignment {
	availSet := make(map[string]bool, len(avail))
	for _, a := range avail {
		availSet[a] = true
	}
	baseEDP := float64(c.BaseCycles) * c.BaseEnergyNJ

	// Best candidate gain per loop.
	type choice struct {
		bsa  string
		gain float64
	}
	bestAt := make(map[int]choice)
	for _, cand := range c.Candidates {
		if !availSet[cand.BSA] {
			continue
		}
		// Perf guard: the solo slowdown must not exceed 10% of the
		// region's share of baseline time.
		regionBase := float64(c.BaseCycles) * c.TDG.Prof.LoopShare(cand.LoopID)
		if float64(cand.Cycles-c.BaseCycles) > PerfLossGuard*regionBase {
			continue
		}
		gain := baseEDP - float64(cand.Cycles)*cand.EnergyNJ
		if gain <= 0 {
			continue
		}
		if cur, ok := bestAt[cand.LoopID]; !ok || gain > cur.gain {
			bestAt[cand.LoopID] = choice{bsa: cand.BSA, gain: gain}
		}
	}

	// Tree DP: for each loop take max(own best assignment, sum of
	// children's best solutions).
	assign := exocore.Assignment{}
	var solve func(loop int) float64
	solve = func(loop int) float64 {
		childSum := 0.0
		for _, ch := range c.TDG.Nest.Loops[loop].Children {
			childSum += solve(ch)
		}
		own, ok := bestAt[loop]
		if ok && own.gain > childSum {
			// Claim this loop; release any descendant assignments.
			c.clearSubtree(assign, loop)
			assign[loop] = own.bsa
			return own.gain
		}
		return childSum
	}
	for _, root := range c.TDG.Nest.Roots {
		solve(root)
	}
	return assign
}

func (c *Context) clearSubtree(assign exocore.Assignment, loop int) {
	for _, ch := range c.TDG.Nest.Loops[loop].Children {
		delete(assign, ch)
		c.clearSubtree(assign, ch)
	}
}

// AmdahlTree returns the assignment a profile-guided compiler would pick
// without oracle measurements: each loop node carries estimated
// per-BSA speedups, and a bottom-up traversal applies Amdahl's law at
// each node to decide whether to claim the whole subtree for one BSA or
// keep the children's choices (paper Figure 9).
func (c *Context) AmdahlTree(avail []string) exocore.Assignment {
	availSet := make(map[string]bool, len(avail))
	for _, a := range avail {
		availSet[a] = true
	}
	// Best estimated speedup per loop.
	type est struct {
		bsa     string
		speedup float64
	}
	bestAt := make(map[int]est)
	// Visit plans in sorted-name order so exact EstSpeedup ties break the
	// same way every run (map iteration order would pick an arbitrary
	// winner).
	var planNames []string
	for name := range c.Plans {
		if availSet[name] {
			planNames = append(planNames, name)
		}
	}
	sort.Strings(planNames)
	for _, name := range planNames {
		for l, r := range c.Plans[name].Regions {
			if cur, ok := bestAt[l]; !ok || r.EstSpeedup > cur.speedup {
				bestAt[l] = est{bsa: name, speedup: r.EstSpeedup}
			}
		}
	}

	assign := exocore.Assignment{}
	// solve returns the estimated time of the loop's subtree (in units
	// of baseline execution share).
	var solve func(loop int) float64
	solve = func(loop int) float64 {
		total := c.TDG.Prof.LoopShare(loop)
		childTime := 0.0
		childShare := 0.0
		for _, ch := range c.TDG.Nest.Loops[loop].Children {
			childTime += solve(ch)
			childShare += c.TDG.Prof.LoopShare(ch)
		}
		local := total - childShare
		if local < 0 {
			local = 0
		}
		timeChildren := local + childTime
		own, ok := bestAt[loop]
		// The scheduler is deliberately over-calibrated towards using
		// BSAs rather than the general core (§5.4): offload is accepted
		// even when the estimate is slightly unfavorable, because the
		// energy savings usually pay for it.
		const bsaBias = 1.10
		if ok && own.speedup > 0 {
			timeOwn := total / own.speedup
			if timeOwn < timeChildren*bsaBias {
				c.clearSubtree(assign, loop)
				assign[loop] = own.bsa
				return timeOwn
			}
		}
		return timeChildren
	}
	for _, root := range c.TDG.Nest.Roots {
		solve(root)
	}
	return assign
}

// Evaluate runs the benchmark under an assignment and returns cycles and
// total energy.
func (c *Context) Evaluate(assign exocore.Assignment) (int64, float64, error) {
	return c.EvaluateSpan(assign, obs.Span{})
}

// EvaluateSpan is Evaluate attached to a caller's trace span: when sp is
// active the run's per-unit spans nest under it; metrics go to the
// registry the context was created with either way.
func (c *Context) EvaluateSpan(assign exocore.Assignment, sp obs.Span) (int64, float64, error) {
	res, err := exocore.Run(c.TDG, c.Core, c.BSAs, c.Plans, assign,
		exocore.RunOpts{Cache: c.Cache, Span: sp, Reg: c.reg})
	if err != nil {
		return 0, 0, err
	}
	return res.Cycles, exocore.EnergyOf(res, c.Core, c.BSAs).TotalNJ(), nil
}
