package main

import (
	"fmt"
	"reflect"

	"exocore/internal/cores"
	"exocore/internal/energy"
	"exocore/internal/exocore"
	"exocore/internal/runner"
	"exocore/internal/tdg"
	"exocore/internal/trace"
	"exocore/internal/workloads"
)

// streamCore is the general core every streamed baseline runs on.
var streamCore = cores.OOO2

// exemplars resolves workloads.StreamExemplars.
func exemplars() ([]*workloads.Workload, error) {
	var ws []*workloads.Workload
	for _, name := range workloads.StreamExemplars() {
		w, err := workloads.ByName(name)
		if err != nil {
			return nil, err
		}
		ws = append(ws, w)
	}
	return ws, nil
}

// streamOutcome is what a streamed baseline must reproduce exactly.
type streamOutcome struct {
	dyn    int
	cycles int64
	counts energy.Counts
	stats  trace.Stats
	blocks []int64
}

func outcomeOf(res *exocore.RunResult, s *tdg.Stream) streamOutcome {
	return streamOutcome{dyn: s.Dyn, cycles: res.Cycles, counts: res.Counts, stats: s.Stats, blocks: s.Prof.BlockCount}
}

func (o streamOutcome) equal(p streamOutcome) bool { return reflect.DeepEqual(o, p) }

// streamBaseline is one exemplar of the stream job: the looped streamed
// baseline on a fresh engine.
func streamBaseline(w *workloads.Workload, maxDyn, workers int) (streamOutcome, error) {
	eng := runner.New(runner.Options{MaxDyn: maxDyn, Workers: workers})
	res, err := eng.StreamBaseline(w, streamCore, true)
	if err != nil {
		return streamOutcome{}, err
	}
	return outcomeOf(res.Res, res.Stream), nil
}

// checkOverlap replays a small budget down the materialized arm (trace
// materialized, tdg.Build, exocore.Run) and the streamed arm, and
// requires identical cycles, energy counts, statistics and profile.
func checkOverlap(r *run, w *workloads.Workload, maxDyn, workers int) error {
	gen := w.Source(workloads.SourceConfig{MaxDyn: maxDyn, Loop: true})
	tr, err := trace.Materialize(gen, maxDyn)
	if err != nil {
		return err
	}
	td, err := tdg.Build(tr)
	if err != nil {
		return err
	}
	whole, err := exocore.Run(td, streamCore, nil, nil, nil, exocore.RunOpts{})
	if err != nil {
		return err
	}
	want := streamOutcome{dyn: tr.Len(), cycles: whole.Cycles, counts: whole.Counts,
		stats: tr.ComputeStats(), blocks: td.Prof.BlockCount}
	got, err := streamBaseline(w, maxDyn, workers)
	if err != nil {
		return err
	}
	r.check(got.equal(want), "stream %s: streamed arm diverges from the materialized arm at %d instructions", w.Name, maxDyn)
	return nil
}

// runStream is the timed stream workload. Set-up is the overlap
// identity check over every exemplar; each job streams every exemplar
// once, and every job must reproduce the first job's outcomes.
func runStream(r *run) error {
	sz := r.cfg.sizes
	ws, err := exemplars()
	if err != nil {
		return err
	}
	setup, err := repeatSetup(sz.setupReps, func() error {
		for _, w := range ws {
			if err := checkOverlap(r, w, sz.overlapMaxDyn, sz.workers); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	var first []streamOutcome
	insts := 0
	js, err := timedJobs(r.cfg.seconds, sz.minJobs, func(measure func(func() error) error) error {
		got := make([]streamOutcome, len(ws))
		if err := measure(func() error {
			for i, w := range ws {
				var err error
				if got[i], err = streamBaseline(w, sz.streamMaxDyn, sz.workers); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			return err
		}
		insts = 0
		for i, w := range ws {
			insts += got[i].dyn
			if first == nil {
				r.check(got[i].dyn == sz.streamMaxDyn, "stream %s: %d instructions, want %d", w.Name, got[i].dyn, sz.streamMaxDyn)
			} else {
				r.check(got[i].equal(first[i]), "stream %s: outcome differs from the run's first job", w.Name)
			}
		}
		if first == nil {
			first = got
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("stream: %w", err)
	}
	r.endToEnd(setup, js)
	r.detail("stream_minst_per_s", float64(insts)/1e6/median(js.wall), "Minst/s", len(js.wall))
	return nil
}
