package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"exocore/internal/cli"
	"exocore/internal/dse"
	"exocore/internal/report"
	"exocore/internal/runner"
)

// renderSweep renders an exploration as the sweep document.
func renderSweep(exp *dse.Exploration) ([]byte, error) {
	doc := report.New("dse")
	exp.AppendTo(doc)
	var buf bytes.Buffer
	if err := doc.Write(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// sweepDocument is one sweep job: the cold full grid over every
// registered workload on a fresh engine, rendered.
func sweepDocument(maxDyn, workers int) ([]byte, error) {
	eng := runner.New(runner.Options{MaxDyn: maxDyn, Workers: workers})
	exp, err := dse.Explore(dse.Options{Engine: eng})
	if err != nil {
		return nil, err
	}
	return renderSweep(exp)
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// warmSweep sweeps the quick set at a small budget on a throwaway
// engine, so the first measured sweep of a process does not pay for
// first-touch page faults and heap growth.
func warmSweep(sz sizes) error {
	quick, err := cli.ResolveBenchSpec("quick")
	if err != nil {
		return err
	}
	eng := runner.New(runner.Options{MaxDyn: sz.warmMaxDyn, Workers: sz.workers})
	_, err = dse.Explore(dse.Options{Engine: eng, Workloads: quick})
	return err
}

// runSweep is the timed sweep workload; set-up is warmSweep.
func runSweep(r *run) error {
	sz := r.cfg.sizes
	setup, err := repeatSetup(sz.setupReps, func() error { return warmSweep(sz) })
	if err != nil {
		return err
	}
	js, err := timedJobs(r.cfg.seconds, sz.minJobs, func(measure func(func() error) error) error {
		var doc []byte
		if err := measure(func() (err error) {
			doc, err = sweepDocument(sz.sweepMaxDyn, sz.workers)
			return err
		}); err != nil {
			return err
		}
		got := digest(doc)
		r.check(got == r.cfg.sweepDigest, "sweep document sha256 %s, want %s", got, r.cfg.sweepDigest)
		return nil
	})
	if err != nil {
		return fmt.Errorf("sweep: %w", err)
	}
	r.endToEnd(setup, js)
	r.detail("sweep_s", median(js.wall), "s", len(js.wall))
	return nil
}
