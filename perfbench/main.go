// Command perfbench is the repository's benchmark. It drives three
// timed workloads through the public APIs of the evaluation packages,
// checks every output, and prints one JSON result line:
//
//	bash perfbench/run.sh --workload sweep --seed 1 --seconds 30 --trace 0
//
// Workloads:
//
//	sweep   cold full-grid design-space exploration (every workload ×
//	        4 cores × every BSA subset) on a fresh runner.Engine, then
//	        the exocore-result/v1 render
//	stream  the paper-scale streamed baseline (StreamBaseline, looped,
//	        OOO2) for each family exemplar on a fresh engine
//	serve   an in-process serve.Server on loopback HTTP, warmed, driven
//	        by 2 closed-loop clients with a request sequence generated
//	        from --seed (evaluate and partial sweep requests)
//
// With --trace 0 the run repeats the workload's job for --seconds and
// reports, as medians over jobs, the end-to-end metrics: job_s (wall
// time of one job), cpu_s (process CPU time of one job), peak_mem_mib
// (memory held from the OS at the job's peak) and setup_s (median of
// the repeated set-up). The line before the result carries the
// workload's own metrics (eg. serve_rps, evaluate_p99_ms) with their
// sample counts.
//
// With --trace 1 the run is the per-layer ledger: it drives every
// workload's layers one call at a time (see ledger.go), so each traced
// run prints every per-layer metric whichever --workload is named. The
// ledger has a fourth arm, the fabric: a coordinator over two replica
// daemons, each with a 1-worker engine and its own persistent store,
// sweeping cold and again after both replicas restart over their
// stores. It is not a timed workload: with the stores on the
// checkout's disk its wall time spread 43% between runs.
//
// Any output mismatch counts as a failed operation and makes the exit
// status non-zero.
package main

import (
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
)

// record.json holds the expected sweep digest and the measured record
// of the benchmark (environment, exactness of counts, rationale).
//
//go:embed record.json
var recordJSON []byte

// record is the part of record.json the program reads.
type record struct {
	SweepSHA256 string `json:"sweep_sha256"`
	SweepMaxDyn int    `json:"sweep_maxdyn"`
}

// workloadNames lists the workloads in presentation order.
var workloadNames = []string{"sweep", "stream", "serve"}

// config is one benchmark invocation.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	workdir  string // scratch files (fabric stores, the span trace)
	sizes    sizes
	// sweepDigest is the expected SHA-256 of the sweep document at
	// sizes.sweepMaxDyn.
	sweepDigest string
	// wrapServe, if non-nil, wraps the served handler of the serve
	// workload (the self-test uses it to tamper with responses).
	wrapServe func(http.Handler) http.Handler
}

// sizes fixes the amount of work per job. Changing any of them changes
// what the benchmark measures.
type sizes struct {
	workers   int // engine worker bound (nproc = 2 on the reference machine)
	setupReps int // set-up repetitions per run
	minJobs   int // timed jobs per run, at least

	sweepMaxDyn int // per-benchmark budget of the timed sweep
	warmMaxDyn  int // per-benchmark budget of the set-up warm-up sweep

	streamMaxDyn  int // instructions per exemplar in the timed stream job
	overlapMaxDyn int // instructions per exemplar in the set-up identity check

	serveMaxDyn   int // the served engine's budget
	serveRequests int // requests in one serve job (the seeded sequence)

	fabricMaxDyn int // the ledger's fabric replicas' budget

	ledgerStreamMaxDyn int // instructions per exemplar in the traced stream arm
}

func defaultSizes() sizes {
	return sizes{
		workers: 2, setupReps: 3, minJobs: 3,
		sweepMaxDyn: 50_000, warmMaxDyn: 20_000,
		streamMaxDyn: 4_000_000, overlapMaxDyn: 100_000,
		serveMaxDyn: 100_000, serveRequests: 4000,
		fabricMaxDyn:       50_000,
		ledgerStreamMaxDyn: 2_000_000,
	}
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// detail is one informational value with its sample count.
type detail struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples"`
}

// run accumulates one invocation's outcome. check may be called from
// several goroutines.
type run struct {
	cfg config
	log io.Writer

	attempted, failed atomic.Int64

	mu      sync.Mutex
	metrics map[string]metric
	details map[string]detail
}

func newRun(cfg config, log io.Writer) *run {
	return &run{cfg: cfg, log: log, metrics: map[string]metric{}, details: map[string]detail{}}
}

// check counts one checked operation, failed unless ok.
func (r *run) check(ok bool, format string, args ...any) {
	r.attempted.Add(1)
	if !ok {
		r.failed.Add(1)
		fmt.Fprintf(r.log, "perfbench: check failed: "+format+"\n", args...)
	}
}

func (r *run) set(name string, value float64, unit string) {
	r.mu.Lock()
	r.metrics[name] = metric{Value: value, Unit: unit}
	r.mu.Unlock()
}

func (r *run) detail(name string, value float64, unit string, samples int) {
	r.mu.Lock()
	r.details[name] = detail{Value: value, Unit: unit, Samples: samples}
	r.mu.Unlock()
}

// endToEnd records the end-to-end metrics of a timed run.
func (r *run) endToEnd(setup []float64, js jobStats) {
	r.set("setup_s", median(setup), "s")
	r.set("job_s", median(js.wall), "s")
	r.set("cpu_s", median(js.cpu), "s")
	r.set("peak_mem_mib", median(js.peakMiB), "MiB")
	r.detail("jobs", float64(len(js.wall)), "count", len(js.wall))
	r.detail("setups", float64(len(setup)), "count", len(setup))
	fmt.Fprintf(r.log, "perfbench: job walls %.4g s, cpu %.4g s, setups %.4g s\n", js.wall, js.cpu, setup)
}

// runWorkload dispatches one invocation.
func runWorkload(r *run) error {
	switch {
	case !slices.Contains(workloadNames, r.cfg.workload):
		return fmt.Errorf("unknown workload %q (have %v)", r.cfg.workload, workloadNames)
	case r.cfg.trace:
		return runLedger(r)
	case r.cfg.workload == "sweep":
		return runSweep(r)
	case r.cfg.workload == "stream":
		return runStream(r)
	}
	return runServe(r)
}

// output is the result line's shape.
type output struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// finish prints the details line and the result line. It returns an
// error when any check failed.
func (r *run) finish(w io.Writer) error {
	att, failed := r.attempted.Load(), r.failed.Load()
	if att == 0 {
		return errors.New("no operation was checked")
	}
	r.detail("failed_frac", float64(failed)/float64(att), "ratio", int(att))
	names := make([]string, 0, len(r.details))
	for n := range r.details {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		d := r.details[n]
		fmt.Fprintf(r.log, "perfbench: %-34s %14.6g %-8s (n=%d)\n", n, d.Value, d.Unit, d.Samples)
	}
	det, err := json.Marshal(map[string]any{"workload": r.cfg.workload, "trace": r.cfg.trace, "details": r.details})
	if err != nil {
		return err
	}
	res, err := json.Marshal(output{Correct: failed == 0, Attempted: att, Failed: failed, Metrics: r.metrics})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s\n%s\n", det, res)
	if failed > 0 {
		return fmt.Errorf("%d of %d checked operations failed", failed, att)
	}
	return nil
}

func main() {
	var (
		cfg   = config{sizes: defaultSizes()}
		trace int
	)
	flag.StringVar(&cfg.workload, "workload", "", "workload: sweep | stream | serve")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed (the serve request sequence derives from it)")
	flag.Float64Var(&cfg.seconds, "seconds", 20, "how long the timed part runs")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced per-layer ledger instead of the timed run")
	flag.StringVar(&cfg.workdir, "workdir", ".bench_build/run", "directory for scratch files")
	flag.Parse()
	cfg.trace = trace == 1

	var rec record
	if err := json.Unmarshal(recordJSON, &rec); err != nil {
		fatal(fmt.Errorf("record.json: %w", err))
	}
	if rec.SweepMaxDyn != cfg.sizes.sweepMaxDyn {
		fatal(fmt.Errorf("record.json holds the digest for maxdyn %d, the sweep runs %d", rec.SweepMaxDyn, cfg.sizes.sweepMaxDyn))
	}
	cfg.sweepDigest = rec.SweepSHA256
	if trace != 0 && trace != 1 {
		fatal(fmt.Errorf("--trace must be 0 or 1, got %d", trace))
	}
	if cfg.seconds <= 0 {
		fatal(fmt.Errorf("--seconds must be positive"))
	}
	r := newRun(cfg, os.Stderr)
	if err := runWorkload(r); err != nil {
		fatal(err)
	}
	if err := r.finish(os.Stdout); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}
