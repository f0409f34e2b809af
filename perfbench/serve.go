package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"exocore/internal/bsa"
	"exocore/internal/cli"
	"exocore/internal/cores"
	"exocore/internal/dse"
	"exocore/internal/report"
	"exocore/internal/runner"
	"exocore/internal/serve"
)

// servedBenches are the benchmarks the serve workload asks about: the
// quick set plus two graph kernels, whose contexts set-up warms on every
// core.
var servedBenches = append(append([]string(nil), cli.QuickSet...), "bfs", "pagerank")

// serveClients is the number of closed-loop client connections. Each
// client sends the requests for its own half of the cores: two requests
// in flight on one (bench, core) scheduling context can make
// exocore.Run index a class-less cached outcome with RecordRegions set
// (a concurrent prefix publication or sweep wins Cache.store) and
// panic the daemon, and the benchmark must not fail.
const serveClients = 2

// request is one generated request. key identifies the response it
// must produce: equal keys must yield equal bytes. client is the
// client that sends it.
type request struct {
	sweep  bool
	key    int
	client int
	body   []byte
	eval   serve.EvalRequest
	swp    serve.SweepRequest
}

// serveSequence generates the seeded request sequence: about 90%
// /v1/evaluate over bench × core × BSA subset × scheduler, the rest
// partial /v1/sweep requests over 2-4 design codes of one core on one
// bench — the shape of a fabric shard.
func serveSequence(seed int64, n int) ([]request, error) {
	rng := rand.New(rand.NewSource(seed))
	reg := bsa.Default()
	subsets := 1 << reg.Len()
	keys := map[string]int{}
	seq := make([]request, 0, n)
	for len(seq) < n {
		var rq request
		bench := servedBenches[rng.Intn(len(servedBenches))]
		ci := rng.Intn(len(cores.Configs))
		core := cores.Configs[ci]
		rq.client = ci % serveClients
		sched := "oracle"
		if rng.Intn(2) == 1 {
			sched = "amdahl"
		}
		if rng.Intn(10) < 9 {
			spec := "none"
			if names := reg.SubsetNames(rng.Intn(subsets)); len(names) > 0 {
				spec = strings.Join(names, ",")
			}
			rq.eval = serve.EvalRequest{Bench: bench, Core: core.Name, BSAs: spec, Sched: sched}
			b, err := json.Marshal(rq.eval)
			if err != nil {
				return nil, err
			}
			rq.body = b
		} else {
			rq.sweep = true
			masks := rng.Perm(subsets)[:2+rng.Intn(3)]
			codes := make([]string, len(masks))
			for i, m := range masks {
				codes[i] = dse.DesignCodeIn(reg, core, m)
			}
			rq.swp = serve.SweepRequest{Bench: bench, Designs: codes, Sched: sched, Partial: true}
			b, err := json.Marshal(rq.swp)
			if err != nil {
				return nil, err
			}
			rq.body = b
		}
		k := string(rq.body)
		if rq.sweep {
			k = "sweep" + k
		}
		id, ok := keys[k]
		if !ok {
			id = len(keys)
			keys[k] = id
		}
		rq.key = id
		seq = append(seq, rq)
	}
	return seq, nil
}

// path returns the request's endpoint.
func (rq *request) path() string {
	if rq.sweep {
		return "/v1/sweep"
	}
	return "/v1/evaluate"
}

// document builds the request's response document directly, without
// HTTP — the reference every served response must equal, and the call
// the traced ledger times.
func (rq *request) document(ctx context.Context, eng *runner.Engine) (*report.Document, error) {
	if rq.sweep {
		wls, err := cli.ResolveBenchSpec(rq.swp.Bench)
		if err != nil {
			return nil, err
		}
		return serve.SweepDocument(ctx, eng, "exocored", wls, rq.swp.Designs, rq.swp.Sched, rq.swp.Partial)
	}
	wls, err := cli.ResolveBenchSpec(rq.eval.Bench)
	if err != nil {
		return nil, err
	}
	core, ok := cores.ConfigByName(rq.eval.Core)
	if !ok {
		return nil, fmt.Errorf("unknown core %q", rq.eval.Core)
	}
	bsas, err := cli.ResolveBSASpecWith(eng.BSAs(), rq.eval.BSAs)
	if err != nil {
		return nil, err
	}
	return serve.EvaluateDocument(ctx, eng, "exocored", wls, core, bsas, rq.eval.Sched, nil)
}

// render writes a document exactly as the daemon does.
func render(doc *report.Document) ([]byte, error) {
	var buf bytes.Buffer
	if err := doc.Write(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// httpServer is a handler served on a loopback listener.
type httpServer struct {
	hs  *http.Server
	url string
	// served is closed when the Serve loop has returned.
	served chan struct{}
}

// serveHTTP serves h on addr ("127.0.0.1:0" picks a free port).
func serveHTTP(addr string, h http.Handler) (*httpServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &httpServer{hs: &http.Server{Handler: h}, url: "http://" + ln.Addr().String(), served: make(chan struct{})}
	go func() {
		defer close(s.served)
		s.hs.Serve(ln)
	}()
	return s, nil
}

// stop drains in-flight requests and waits for the Serve loop to exit.
func (s *httpServer) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	<-s.served
	return err
}

// daemon is one in-process serve.Server on a loopback listener.
type daemon struct {
	*httpServer
	eng *runner.Engine
	srv *serve.Server
}

// startDaemon serves srv's handler (wrapped by wrap, if non-nil) on
// addr.
func startDaemon(eng *runner.Engine, srv *serve.Server, addr string, wrap func(http.Handler) http.Handler) (*daemon, error) {
	h := srv.Handler()
	if wrap != nil {
		h = wrap(h)
	}
	hs, err := serveHTTP(addr, h)
	if err != nil {
		return nil, err
	}
	return &daemon{httpServer: hs, eng: eng, srv: srv}, nil
}

// stop drains the HTTP server, then the serve layer's async work.
func (d *daemon) stop() error {
	err := d.httpServer.stop()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if serr := d.srv.Shutdown(ctx); err == nil {
		err = serr
	}
	return err
}

// bootServe is the serve workload's set-up: a fresh engine and server
// on loopback, with the scheduling contexts of every served bench
// warmed on every core.
func bootServe(sz sizes, wrap func(http.Handler) http.Handler) (*daemon, error) {
	eng := runner.New(runner.Options{MaxDyn: sz.serveMaxDyn, Workers: sz.workers})
	wls, err := cli.ResolveBenchSpec(strings.Join(servedBenches, ","))
	if err != nil {
		return nil, err
	}
	n := len(wls) * len(cores.Configs)
	if err := eng.ForEach(n, func(i int) error {
		_, err := eng.Context(wls[i/len(cores.Configs)], cores.Configs[i%len(cores.Configs)])
		return err
	}); err != nil {
		return nil, err
	}
	srv, err := serve.New(serve.Config{Engine: eng})
	if err != nil {
		return nil, err
	}
	return startDaemon(eng, srv, "127.0.0.1:0", wrap)
}

// newClient returns an HTTP client whose transport keeps one idle
// connection per closed-loop client.
func newClient() *http.Client {
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxIdleConnsPerHost = serveClients
	return &http.Client{Transport: tr}
}

// responses remembers the first response body per request key; every
// later response for the key must equal it.
type responses struct {
	mu    sync.Mutex
	first map[int][]byte
	rq    map[int]*request
}

func newResponses() *responses {
	return &responses{first: map[int][]byte{}, rq: map[int]*request{}}
}

// match records body for rq's key and reports whether it equals the
// key's first body.
func (s *responses) match(rq *request, body []byte) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if prev, ok := s.first[rq.key]; ok {
		return bytes.Equal(prev, body)
	}
	s.first[rq.key] = body
	s.rq[rq.key] = rq
	return true
}

// verify renders every distinct request directly on eng and requires
// the first served body to equal it.
func (s *responses) verify(r *run, eng *runner.Engine) error {
	keys := make([]int, 0, len(s.first))
	for k := range s.first {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	for _, k := range keys {
		doc, err := s.rq[k].document(context.Background(), eng)
		if err != nil {
			return err
		}
		want, err := render(doc)
		if err != nil {
			return err
		}
		r.check(bytes.Equal(s.first[k], want), "serve %s %s: response differs from the direct render", s.rq[k].path(), s.rq[k].body)
	}
	return nil
}

// passStats are the client-side observations of one pass over the
// request sequence.
type passStats struct {
	wall     time.Duration
	evalLat  []time.Duration
	sweepLat []time.Duration
}

// clientPass sends seq once through serveClients closed-loop clients,
// each sending its own requests in sequence order, checking every
// response.
func clientPass(r *run, c *http.Client, base string, seq []request, got *responses) (passStats, error) {
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		ps       passStats
		firstErr error
	)
	start := time.Now()
	for i := 0; i < serveClients; i++ {
		wg.Add(1)
		go func(client int) {
			defer wg.Done()
			var evalLat, sweepLat []time.Duration
			for j := range seq {
				rq := &seq[j]
				if rq.client != client {
					continue
				}
				t0 := time.Now()
				body, status, err := post(c, base+rq.path(), rq.body)
				lat := time.Since(t0)
				if err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
					r.check(false, "serve %s: %v", rq.path(), err)
					continue
				}
				r.check(status == http.StatusOK && got.match(rq, body), "serve %s %s: status %d or body differs from the key's first response", rq.path(), rq.body, status)
				if rq.sweep {
					sweepLat = append(sweepLat, lat)
				} else {
					evalLat = append(evalLat, lat)
				}
			}
			mu.Lock()
			ps.evalLat = append(ps.evalLat, evalLat...)
			ps.sweepLat = append(ps.sweepLat, sweepLat...)
			mu.Unlock()
		}(i)
	}
	wg.Wait()
	ps.wall = time.Since(start)
	if firstErr != nil && len(ps.evalLat)+len(ps.sweepLat) == 0 {
		return ps, firstErr
	}
	return ps, nil
}

// post sends one JSON request and reads the whole response.
func post(c *http.Client, url string, body []byte) ([]byte, int, error) {
	resp, err := c.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, 0, err
	}
	return b, resp.StatusCode, nil
}

// runServe is the timed serve workload: set-up boots and warms the
// daemon; each job is one pass of the seeded sequence.
func runServe(r *run) error {
	sz := r.cfg.sizes
	seq, err := serveSequence(r.cfg.seed, sz.serveRequests)
	if err != nil {
		return err
	}
	var d *daemon
	setup, err := repeatSetup(sz.setupReps, func() error {
		if d != nil {
			if err := d.stop(); err != nil {
				return err
			}
		}
		var err error
		d, err = bootServe(sz, r.cfg.wrapServe)
		return err
	})
	if err != nil {
		if d != nil {
			d.stop()
		}
		return err
	}
	c := newClient()
	got := newResponses()
	var evalLat, sweepLat []time.Duration
	js, err := timedJobs(r.cfg.seconds, sz.minJobs, func(measure func(func() error) error) error {
		return measure(func() error {
			ps, err := clientPass(r, c, d.url, seq, got)
			evalLat = append(evalLat, ps.evalLat...)
			sweepLat = append(sweepLat, ps.sweepLat...)
			return err
		})
	})
	c.CloseIdleConnections()
	if err == nil {
		err = got.verify(r, d.eng)
	}
	if serr := d.stop(); err == nil {
		err = serr
	}
	if err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	r.endToEnd(setup, js)
	n := len(evalLat) + len(sweepLat)
	if n == 0 {
		return errors.New("serve: no request completed")
	}
	ms := durations(evalLat, time.Millisecond)
	r.detail("serve_rps", float64(len(seq))/median(js.wall), "req/s", len(js.wall))
	r.detail("evaluate_p50_ms", quantile(ms, 0.5), "ms", len(ms))
	r.detail("evaluate_p99_ms", quantile(ms, 0.99), "ms", len(ms))
	r.detail("sweep_p50_ms", median(durations(sweepLat, time.Millisecond)), "ms", len(sweepLat))
	return nil
}
