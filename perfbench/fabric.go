package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"exocore/internal/cli"
	"exocore/internal/exocore"
	"exocore/internal/fabric"
	"exocore/internal/obs"
	"exocore/internal/runner"
	"exocore/internal/serve"
	"exocore/internal/store"
)

// fabricReplicas is the replica count of the fabric topology.
const fabricReplicas = 2

// fabricHedge is the coordinator's hedge delay, exocored's default.
const fabricHedge = 10 * time.Second

// fabricHooks instruments a topology; the ledger's plain round leaves
// both nil.
type fabricHooks struct {
	// persist wraps replica i's store as its engine's persistence layer.
	persist func(i int, p exocore.Persist) exocore.Persist
	// handler wraps replica i's HTTP handler.
	handler func(i int, h http.Handler) http.Handler
}

// replica is one replica daemon with its persistent store.
type replica struct {
	*daemon
	st   *store.Store
	reg  *obs.Registry
	open time.Duration // store.Open's wall time
}

// bootReplica opens the store in dir and serves replica i, a daemon
// with a 1-worker engine persisting into the store, on addr.
func bootReplica(i int, addr, dir string, maxDyn int, hooks fabricHooks) (*replica, error) {
	reg := obs.NewRegistry()
	t0 := time.Now()
	st, err := store.Open(dir, store.Options{Reg: reg})
	open := time.Since(t0)
	if err != nil {
		return nil, err
	}
	var persist exocore.Persist = st
	if hooks.persist != nil {
		persist = hooks.persist(i, st)
	}
	eng := runner.New(runner.Options{MaxDyn: maxDyn, Workers: 1, Reg: reg, Persist: persist})
	srv, err := serve.New(serve.Config{Engine: eng, Role: "replica", Store: st})
	if err != nil {
		return nil, err
	}
	var wrap func(http.Handler) http.Handler
	if hooks.handler != nil {
		wrap = func(h http.Handler) http.Handler { return hooks.handler(i, h) }
	}
	d, err := startDaemon(eng, srv, addr, wrap)
	if err != nil {
		return nil, err
	}
	return &replica{daemon: d, st: st, reg: reg, open: open}, nil
}

// topology is the fabric under test: replicas and a coordinator served
// on loopback, with the replicas' stores under dir.
type topology struct {
	dir      string
	maxDyn   int
	hooks    fabricHooks
	replicas []*replica
	creg     *obs.Registry
	coordTr  *http.Transport
	coord    *httpServer
	client   *http.Client
}

// bootTopology boots the replicas over store directories under dir and
// the coordinator in front of them.
func bootTopology(dir string, maxDyn int, hooks fabricHooks) (*topology, error) {
	t := &topology{dir: dir, maxDyn: maxDyn, hooks: hooks, creg: obs.NewRegistry(), client: newClient()}
	var urls []string
	for i := 0; i < fabricReplicas; i++ {
		rep, err := bootReplica(i, "127.0.0.1:0", t.storeDir(i), maxDyn, hooks)
		if err != nil {
			t.stop()
			return nil, err
		}
		t.replicas = append(t.replicas, rep)
		urls = append(urls, rep.url)
	}
	// The coordinator gets its own transport so idle connections to
	// stopped replicas can be dropped before they restart.
	t.coordTr = http.DefaultTransport.(*http.Transport).Clone()
	coord, err := fabric.New(fabric.Config{
		Replicas: urls, Client: &http.Client{Transport: t.coordTr},
		HedgeAfter: fabricHedge, Reg: t.creg,
	})
	if err == nil {
		t.coord, err = serveHTTP("127.0.0.1:0", coord.Handler())
	}
	if err != nil {
		t.stop()
		return nil, err
	}
	return t, nil
}

func (t *topology) storeDir(i int) string {
	return filepath.Join(t.dir, "r"+strconv.Itoa(i+1))
}

// sweep posts the quick-set full-grid sweep to the coordinator.
func (t *topology) sweep() ([]byte, error) {
	body, err := json.Marshal(serve.SweepRequest{Bench: "quick", MaxDyn: t.maxDyn})
	if err != nil {
		return nil, err
	}
	out, status, err := post(t.client, t.coord.url+"/v1/sweep", body)
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("coordinated sweep: status %d: %.300s", status, out)
	}
	return out, nil
}

// restart stops every replica and boots a fresh one on the same address
// over the same store directory (the ring places shards by replica
// URL), returning the summed store.Open time.
func (t *topology) restart() (time.Duration, error) {
	for _, rep := range t.replicas {
		if err := rep.stop(); err != nil {
			return 0, err
		}
	}
	t.coordTr.CloseIdleConnections()
	var open time.Duration
	for i, rep := range t.replicas {
		next, err := bootReplica(i, strings.TrimPrefix(rep.url, "http://"), t.storeDir(i), t.maxDyn, t.hooks)
		if err != nil {
			t.replicas = t.replicas[:i]
			return open, err
		}
		t.replicas[i] = next
		open += next.open
	}
	return open, nil
}

// stop shuts everything down and removes the stores.
func (t *topology) stop() error {
	var firstErr error
	keep := func(err error) {
		if firstErr == nil && err != nil {
			firstErr = err
		}
	}
	if t.coord != nil {
		keep(t.coord.stop())
	}
	for _, rep := range t.replicas {
		keep(rep.stop())
	}
	if t.coordTr != nil {
		t.coordTr.CloseIdleConnections()
	}
	t.client.CloseIdleConnections()
	keep(os.RemoveAll(t.dir))
	return firstErr
}

// fabricReference renders the single-engine answer the coordinated
// sweep must equal byte for byte.
func fabricReference(maxDyn, workers int) ([]byte, error) {
	wls, err := cli.ResolveBenchSpec("quick")
	if err != nil {
		return nil, err
	}
	eng := runner.New(runner.Options{MaxDyn: maxDyn, Workers: workers})
	doc, err := serve.SweepDocument(context.Background(), eng, "exocored", wls, nil, "oracle", false)
	if err != nil {
		return nil, err
	}
	return render(doc)
}

// fabricRound is one cold sweep plus one restart sweep on a fresh
// topology.
type fabricRound struct {
	cold    time.Duration // the cold coordinated sweep
	restart time.Duration // replica restart over the stores + sweep
	open    time.Duration // store.Open within the restart
}

// runFabricRound boots a topology in dir, sweeps cold, restarts the
// replicas over their stores and sweeps again, checking both answers
// against want. coldDone, if non-nil, runs between the two phases;
// done, if non-nil, runs after the restart sweep, before the topology
// stops.
func runFabricRound(r *run, dir string, maxDyn int, hooks fabricHooks, want []byte,
	coldDone, done func(*topology)) (fr fabricRound, err error) {

	if err := os.RemoveAll(dir); err != nil {
		return fr, err
	}
	t, err := bootTopology(dir, maxDyn, hooks)
	if err != nil {
		return fr, err
	}
	defer func() {
		if serr := t.stop(); err == nil {
			err = serr
		}
	}()
	t0 := time.Now()
	cold, err := t.sweep()
	fr.cold = time.Since(t0)
	if err != nil {
		return fr, err
	}
	r.check(bytes.Equal(cold, want), "fabric: cold coordinated sweep differs from the single-engine document")
	if coldDone != nil {
		coldDone(t)
	}
	t0 = time.Now()
	if fr.open, err = t.restart(); err != nil {
		return fr, err
	}
	warm, err := t.sweep()
	fr.restart = time.Since(t0)
	if err != nil {
		return fr, err
	}
	r.check(bytes.Equal(warm, cold), "fabric: restart sweep differs from the cold sweep")
	if done != nil {
		done(t)
	}
	return fr, nil
}
