// Command e2e runs the end-to-end gates that hold the daemon and the
// sharded fabric to the CLI tools' reference evaluation, and the
// streaming engine to its memory budget. Each gate is one row of the
// scenario table below; every row uses the same helpers to boot
// daemons, query them and compare result documents.
//
// Usage: e2e <bindir> <scenario>...
//
// <bindir> holds the exocored, tdgsim and dse binaries. The mem and
// scale scenarios measure the whole process's memory, so each must be
// the only scenario of its invocation; the Makefile runs them under
// GOMEMLIMIT=512MiB. Exits non-zero on the first violation.
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"syscall"
	"time"

	"exocore/internal/report"
)

// scenario is one end-to-end gate. run returns a one-line summary of
// what it measured.
type scenario struct {
	name string
	// alone marks a scenario that bounds runtime.MemStats.Sys, which is
	// cumulative over the process, so it needs a process of its own.
	alone bool
	run   func(e *env) (string, error)
}

var scenarios = []scenario{
	{"trace", false, traceScenario},
	{"serve", false, serveScenario},
	{"obs", false, obsScenario},
	{"graph", false, graphScenario},
	{"fabric", false, fabricScenario},
	{"mem", true, memScenario},
	{"scale", true, scaleScenario},
}

func main() {
	if len(os.Args) < 3 {
		usage()
	}
	var run []scenario
	for _, name := range os.Args[2:] {
		i := slices.IndexFunc(scenarios, func(s scenario) bool { return s.name == name })
		if i < 0 {
			usage()
		}
		if scenarios[i].alone && len(os.Args) > 3 {
			fmt.Fprintf(os.Stderr, "e2e: %s bounds the whole process's memory, so it must run on its own\n", name)
			os.Exit(2)
		}
		run = append(run, scenarios[i])
	}
	tmp, err := os.MkdirTemp("", "exocore-e2e-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2e:", err)
		os.Exit(1)
	}
	code := 0
	e := &env{bin: os.Args[1], tmp: tmp}
	for _, s := range run {
		start := time.Now()
		summary, err := s.run(e)
		if err != nil {
			fmt.Fprintf(os.Stderr, "e2e %s: %v\n", s.name, err)
			code = 1
			break
		}
		fmt.Printf("e2e %s: ok in %.1fs %s\n", s.name, time.Since(start).Seconds(), summary)
	}
	os.RemoveAll(tmp)
	os.Exit(code)
}

func usage() {
	var names []string
	for _, s := range scenarios {
		names = append(names, s.name)
	}
	fmt.Fprintf(os.Stderr, "usage: e2e <bindir> <scenario>...\nscenarios: %s\n", strings.Join(names, " "))
	os.Exit(2)
}

// env is what every scenario runs against.
type env struct {
	bin string // directory holding exocored, tdgsim and dse
	tmp string // private scratch directory, removed when the run ends
}

// runTool runs one of the built CLI tools and returns its stdout.
func (e *env) runTool(tool string, args ...string) ([]byte, error) {
	cmd := exec.Command(filepath.Join(e.bin, tool), args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", tool, err)
	}
	return out, nil
}

// daemon is one exocored process under test. A single goroutine owns
// cmd.Wait; start, kill and drain all read its result through done.
type daemon struct {
	name string
	cmd  *exec.Cmd
	addr string // host:port the daemon wrote to its -portfile
	base string // "http://" + addr
	done chan struct{}
	err  error // cmd.Wait's result, set before done is closed
}

// startDaemon boots exocored with args and -portfile, and waits up to
// 30 s for it to listen. A daemon that exits first fails the start at
// once, with its exit status.
func startDaemon(e *env, name string, args ...string) (*daemon, error) {
	portFile := filepath.Join(e.tmp, name+".addr")
	os.Remove(portFile)
	cmd := exec.Command(filepath.Join(e.bin, "exocored"), append([]string{"-portfile", portFile}, args...)...)
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	d := &daemon{name: name, cmd: cmd, done: make(chan struct{})}
	go func() {
		d.err = cmd.Wait()
		close(d.done)
	}()
	poll := time.NewTicker(20 * time.Millisecond)
	defer poll.Stop()
	timeout := time.After(30 * time.Second)
	for {
		if b, err := os.ReadFile(portFile); err == nil && len(bytes.TrimSpace(b)) > 0 {
			d.addr = string(bytes.TrimSpace(b))
			d.base = "http://" + d.addr
			return d, nil
		}
		select {
		case <-d.done:
			return nil, fmt.Errorf("%s exited before listening: %v", name, cmd.ProcessState)
		case <-timeout:
			d.kill()
			return nil, fmt.Errorf("%s did not write %s within 30s", name, portFile)
		case <-poll.C:
		}
	}
}

// kill SIGKILLs the daemon, unless it has exited already, and reaps it.
func (d *daemon) kill() {
	d.cmd.Process.Kill() // fails only when the process is already gone
	<-d.done
}

// drain sends SIGTERM and requires a clean exit 0 within 30 s.
func (d *daemon) drain() error {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return fmt.Errorf("%s: signal: %w", d.name, err)
	}
	select {
	case <-d.done:
		if d.err != nil {
			return fmt.Errorf("%s did not exit 0 after SIGTERM: %w", d.name, d.err)
		}
		return nil
	case <-time.After(30 * time.Second):
		d.kill()
		return fmt.Errorf("%s did not exit within 30s of SIGTERM", d.name)
	}
}

// health is the union of the /healthz fields the scenarios read from
// replicas, single daemons and coordinators.
type health struct {
	Status   string `json:"status"`
	Role     string `json:"role"`
	Inflight int    `json:"inflight"`
	Replicas []struct {
		Alive bool `json:"alive"`
	} `json:"replicas"`
	Store struct {
		Entries int `json:"entries"`
	} `json:"store"`
}

func healthz(base string) (health, error) {
	var h health
	err := getJSON(base+"/healthz", &h)
	return h, err
}

// metric reads one counter or gauge from a daemon's /metricsz.
func metric(base, name string) (int64, error) {
	var m struct {
		Points []struct {
			Name  string `json:"name"`
			Value int64  `json:"value"`
		} `json:"points"`
	}
	if err := getJSON(base+"/metricsz", &m); err != nil {
		return 0, err
	}
	for _, p := range m.Points {
		if p.Name == name {
			return p.Value, nil
		}
	}
	return 0, fmt.Errorf("%s/metricsz has no %s point", base, name)
}

// postJSON POSTs a JSON body and returns the 200 response's body and
// its X-Request-Id header.
func postJSON(url, body string) ([]byte, string, error) {
	b, h, err := readOK(http.Post(url, "application/json", strings.NewReader(body)))
	return b, h.Get("X-Request-Id"), err
}

// get returns the body and headers of a 200 response to a GET of url.
func get(url string) ([]byte, http.Header, error) {
	return readOK(http.Get(url))
}

// getJSON decodes the body of a 200 response to a GET of url into v.
func getJSON(url string, v any) error {
	b, _, err := get(url)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("%s: %w", url, err)
	}
	return nil
}

func readOK(resp *http.Response, err error) ([]byte, http.Header, error) {
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("%s: status %d: %s", resp.Request.URL, resp.StatusCode, b)
	}
	return b, resp.Header, err
}

// compareDocs requires the served body to be exactly the rendering of
// its own decoded document (so a body in another layout, say from a
// second render path, cannot pass), then decodes both sides under the
// strict versioned-schema decoder, clears the fields that legitimately
// differ (tool name, run-local engine metrics) and requires the
// re-rendered documents — every result row — to be byte-identical.
func compareDocs(what string, served, cli []byte) error {
	if err := checkRendered(served); err != nil {
		return fmt.Errorf("%s: daemon: %w", what, err)
	}
	nd, err := normalize(served)
	if err != nil {
		return fmt.Errorf("%s: daemon: %w", what, err)
	}
	nc, err := normalize(cli)
	if err != nil {
		return fmt.Errorf("%s: cli: %w", what, err)
	}
	if !bytes.Equal(nd, nc) {
		return fmt.Errorf("%s: documents differ after normalization\n--- daemon ---\n%.2000s\n--- cli ---\n%.2000s", what, nd, nc)
	}
	return nil
}

// checkRendered requires raw to equal Write(Decode(raw)) byte for byte.
func checkRendered(raw []byte) error {
	d, err := report.Decode(bytes.NewReader(raw))
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	if err := d.Write(&buf); err != nil {
		return err
	}
	if !bytes.Equal(buf.Bytes(), raw) {
		return fmt.Errorf("served bytes are not the rendered document\n--- served ---\n%.2000s\n--- rendered ---\n%.2000s", raw, buf.Bytes())
	}
	return nil
}

func normalize(raw []byte) ([]byte, error) {
	d, err := report.Decode(bytes.NewReader(raw))
	if err != nil {
		return nil, err
	}
	d.Tool = ""
	d.Metrics = nil
	var buf bytes.Buffer
	if err := d.Write(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}
