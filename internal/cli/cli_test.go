package cli

import (
	"bytes"
	"regexp"
	"strings"
	"testing"

	"exocore/internal/bsa"
	"exocore/internal/cores"
	"exocore/internal/sim"
	"exocore/internal/workloads"
)

func TestParseDefaults(t *testing.T) {
	a := New("tool", "all")
	if err := a.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if a.CoreConfig().Name != cores.Default.Name {
		t.Errorf("default core = %s", a.CoreConfig().Name)
	}
	if got, want := len(a.Workloads()), len(workloads.All()); got != want {
		t.Errorf("default workloads = %d, want %d", got, want)
	}
	if got := a.BSANames(); len(got) != bsa.Default().Len() || got[0] != "SIMD" {
		t.Errorf("default BSAs = %v", got)
	}
	if a.Sched != "oracle" {
		t.Error("default scheduler should be oracle")
	}
	if a.MaxDyn != sim.DefaultMaxDyn {
		t.Errorf("default maxdyn = %d", a.MaxDyn)
	}
}

func TestParseUnifiedFlags(t *testing.T) {
	a := New("tool", "all")
	err := a.Parse([]string{
		"-bench", "mm,cjpeg", "-core", "IO2", "-bsas", "SIMD,NS-DF",
		"-sched", "amdahl", "-json", "-v", "-maxdyn", "5000", "-workers", "3",
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Workloads()) != 2 || a.Workloads()[0].Name != "mm" {
		t.Errorf("workloads = %v", a.Workloads())
	}
	if a.CoreConfig().Name != "IO2" {
		t.Errorf("core = %s", a.CoreConfig().Name)
	}
	if got := a.BSANames(); len(got) != 2 || got[0] != "SIMD" || got[1] != "NS-DF" {
		t.Errorf("bsas = %v", got)
	}
	if a.Sched != "amdahl" || !a.JSON || !a.Verbose {
		t.Error("amdahl/json/v flags not picked up")
	}
	if a.Engine().MaxDyn() != 5000 || a.Engine().Workers() != 3 {
		t.Errorf("engine budget/workers = %d/%d", a.Engine().MaxDyn(), a.Engine().Workers())
	}
}

func TestParseQuickSet(t *testing.T) {
	a := New("tool", "all")
	if err := a.Parse([]string{"-bench", "quick"}); err != nil {
		t.Fatal(err)
	}
	if got, want := len(a.Workloads()), len(QuickSet); got != want {
		t.Errorf("quick set = %d workloads, want %d", got, want)
	}
}

func TestParseRejectsInvalid(t *testing.T) {
	cases := []struct {
		args []string
		want string
	}{
		{[]string{"-core", "Pentium"}, "unknown core"},
		{[]string{"-bench", "nosuchbench"}, "unknown workload"},
		{[]string{"-bsas", "GPU"}, "unknown BSA"},
		{[]string{"-sched", "magic"}, "unknown scheduler"},
	}
	for _, c := range cases {
		a := New("tool", "all")
		err := a.Parse(c.args)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("Parse(%v) err = %v, want %q", c.args, err, c.want)
		}
	}
}

func TestResolveBSASpecNone(t *testing.T) {
	for _, spec := range []string{"", "none"} {
		got, err := ResolveBSASpec(spec)
		if err != nil || got != nil {
			t.Errorf("ResolveBSASpec(%q) = %v, %v", spec, got, err)
		}
	}
}

func TestSetMaxDynDefault(t *testing.T) {
	a := New("tool", "all")
	a.SetMaxDynDefault(40000)
	if err := a.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if a.MaxDyn != 40000 {
		t.Errorf("maxdyn = %d, want overridden default 40000", a.MaxDyn)
	}
	b := New("tool", "all")
	b.SetMaxDynDefault(40000)
	if err := b.Parse([]string{"-maxdyn", "123"}); err != nil {
		t.Fatal(err)
	}
	if b.MaxDyn != 123 {
		t.Errorf("maxdyn = %d, explicit flag must win", b.MaxDyn)
	}
}

func TestEngineIsShared(t *testing.T) {
	a := New("tool", "all")
	if err := a.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if a.Engine() != a.Engine() {
		t.Error("Engine() must return the same instance")
	}
}

// TestFinishPrintsStoreCounters: -v prints the durable store's counters
// after the eval-cache line when -store is set, and no store line
// without it.
func TestFinishPrintsStoreCounters(t *testing.T) {
	run := func(args ...string) string {
		t.Helper()
		a := New("tool", "mm")
		var stderr bytes.Buffer
		a.Stderr = &stderr
		if err := a.Parse(append([]string{"-v", "-maxdyn", "2000"}, args...)); err != nil {
			t.Fatal(err)
		}
		if _, err := a.Engine().Context(a.Workloads()[0], a.CoreConfig()); err != nil {
			t.Fatal(err)
		}
		a.Finish()
		return stderr.String()
	}
	plain := run()
	if !strings.Contains(plain, "eval-cache hits=") || strings.Contains(plain, "store hits=") {
		t.Errorf("-v without -store:\n%s", plain)
	}
	stored := run("-store", t.TempDir())
	m := regexp.MustCompile(`store hits=0 +misses=(\d+) +writes=(\d+) +write_errors=0\n`).FindStringSubmatch(stored)
	if m == nil || m[1] == "0" || m[2] == "0" {
		t.Errorf("-v with a fresh -store: want a store line with misses and writes\n%s", stored)
	}
}
