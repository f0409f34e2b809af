package fabric

import (
	"fmt"
	"strings"
	"testing"
)

func ringKeys() []string {
	benches := []string{"mm", "fft", "gzip", "mcf", "cjpeg", "djpeg", "gsm", "susan"}
	cs := []string{"IO2", "OOO2", "OOO4", "OOO6"}
	var keys []string
	for _, b := range benches {
		for _, c := range cs {
			keys = append(keys, b+"|"+c)
		}
	}
	// Pad with synthetic keys so the reshuffle statistics are meaningful.
	for i := 0; i < 500; i++ {
		keys = append(keys, fmt.Sprintf("bench%d|core%d", i, i%7))
	}
	return keys
}

func replicaSet(n int) []string {
	reps := make([]string, n)
	for i := range reps {
		reps[i] = fmt.Sprintf("http://replica-%d:808%d", i, i)
	}
	return reps
}

// TestRingDeterministic: placement is a pure function of the replica
// SET — input order, separate constructions, and repeated lookups all
// agree. The coordinator relies on this to route a cell to the same
// warm replica across sweeps and restarts.
func TestRingDeterministic(t *testing.T) {
	reps := replicaSet(4)
	r1, err := NewRing(reps)
	if err != nil {
		t.Fatal(err)
	}
	reversed := []string{reps[3], reps[1], reps[0], reps[2]}
	r2, err := NewRing(reversed)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range ringKeys() {
		if r1.Owner(k) != r2.Owner(k) {
			t.Fatalf("owner of %q depends on replica input order: %q vs %q", k, r1.Owner(k), r2.Owner(k))
		}
		if r1.Owner(k) != r1.Owner(k) {
			t.Fatalf("owner of %q is not stable across lookups", k)
		}
	}
}

// TestRingMinimalReshuffle is the consistent-hashing contract: growing
// the set by one replica only moves keys ONTO the newcomer, and
// shrinking by one only moves the departed replica's keys. Everything
// else stays put, which is what keeps surviving replicas' caches warm
// through fabric reconfiguration.
func TestRingMinimalReshuffle(t *testing.T) {
	reps := replicaSet(4)
	newcomer := "http://replica-new:9090"
	small, err := NewRing(reps)
	if err != nil {
		t.Fatal(err)
	}
	big, err := NewRing(append(append([]string(nil), reps...), newcomer))
	if err != nil {
		t.Fatal(err)
	}
	keys := ringKeys()
	moved := 0
	for _, k := range keys {
		before, after := small.Owner(k), big.Owner(k)
		if before != after {
			moved++
			if after != newcomer {
				t.Fatalf("adding %q moved key %q from %q to %q (not the newcomer)", newcomer, k, before, after)
			}
		}
	}
	if moved == 0 {
		t.Error("adding a replica moved no keys at all")
	}
	if moved == len(keys) {
		t.Error("adding a replica moved every key")
	}

	// Removal: keys not owned by the departed replica keep their owner.
	departed := reps[2]
	var survivors []string
	for _, r := range reps {
		if r != departed {
			survivors = append(survivors, r)
		}
	}
	shrunk, err := NewRing(survivors)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range keys {
		if before := small.Owner(k); before != departed && shrunk.Owner(k) != before {
			t.Fatalf("removing %q moved key %q from %q to %q", departed, k, before, shrunk.Owner(k))
		}
	}
}

// TestRingOrdered: the failover order starts at the owner and visits
// every replica exactly once.
func TestRingOrdered(t *testing.T) {
	r, err := NewRing(replicaSet(4))
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range ringKeys()[:32] {
		seq := r.Ordered(k)
		if len(seq) != 4 {
			t.Fatalf("Ordered(%q) has %d entries, want 4", k, len(seq))
		}
		if seq[0] != r.Owner(k) {
			t.Fatalf("Ordered(%q) starts at %q, owner is %q", k, seq[0], r.Owner(k))
		}
		seen := map[string]bool{}
		for _, rep := range seq {
			if seen[rep] {
				t.Fatalf("Ordered(%q) repeats %q", k, rep)
			}
			seen[rep] = true
		}
	}
}

func TestRingRejectsBadSets(t *testing.T) {
	if _, err := NewRing(nil); err == nil {
		t.Error("empty replica set accepted")
	}
	if _, err := NewRing([]string{"http://a", "http://a"}); err == nil {
		t.Error("duplicate replica accepted")
	}
	if _, err := NewRing([]string{""}); err == nil {
		t.Error("empty replica address accepted")
	}
}

func TestParseReplicas(t *testing.T) {
	got, err := ParseReplicas(" http://a:1/ ,https://b:2")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != "http://a:1" || got[1] != "https://b:2" {
		t.Fatalf("ParseReplicas = %v", got)
	}
	for name, spec := range map[string]string{
		"empty list":       "",
		"blank entry":      "http://a:1,,http://b:2",
		"duplicate":        "http://a:1,http://a:1/",
		"missing scheme":   "a:1,http://b:2",
		"whitespace only":  "   ",
		"tcp-like address": "tcp://a:1",
	} {
		if _, err := ParseReplicas(spec); err == nil {
			t.Errorf("%s (%q): accepted", name, spec)
		} else if !strings.Contains(err.Error(), "fabric:") {
			t.Errorf("%s: error %q lacks package prefix", name, err)
		}
	}
}
