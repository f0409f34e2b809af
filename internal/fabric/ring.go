// Package fabric is the sharded sweep fabric: a coordinator-mode
// exocored that splits a DSE sweep across a set of replica daemons and
// reassembles their partial results into a document byte-identical to
// a single daemon's answer.
//
// Placement is a consistent-hash ring over the replica base URLs. The
// sharding unit is the (benchmark, core) cell — the granularity of the
// engine's expensive pipeline artifacts (trace, TDG, scheduling
// context) — so every design sharing a cell lands on the same replica
// and its stage memos specialize. Consistent hashing keeps that
// affinity stable across fabric reconfigurations: adding or removing
// one replica moves only the cells it gains or loses, so the other
// replicas' warm caches (and their persistent stores) stay hot.
package fabric

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strconv"
	"strings"
)

// vnodes is the virtual-node count per replica: enough points that load
// spreads near-uniformly over a handful of replicas without making ring
// construction or lookup measurable.
const vnodes = 64

// Ring is an immutable consistent-hash ring over replica base URLs.
// Safe for concurrent use.
type Ring struct {
	replicas []string
	points   []ringPoint
}

type ringPoint struct {
	hash    uint64
	replica int // index into replicas
}

// NewRing builds a ring with vnodes virtual points per replica.
// Replicas must be non-empty and unique.
func NewRing(replicas []string) (*Ring, error) {
	if len(replicas) == 0 {
		return nil, fmt.Errorf("fabric: ring needs at least one replica")
	}
	seen := make(map[string]bool, len(replicas))
	r := &Ring{
		replicas: append([]string(nil), replicas...),
		points:   make([]ringPoint, 0, len(replicas)*vnodes),
	}
	for i, rep := range r.replicas {
		if rep == "" {
			return nil, fmt.Errorf("fabric: empty replica address")
		}
		if seen[rep] {
			return nil, fmt.Errorf("fabric: duplicate replica %q", rep)
		}
		seen[rep] = true
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, ringPoint{hash64(rep + "#" + strconv.Itoa(v)), i})
		}
	}
	// Ties between points are broken by replica URL so the ring is a pure
	// function of the replica set, independent of its input order.
	sort.Slice(r.points, func(a, b int) bool {
		pa, pb := r.points[a], r.points[b]
		if pa.hash != pb.hash {
			return pa.hash < pb.hash
		}
		return r.replicas[pa.replica] < r.replicas[pb.replica]
	})
	return r, nil
}

// hash64 is FNV-64a: fast, dependency-free, and stable across processes
// and platforms — owners computed by different coordinator builds agree.
func hash64(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}

// Replicas returns the replica set (not a copy; do not mutate).
func (r *Ring) Replicas() []string { return r.replicas }

// Owner returns the replica owning a key: the first ring point at or
// after the key's hash, wrapping.
func (r *Ring) Owner(key string) string {
	return r.replicas[r.points[r.search(key)].replica]
}

// Ordered returns every replica in ring order starting at the key's
// owner — the failover sequence when the owner is unreachable. Each
// replica appears once.
func (r *Ring) Ordered(key string) []string {
	out := make([]string, 0, len(r.replicas))
	seen := make(map[int]bool, len(r.replicas))
	for i, start := 0, r.search(key); len(out) < len(r.replicas); i++ {
		p := r.points[(start+i)%len(r.points)]
		if !seen[p.replica] {
			seen[p.replica] = true
			out = append(out, r.replicas[p.replica])
		}
	}
	return out
}

func (r *Ring) search(key string) int {
	h := hash64(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return i
}

// ParseReplicas validates a comma-separated replica list (the -replicas
// flag): entries must be non-empty http:// or https:// base URLs with
// no duplicates. Whitespace around entries is tolerated; a trailing
// slash is stripped so "http://h:1/" and "http://h:1" are the same
// replica.
func ParseReplicas(spec string) ([]string, error) {
	if strings.TrimSpace(spec) == "" {
		return nil, fmt.Errorf("fabric: empty replica list")
	}
	var out []string
	seen := make(map[string]bool)
	for _, raw := range strings.Split(spec, ",") {
		rep := strings.TrimRight(strings.TrimSpace(raw), "/")
		if rep == "" {
			return nil, fmt.Errorf("fabric: empty replica entry in %q", spec)
		}
		if !strings.HasPrefix(rep, "http://") && !strings.HasPrefix(rep, "https://") {
			return nil, fmt.Errorf("fabric: replica %q is not an http:// or https:// base URL", rep)
		}
		if seen[rep] {
			return nil, fmt.Errorf("fabric: duplicate replica %q", rep)
		}
		seen[rep] = true
		out = append(out, rep)
	}
	return out, nil
}
