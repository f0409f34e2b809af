package dg

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// criticalPathNodes returns the node IDs on the critical path ending at
// from, in reverse (from → origin) order.
func criticalPathNodes(g *Graph, from NodeID) []NodeID {
	var out []NodeID
	for id := from; id >= 0; id = NodeID(g.pred[id-g.base]) {
		out = append(out, id)
		if id == 0 {
			break
		}
	}
	return out
}

func TestLongestPathRelaxation(t *testing.T) {
	g := NewGraph()
	a := g.NewNode(0)
	g.AddEdge(g.Origin(), a, 3, EdgeExec)
	b := g.NewNode(1)
	g.AddEdge(g.Origin(), b, 1, EdgeExec)
	c := g.NewNode(2)
	g.AddEdge(a, c, 2, EdgeData)
	g.AddEdge(b, c, 10, EdgeMemDep)
	if got := g.Time(c); got != 11 {
		t.Errorf("Time(c) = %d, want 11 (max path)", got)
	}
}

func TestCriticalPathBreakdown(t *testing.T) {
	g := NewGraph()
	a := g.NewNode(0)
	g.AddEdge(g.Origin(), a, 5, EdgeExec)
	b := g.NewNode(0)
	g.AddEdge(a, b, 7, EdgeMemDep)
	bd := g.CriticalPathBreakdown(b)
	if bd[EdgeExec] != 5 || bd[EdgeMemDep] != 7 {
		t.Errorf("breakdown = %v", bd)
	}
	nodes := criticalPathNodes(g, b)
	if len(nodes) != 3 { // b, a, origin
		t.Errorf("critical path nodes = %v", nodes)
	}
}

func TestPushTime(t *testing.T) {
	g := NewGraph()
	a := g.NewNode(0)
	g.AddEdge(g.Origin(), a, 2, EdgeExec)
	g.PushTime(a, 9, EdgeFU)
	if g.Time(a) != 9 {
		t.Errorf("Time = %d, want 9", g.Time(a))
	}
	g.PushTime(a, 4, EdgeFU) // must not move backwards
	if g.Time(a) != 9 {
		t.Errorf("PushTime moved node backwards to %d", g.Time(a))
	}
	// The node's whole arrival (2 structural + 7 resource wait) is now
	// attributed to the resource class, and the path stays connected.
	bd := g.CriticalPathBreakdown(a)
	if bd[EdgeFU] != 9 {
		t.Errorf("resource wait not attributed to FU: %v", bd)
	}
	if nodes := criticalPathNodes(g, a); len(nodes) != 2 {
		t.Errorf("path disconnected: %v", nodes)
	}
}

func TestEdgeToNoneIgnored(t *testing.T) {
	g := NewGraph()
	a := g.NewNode(0)
	g.AddEdge(None, a, 100, EdgeData)
	if g.Time(a) != 0 {
		t.Errorf("edge from None changed time to %d", g.Time(a))
	}
	g.AddEdge(a, None, 100, EdgeData) // must not panic
}

func TestReset(t *testing.T) {
	g := NewGraph()
	g.NewNode(0)
	g.Reset()
	if g.Len() != 1 {
		t.Errorf("Len after reset = %d, want 1", g.Len())
	}
	if g.Time(g.Origin()) != 0 {
		t.Error("origin time must be 0 after reset")
	}
}

func TestResourceTableSingleUnit(t *testing.T) {
	rt := NewResourceTable(1)
	if got := rt.Book(0); got != 0 {
		t.Errorf("first booking = %d, want 0", got)
	}
	if got := rt.Book(0); got != 1 {
		t.Errorf("second booking = %d, want 1 (contention)", got)
	}
	if got := rt.Book(10); got != 10 {
		t.Errorf("late booking = %d, want 10", got)
	}
}

func TestResourceTableMultiUnit(t *testing.T) {
	rt := NewResourceTable(2)
	a := rt.Book(0)
	b := rt.Book(0)
	c := rt.Book(0)
	if a != 0 || b != 0 {
		t.Errorf("two units should both grant cycle 0: %d %d", a, b)
	}
	if c != 1 {
		t.Errorf("third booking = %d, want 1", c)
	}
}

func TestResourceTableBookFor(t *testing.T) {
	rt := NewResourceTable(1)
	if got := rt.BookFor(0, 10); got != 0 {
		t.Errorf("BookFor start = %d, want 0", got)
	}
	if got := rt.Book(0); got != 10 {
		t.Errorf("booking after busy period = %d, want 10", got)
	}
}

func TestResourceTableReset(t *testing.T) {
	rt := NewResourceTable(1)
	rt.Book(5)
	rt.Reset()
	if got := rt.Book(0); got != 0 {
		t.Errorf("after reset booking = %d, want 0", got)
	}
}

func TestResourceNeverGrantsBeforeReady(t *testing.T) {
	rt := NewResourceTable(3)
	f := func(readies []uint16) bool {
		for _, r := range readies {
			ready := int64(r % 1000)
			if rt.Book(ready) < ready {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestTimesMonotoneAlongEdges(t *testing.T) {
	// Property: a node's time is >= every predecessor's time + latency,
	// exercised with a chain built from random latencies.
	f := func(lats []uint8) bool {
		g := NewGraph()
		prev := g.Origin()
		total := int64(0)
		for _, l := range lats {
			n := g.NewNode(-1)
			g.AddEdge(prev, n, int64(l), EdgeExec)
			total += int64(l)
			if g.Time(n) != total {
				return false
			}
			prev = n
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestEdgeClassStrings(t *testing.T) {
	for c := EdgeClass(0); c < NumEdgeClasses; c++ {
		if c.String() == "" {
			t.Errorf("edge class %d has no name", c)
		}
	}
}

// legacyNode mirrors the pre-SoA array-of-structs node, and legacyRelax
// the pointer-walked relaxation it used: a reference implementation the
// flat-slice wavefront walk must agree with exactly, including the
// first-edge and tie-breaking rules that pick which predecessor is
// recorded when times are equal.
type legacyNode struct {
	time     int64
	critPred NodeID
	critLat  int64
	class    EdgeClass
}

func legacyRelax(nodes []legacyNode, from, to NodeID, lat int64, class EdgeClass) {
	if from == None || to == None {
		return
	}
	t := nodes[from].time + lat
	n := &nodes[to]
	if t > n.time || n.critPred == None {
		n.time = t
		n.critPred = from
		n.critLat = lat
		n.class = class
	}
}

func legacyPush(nodes []legacyNode, id NodeID, t int64, class EdgeClass) {
	n := &nodes[id]
	if t <= n.time {
		return
	}
	if n.critPred == None {
		n.critPred = 0
	}
	n.critLat += t - n.time
	n.class = class
	n.time = t
}

// TestWalkCriticalPathMatchesLegacy builds randomized layered DAGs
// through the Graph API while mirroring every operation into the legacy
// node-struct reference, then checks node times and the full critical
// path (ids, classes, step latencies) agree on every node.
func TestWalkCriticalPathMatchesLegacy(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		g := NewGraph()
		ref := []legacyNode{{critPred: None}}
		nNodes := 2 + rng.Intn(120)
		for i := 0; i < nNodes; i++ {
			id := g.NewNode(int32(i))
			ref = append(ref, legacyNode{critPred: None})
			// Edges only from already-constructed nodes (incremental
			// construction invariant), with occasional ties (lat 0 from
			// same-time sources) to exercise tie-breaking.
			nEdges := 1 + rng.Intn(4)
			for e := 0; e < nEdges; e++ {
				from := NodeID(rng.Intn(int(id)))
				lat := int64(rng.Intn(8))
				class := EdgeClass(rng.Intn(int(NumEdgeClasses)))
				g.AddEdge(from, id, lat, class)
				legacyRelax(ref, from, id, lat, class)
			}
			if rng.Intn(4) == 0 {
				push := ref[id].time + int64(rng.Intn(5)-1)
				class := EdgeClass(rng.Intn(int(NumEdgeClasses)))
				g.PushTime(id, push, class)
				legacyPush(ref, id, push, class)
			}
		}
		for id := NodeID(0); int(id) <= nNodes; id++ {
			if g.Time(id) != ref[id].time {
				t.Fatalf("trial %d node %d: time %d, legacy %d", trial, id, g.Time(id), ref[id].time)
			}
			type step struct {
				id    NodeID
				class EdgeClass
				lat   int64
			}
			var got []step
			g.WalkCriticalPath(id, func(n NodeID, c EdgeClass, l int64) {
				got = append(got, step{n, c, l})
			})
			var want []step
			for n := id; n != None && n != 0; n = ref[n].critPred {
				want = append(want, step{n, ref[n].class, ref[n].critLat})
			}
			if len(got) != len(want) {
				t.Fatalf("trial %d node %d: walk length %d, legacy %d", trial, id, len(got), len(want))
			}
			for k := range got {
				if got[k] != want[k] {
					t.Fatalf("trial %d node %d step %d: %+v, legacy %+v", trial, id, k, got[k], want[k])
				}
			}
		}
	}
}

// TestLeanModeTimesIdentical checks the package-comment claim that lean
// (time-only) relaxation computes bit-identical node times to
// attribution mode on the same construction sequence.
func TestLeanModeTimesIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	type op struct {
		push     bool
		from, to NodeID
		lat      int64
		class    EdgeClass
	}
	for trial := 0; trial < 30; trial++ {
		nNodes := 2 + rng.Intn(200)
		var ops []op
		for i := 1; i <= nNodes; i++ {
			for e, n := 0, 1+rng.Intn(4); e < n; e++ {
				ops = append(ops, op{
					from:  NodeID(rng.Intn(i)),
					to:    NodeID(i),
					lat:   int64(rng.Intn(8)),
					class: EdgeClass(rng.Intn(int(NumEdgeClasses))),
				})
			}
			if rng.Intn(4) == 0 {
				ops = append(ops, op{push: true, to: NodeID(i), lat: int64(rng.Intn(30))})
			}
		}
		run := func(lean bool) []int64 {
			g := NewGraph()
			g.ResetMode(lean)
			for i := 0; i < nNodes; i++ {
				g.NewNode(int32(i))
			}
			for _, o := range ops {
				if o.push {
					g.PushTime(o.to, o.lat, o.class)
				} else {
					g.AddEdge(o.from, o.to, o.lat, o.class)
				}
			}
			times := make([]int64, nNodes+1)
			for id := range times {
				times[id] = g.Time(NodeID(id))
			}
			return times
		}
		attrib, lean := run(false), run(true)
		for id := range attrib {
			if attrib[id] != lean[id] {
				t.Fatalf("trial %d node %d: attrib time %d, lean time %d", trial, id, attrib[id], lean[id])
			}
		}
	}
}

// TestRetireRebasesIndexing checks that Retire drops retired nodes while
// keeping live node IDs meaningful, that times keep relaxing correctly
// across the rebased window, and that the high-water marks record the
// pre-retirement peak.
func TestRetireRebasesIndexing(t *testing.T) {
	g := NewGraph()
	g.ResetMode(true)
	prev := g.Origin()
	ids := []NodeID{prev}
	for i := 0; i < 100; i++ {
		id := g.NewNode(int32(i))
		g.AddEdge(prev, id, 3, EdgeExec)
		prev = id
		ids = append(ids, id)
	}
	if got := len(g.time); got != 101 {
		t.Fatalf("Resident = %d, want 101", got)
	}
	g.Retire(ids[60])
	if got := len(g.time); got != 41 {
		t.Fatalf("Resident after Retire = %d, want 41", got)
	}
	if got := g.base; got != ids[60] {
		t.Fatalf("Base = %d, want %d", got, ids[60])
	}
	if got := g.Time(ids[60]); got != 180 {
		t.Fatalf("Time(first live) = %d, want 180", got)
	}
	if got := g.Time(prev); got != 300 {
		t.Fatalf("Time(last) = %d, want 300", got)
	}
	id := g.NewNode(-1)
	g.AddEdge(prev, id, 5, EdgeExec)
	if got := g.Time(id); got != 305 {
		t.Fatalf("Time(post-retire node) = %d, want 305", got)
	}
	if got := g.Len(); got != 102 {
		t.Fatalf("Len = %d, want 102 (retired nodes still counted)", got)
	}
	if hw := g.HighWaterBytes(); hw != 101*8 {
		t.Fatalf("HighWaterBytes = %d, want %d (101 nodes)", hw, 101*8)
	}
}

// TestAnchorHandsWalkToItsRecorder: a walk that reaches an anchor steps
// into it at no latency and returns the anchor's external predecessor,
// so the recorder of the anchored event can continue the path; in lean
// mode an anchor is a plain node carrying its time.
func TestAnchorHandsWalkToItsRecorder(t *testing.T) {
	g := NewGraph()
	a := g.NewAnchor(40, -7)
	n := g.NewNode(3)
	g.AddEdge(a, n, 5, EdgeAccelComm)
	var lat int64
	if ext := g.WalkCriticalPath(n, func(_ NodeID, _ EdgeClass, l int64) { lat += l }); ext != -7 || lat != 5 || g.Time(n) != 45 {
		t.Fatalf("walk left at %d after %d cycles (node at %d), want -7 after 5 (45)", ext, lat, g.Time(n))
	}
	if ext := g.WalkCriticalPath(g.NewNode(-1), func(NodeID, EdgeClass, int64) {}); ext != None {
		t.Fatalf("walk from a node without predecessor left at %d, want None", ext)
	}
	l := NewLeanGraph()
	if b := l.NewAnchor(40, -7); l.Time(b) != 40 || l.Len() != 2 {
		t.Fatalf("lean anchor at %d in a graph of %d nodes", l.Time(b), l.Len())
	}
}
