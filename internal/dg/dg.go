// Package dg implements the microarchitectural dependence graph (µDG) at
// the heart of the Transformable Dependence Graph methodology (paper §2).
// Nodes are microarchitectural events of dynamic instructions (fetch,
// dispatch, execute, complete, commit — Figure 4); edges are dependences
// that enforce architectural constraints (pipeline widths, ROB and window
// occupancy, data and memory dependences, functional-unit and cache-port
// contention, branch-misprediction refill). Node times are finalized
// incrementally in construction order, so the final node's time is the
// critical-path length — the execution time in cycles.
//
// Transforms (BSA models) build alternative node/edge structures for
// accelerated regions; everything composes in one graph per execution.
// The general core itself (cores.GPP) is time-direct: it computes its
// pipeline events' times without nodes and, when asked for attribution,
// records each event's critical predecessor in its own compact log.
// Anchors (NewAnchor) join the two: a transform edge hangs off an anchor
// carrying a core event's time, and a critical-path walk that reaches one
// continues in the core's log.
//
// # Storage layout
//
// The graph is a struct of arrays over flat slices, not an array of node
// structs: times in one int64 stream, attribution (critical predecessor,
// step latency, edge class, dynamic index) in parallel int32/uint8
// streams. The relaxation hot path (AddEdge/PushTime) touches only the
// streams it needs, and the critical-path walk is a backward sweep over
// the flat predecessor slice. Two modes share the layout:
//
//   - attribution mode (NewGraph) maintains every stream, supporting
//     WalkCriticalPath and per-region attribution;
//   - lean mode (NewLeanGraph) maintains only the time stream. Edge
//     relaxation reduces to a pure max — final node times are
//     bit-identical to attribution mode (attribution only changes which
//     predecessor is *recorded* on ties, never the computed maximum) at a
//     third of the write traffic. Scheduling sweeps, which never walk
//     paths, run lean.
//
// In either mode only accelerator transforms and anchors populate the
// graph: the general core adds no nodes.
//
// # Retirement
//
// Node times are final once all in-edges are added, so a constructor that
// no longer references old nodes does not need them resident. Retire
// drops every node below a caller-proven live floor by compacting the
// flat slices; node IDs keep their meaning (indices are rebased). See
// cores.GPP.CompactWindow: a lean core references no node between
// transforms, so a lean evaluation retires each segment's nodes when the
// segment ends, and the resident graph never outgrows one segment.
package dg

import (
	"fmt"
	"unsafe"
)

// EdgeClass labels the architectural constraint an edge models, enabling
// critical-path (stall) breakdowns — the paper's recommended way to sanity
// check new BSA models (Appendix A).
type EdgeClass uint8

// Edge classes.
const (
	EdgeProgram      EdgeClass = iota // program order within a pipeline stage
	EdgeWidth                         // fetch/dispatch/commit width
	EdgePipe                          // pipeline depth between stages
	EdgeROB                           // ROB occupancy
	EdgeWindow                        // issue-window occupancy
	EdgeData                          // register data dependence
	EdgeMemDep                        // memory (store→load) dependence
	EdgeExec                          // execute→complete latency (FU or memory)
	EdgeFU                            // functional-unit contention
	EdgeCachePort                     // data-cache port contention
	EdgeMispredict                    // branch misprediction refill
	EdgeInOrder                       // in-order issue/commit constraint
	EdgeCommit                        // complete→commit
	EdgeAccelConfig                   // accelerator configuration load
	EdgeAccelComm                     // core↔accelerator live-value transfer
	EdgeAccelPipe                     // accelerator pipelining constraint
	EdgeAccelCompute                  // accelerator compute latency
	EdgeAccelReplay                   // trace misspeculation replay
	NumEdgeClasses
)

var edgeClassNames = [NumEdgeClasses]string{
	"program", "width", "pipe", "rob", "window", "data", "memdep", "exec",
	"fu", "cacheport", "mispredict", "inorder", "commit",
	"accel-config", "accel-comm", "accel-pipe", "accel-compute", "accel-replay",
}

// String implements fmt.Stringer.
func (c EdgeClass) String() string {
	if c < NumEdgeClasses {
		return edgeClassNames[c]
	}
	return fmt.Sprintf("edge(%d)", uint8(c))
}

// NodeID indexes a node within a Graph. The zero NodeID is the graph's
// origin node (time 0); use None for "no node".
type NodeID int32

// None is the absent node.
const None NodeID = -1

// Per-node stream widths, for memory accounting: the time stream alone
// (lean mode) and the four attribution streams (critPred int32 + critLat
// int32 + class uint8 + dynIdx int32).
const (
	leanNodeBytes   = 8
	attribNodeBytes = 13
)

// Graph is a µDG being constructed and solved incrementally. Nodes must be
// created after all their predecessors; AddEdge relaxes the target's time
// immediately, so Time(id) of any already-constructed node is final.
//
// Storage is struct-of-arrays (see the package comment): time is always
// maintained; pred/lat/class/dyn only in attribution mode. All streams are
// indexed by id − base, where base is the first resident node after any
// Retire calls (0 for whole-trace graphs).
type Graph struct {
	time  []int64 // node times; always maintained
	pred  []int32 // critical predecessor (attribution mode)
	lat   []int32 // latency attributed to the step into the node
	class []uint8 // EdgeClass of the step into the node
	dyn   []int32 // dynamic-instruction index (-1 synthetic)

	base NodeID // first resident node id; lower ids are retired
	n    int    // total nodes created (next id); resident count is len(time)
	lean bool

	hwBytes int64 // high-water resident stream bytes

	// rtFree recycles ResourceTables for transient users (accelerator
	// dataflow engines create three per region); the rings are ~300KB
	// each, so re-allocating them per region dominated evaluation cost.
	rtFree []*ResourceTable
}

// NewGraph returns an attribution-mode graph containing only the origin
// node at time 0. Streams grow with the nodes transforms create; a general
// core adds none (see cores.GPP), so there is nothing to pre-size for.
func NewGraph() *Graph {
	g := &Graph{}
	g.origin()
	return g
}

// NewLeanGraph returns a lean (time-only) graph containing only the
// origin. Lean graphs maintain only node times (byte-identical to
// attribution mode, see the package comment) and support retirement.
func NewLeanGraph() *Graph {
	g := &Graph{lean: true}
	g.origin()
	return g
}

// origin (re)creates node 0 on empty streams.
func (g *Graph) origin() {
	g.time = append(g.time, 0)
	if !g.lean {
		g.pred = append(g.pred, int32(None))
		g.lat = append(g.lat, 0)
		g.class = append(g.class, 0)
		g.dyn = append(g.dyn, -1)
	}
	g.n = 1
	g.base = 0
}

// Reset clears the graph for reuse, keeping its capacity and its mode,
// which is fixed when the graph is made (NewGraph, NewLeanGraph).
func (g *Graph) Reset() {
	g.noteHighWater()
	g.time = g.time[:0]
	g.pred = g.pred[:0]
	g.lat = g.lat[:0]
	g.class = g.class[:0]
	g.dyn = g.dyn[:0]
	g.origin()
}

// Lean reports whether the graph is in lean (time-only) mode.
func (g *Graph) Lean() bool { return g.lean }

// Origin returns the time-0 origin node.
func (g *Graph) Origin() NodeID { return 0 }

// NewNode creates a node for dynamic-instruction index dynIdx (or -1 for
// synthetic nodes) with no predecessors yet (time 0).
func (g *Graph) NewNode(dynIdx int32) NodeID {
	id := NodeID(g.n)
	g.n++
	g.time = append(g.time, 0)
	if !g.lean {
		g.pred = append(g.pred, int32(None))
		g.lat = append(g.lat, 0)
		g.class = append(g.class, 0)
		g.dyn = append(g.dyn, dynIdx)
	}
	return id
}

// NewAnchor creates a node at time t that stands for an event recorded
// outside the graph, such as a µop stage in a general core's attribution
// log, so a transform can hang edges off it. In attribution mode its
// critical predecessor is ext, a value below None that the recording
// constructor defines: WalkCriticalPath stops there and returns ext, and
// the constructor continues the walk in its own record. The step into the
// anchor itself carries no latency.
func (g *Graph) NewAnchor(t int64, ext NodeID) NodeID {
	id := g.NewNode(-1)
	g.time[id-g.base] = t
	if !g.lean {
		g.pred[id-g.base] = int32(ext)
	}
	return id
}

// AddEdge adds a dependence from → to with the given latency and class,
// relaxing to's time. from must be an existing node; to must not yet be
// used as a predecessor itself (incremental construction).
func (g *Graph) AddEdge(from, to NodeID, lat int64, class EdgeClass) {
	if from == None || to == None {
		return
	}
	t := g.time[from-g.base] + lat
	i := to - g.base
	if g.lean {
		// Pure max-relaxation: identical final times (the attribution
		// branch below only differs in what it records on a first edge
		// that ties the zero-initialized time). Kept small enough to
		// inline at call sites — this is the hottest function in the
		// system; the attribution path lives out of line.
		if t > g.time[i] {
			g.time[i] = t
		}
		return
	}
	g.relaxAttrib(i, t, from, lat, class)
}

func (g *Graph) relaxAttrib(i NodeID, t int64, from NodeID, lat int64, class EdgeClass) {
	if t > g.time[i] || g.pred[i] == int32(None) {
		g.time[i] = t
		g.pred[i] = int32(from)
		g.lat[i] = int32(lat)
		g.class[i] = uint8(class)
	}
}

// PushTime moves a node's time forward to at least t (resource booking).
// The structural critical predecessor is preserved so path backtracking
// stays connected; the added wait is attributed to the given class.
func (g *Graph) PushTime(id NodeID, t int64, class EdgeClass) {
	i := id - g.base
	if t <= g.time[i] {
		return
	}
	if !g.lean {
		if g.pred[i] == int32(None) {
			g.pred[i] = 0
		}
		g.lat[i] += int32(t - g.time[i])
		g.class[i] = uint8(class)
	}
	g.time[i] = t
}

// Time returns a node's (final, once constructed) time.
func (g *Graph) Time(id NodeID) int64 {
	if id == None {
		return 0
	}
	return g.time[id-g.base]
}

// DynIdx returns the dynamic-instruction index a node belongs to (-1 for
// synthetic nodes; attribution mode only).
func (g *Graph) DynIdx(id NodeID) int32 { return g.dyn[id-g.base] }

// Len returns the number of nodes ever created, including the origin and
// any retired by Retire.
func (g *Graph) Len() int { return g.n }

// Retire drops every node below minLive from the resident streams,
// compacting the live suffix to the front. The caller must guarantee no
// retired node is ever referenced again (their times are already final
// and propagated). Only meaningful in lean mode — attribution walks need
// the whole graph resident.
func (g *Graph) Retire(minLive NodeID) {
	if minLive <= g.base {
		return
	}
	g.noteHighWater()
	off := minLive - g.base
	g.time = g.time[:copy(g.time, g.time[off:])]
	if !g.lean {
		g.pred = g.pred[:copy(g.pred, g.pred[off:])]
		g.lat = g.lat[:copy(g.lat, g.lat[off:])]
		g.class = g.class[:copy(g.class, g.class[off:])]
		g.dyn = g.dyn[:copy(g.dyn, g.dyn[off:])]
	}
	g.base = minLive
}

// noteHighWater records the current resident footprint into the
// high-water mark. Resident size only shrinks at Reset/Retire, so
// sampling there (plus at read time) observes every peak exactly.
func (g *Graph) noteHighWater() {
	r := len(g.time)
	b := int64(r) * leanNodeBytes
	if !g.lean {
		b += int64(r) * attribNodeBytes
	}
	if b > g.hwBytes {
		g.hwBytes = b
	}
}

// HighWaterBytes returns the maximum resident stream footprint in bytes
// the graph has reached over its lifetime (across Resets — pooled graphs
// report their worst unit): the observable form of per-segment
// retirement.
func (g *Graph) HighWaterBytes() int64 {
	g.noteHighWater()
	return g.hwBytes
}

// MemBytes reports the stream arenas' allocated size plus the recycled
// resource tables — the memory a pooled graph lets its next user skip
// allocating.
func (g *Graph) MemBytes() int64 {
	b := int64(cap(g.time))*8 + int64(cap(g.pred))*4 + int64(cap(g.lat))*4 +
		int64(cap(g.class)) + int64(cap(g.dyn))*4
	for _, rt := range g.rtFree {
		b += rt.MemBytes()
	}
	return b
}

// BorrowRT hands out a recycled ResourceTable retargeted to n units (or a
// fresh one when the free list is empty). Pair with ReturnRT when the
// borrower is done; an unreturned table is simply garbage-collected.
func (g *Graph) BorrowRT(n int) *ResourceTable {
	if l := len(g.rtFree); l > 0 {
		rt := g.rtFree[l-1]
		g.rtFree = g.rtFree[:l-1]
		rt.Retarget(n)
		return rt
	}
	return NewResourceTable(n)
}

// ReturnRT recycles tables handed out by BorrowRT.
func (g *Graph) ReturnRT(rts ...*ResourceTable) {
	g.rtFree = append(g.rtFree, rts...)
}

// WalkCriticalPath walks the critical path backwards from the given node
// towards the origin, calling fn for every step with the step's target
// node, the edge class that set its time, and the latency attributed to
// that step, so callers can attribute path latency per edge class or per
// region via DynIdx.
//
// The walk is a backward sweep over the flat pred/lat/class streams (no
// node structs, no pointer chasing). It returns where the path left the graph:
// the origin (0), a node without predecessor (None), or the external
// reference of an anchor (see NewAnchor), from which the anchor's
// constructor continues the walk. Requires attribution mode.
func (g *Graph) WalkCriticalPath(from NodeID, fn func(id NodeID, class EdgeClass, lat int64)) NodeID {
	pred, lat, class := g.pred, g.lat, g.class
	base := g.base
	id := from
	for id > 0 {
		i := id - base
		fn(id, EdgeClass(class[i]), int64(lat[i]))
		id = NodeID(pred[i])
	}
	return id
}

// resourceWindow is the cycle span the table remembers. In-flight
// instructions span at most ROB-size × memory-latency cycles, far below
// this; colliding slots past the window are simply reclaimed (the
// windowed-resource approximation of §2.7).
const resourceWindow = 1 << 15

// ResourceTable books fully-pipelined units via a cycle-indexed
// occupancy ring: a booking occupies one of n units for one cycle, and
// later (program-order) requests may back-fill earlier cycles — only
// same-cycle conflicts are resolved in instruction order, the paper's
// "resources preferentially given in instruction order" approximation.
type ResourceTable struct {
	units uint8
	// offset is the epoch base added to requested cycles before they key
	// the ring. Reset advances it past every key issued so far, making all
	// stale slots mismatch — an O(1) reset instead of clearing the ring
	// (~128KB; per-segment evaluation resets constantly). It advances by
	// whole ring turns, so cycle c keys the same slot in every epoch.
	offset int64
	maxKey int64
	// fullBelow is a monotone probe floor: every cycle below it is known
	// to be booked to capacity. Occupancy only grows between Resets, so
	// once a Book probe walks a full prefix the fact is permanent, and
	// later probes skip it instead of re-scanning — on saturated tables
	// (a width-2 issue ring at IPC ≈ 2) the linear probe otherwise
	// re-walks the same full cycles on every booking.
	fullBelow int64
	// ring packs each slot's epoch tag and occupancy count as
	// (key>>15)<<8 | count — one 4-byte load per probe, and half the
	// cache footprint of 8-byte entries on a structure the booking loops
	// stream through. The tag is unambiguous: keys sharing a slot differ
	// by a multiple of resourceWindow (1<<15), so key>>15 identifies the
	// key exactly. Counts stay below 256 (units caps at 255); tags stay
	// below 2^24 because Reset re-epochs the table before offset can
	// reach 2^38.
	ring [resourceWindow]uint32
}

// NewResourceTable returns a table with n units. The zero-valued rings
// are directly usable: a zeroed slot can only alias key 0 on a fresh
// table, where its zero count is exactly the initialized state.
func NewResourceTable(n int) *ResourceTable {
	rt := &ResourceTable{}
	rt.Retarget(n)
	return rt
}

// Retarget reconfigures a (possibly recycled) table to n units with no
// bookings, in O(1).
func (r *ResourceTable) Retarget(n int) {
	if n < 1 {
		n = 1
	}
	if n > 255 {
		n = 255
	}
	r.units = uint8(n)
	r.Reset()
}

// peek returns the occupancy of cycle c (stale slots read as empty).
func (r *ResourceTable) peek(c int64) uint8 {
	key := c + r.offset
	v := r.ring[key&(resourceWindow-1)]
	if v>>8 != uint32(key>>15) {
		return 0
	}
	return uint8(v)
}

// incr books one unit at cycle c, reclaiming the slot if stale.
func (r *ResourceTable) incr(c int64) {
	key := c + r.offset
	if key > r.maxKey {
		r.maxKey = key
	}
	slot := key & (resourceWindow - 1)
	tag := uint32(key>>15) << 8
	v := r.ring[slot]
	if v&^0xFF != tag {
		v = tag
	}
	r.ring[slot] = v + 1
}

// Book finds the earliest cycle ≥ ready with a free unit, books it, and
// returns the granted cycle. Grants are independent of the fullBelow
// floor (cycles under it have no free unit by definition); the floor
// only shortens the probe. The uncontended first probe is kept small
// enough to inline at Exec call sites; contended probes continue in
// bookSlow.
func (r *ResourceTable) Book(ready int64) int64 {
	c := ready
	if c < r.fullBelow {
		c = r.fullBelow
	}
	key := c + r.offset
	tag := uint32(key>>15) << 8
	v := r.ring[key&(resourceWindow-1)]
	if v&^0xFF != tag {
		v = tag
	}
	if v&0xFF < uint32(r.units) {
		r.commit(key, c, v, c == r.fullBelow)
		return c
	}
	return r.bookSlow(c+1, c == r.fullBelow)
}

// commit records a granted booking: occupancy, high-water key, and —
// when the probe began at the floor, so [floor, c) is proven full — the
// floor advance (past the grant cycle when this booking saturated it).
func (r *ResourceTable) commit(key, c int64, v uint32, fromFloor bool) {
	if key > r.maxKey {
		r.maxKey = key
	}
	v++
	r.ring[key&(resourceWindow-1)] = v
	if fromFloor {
		r.fullBelow = c
		if v&0xFF >= uint32(r.units) {
			r.fullBelow = c + 1
		}
	}
}

// bookSlow continues a probe whose first candidate cycle was full.
func (r *ResourceTable) bookSlow(start int64, fromFloor bool) int64 {
	units := uint32(r.units)
	for c := start; ; c++ {
		key := c + r.offset
		slot := key & (resourceWindow - 1)
		tag := uint32(key>>15) << 8
		v := r.ring[slot]
		if v&^0xFF != tag {
			v = tag
		}
		if v&0xFF < units {
			r.commit(key, c, v, fromFloor)
			return c
		}
	}
}

// BookFor books one unit for `busy` consecutive cycles (unpipelined units
// such as dividers or accelerator CFUs).
func (r *ResourceTable) BookFor(ready, busy int64) int64 {
	if busy < 1 {
		busy = 1
	}
	if ready < r.fullBelow {
		ready = r.fullBelow
	}
search:
	for c := ready; ; c++ {
		for k := int64(0); k < busy; k++ {
			if r.peek(c+k) >= r.units {
				c += k
				continue search
			}
		}
		for k := int64(0); k < busy; k++ {
			r.incr(c + k)
		}
		return c
	}
}

// Reset clears all bookings in O(1) by advancing the epoch offset past
// every key issued so far; stale ring slots are reclaimed lazily. Any
// offset above maxKey reads as a fresh table, since a slot's tag fixes its
// key. The offset advances by whole ring turns, so the next epoch's early
// cycles land on the slots — and cache lines — the last epoch's early
// cycles warmed; an epoch that booked nothing leaves it in place. When
// the accumulated offset nears the 24-bit tag limit — after at most 2^23
// epochs that booked, each advancing it a ring turn or more — the ring is
// cleared wholesale and the epoch restarts from zero, restoring the
// fresh-table invariant that zeroed slots read as empty.
func (r *ResourceTable) Reset() {
	r.fullBelow = 0
	r.offset += ((r.maxKey-r.offset)>>15 + 1) << 15
	if r.offset >= 1<<38 {
		clear(r.ring[:])
		r.offset = 0
		r.maxKey = 0
	}
}

// MemBytes reports the table's fixed ring footprint — the allocation a
// pooled table saves its next user.
func (r *ResourceTable) MemBytes() int64 { return int64(unsafe.Sizeof(*r)) }
