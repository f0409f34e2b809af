package ir

import (
	"encoding/binary"
	"math/bits"
	"slices"
	"sort"

	"exocore/internal/trace"
)

// StrideInfo summarizes the observed address stride of one static memory
// instruction across consecutive executions inside its innermost loop.
type StrideInfo struct {
	Samples    int64
	Dominant   int64   // most frequent delta
	Consistent float64 // fraction of samples equal to Dominant
}

// Contiguous reports whether the access advances by exactly one word per
// iteration, the pattern SIMD can load/store without packing.
func (s StrideInfo) Contiguous() bool {
	return s.Samples > 0 && s.Dominant == 8 && s.Consistent >= 0.95
}

// Scalar reports whether the address is loop-invariant (stride 0).
func (s StrideInfo) Scalar() bool {
	return s.Samples > 0 && s.Dominant == 0 && s.Consistent >= 0.95
}

// LoopProfile aggregates dynamic behavior of one loop.
type LoopProfile struct {
	LoopID     int
	Entries    int64 // occurrences (entries from outside the loop)
	Iterations int64
	DynInsts   int64 // dynamic instructions inside (incl. nested loops)
	// BackProb is iterations/(iterations+entries): probability control
	// stays in the loop at the latch, the Trace-P eligibility metric.
	BackProb float64
	AvgTrip  float64
	// PathCounts maps an encoded block path (one iteration of an inner
	// loop) to its frequency: the Ball-Larus-style path profile.
	PathCounts map[string]int64
	// HotPath is the most frequent iteration path (block IDs), and
	// HotPathFrac its fraction of all iterations.
	HotPath     []int
	HotPathFrac float64
	// CarriedMemDep records an observed cross-iteration memory dependence
	// (a store in one iteration, load/store to the same address in a later
	// iteration of the same occurrence).
	CarriedMemDep bool
}

// Profile is the trace-derived profile of a program: block counts, loop
// statistics, path profiles and per-instruction stride classification.
// This is the "profiling information" half of the TDG analyzer inputs.
type Profile struct {
	CFG  *CFG
	Nest *LoopNest

	BlockCount []int64
	Loops      []LoopProfile
	Strides    map[int]StrideInfo
	TotalDyn   int64
}

type instInfo struct {
	block int32
	mem   int32 // index into ProfileBuilder.strides, or -1
	start bool  // first instruction of its block
	store bool
}

// strideSlots is how many distinct deltas a strideAcc counts inline
// before spilling to its overflow map; regular accesses have one or two.
const strideSlots = 4

type strideAcc struct {
	lastAddr uint64
	samples  int64
	seen     bool
	n        int // inline slots in use
	slots    [strideSlots]deltaCount
	overflow map[int64]int64 // deltas past the inline slots
}

type deltaCount struct{ delta, n int64 }

func (sa *strideAcc) add(delta int64) {
	for i := range sa.slots[:sa.n] {
		if sa.slots[i].delta == delta {
			sa.slots[i].n++
			return
		}
	}
	if sa.n < strideSlots {
		sa.slots[sa.n] = deltaCount{delta, 1}
		sa.n++
		return
	}
	if sa.overflow == nil {
		sa.overflow = make(map[int64]int64)
	}
	sa.overflow[delta]++
}

// info classifies the accumulated deltas. Ties on frequency break
// toward the smaller magnitude (then negative) delta: neither slot nor
// map order may leak into the profile, which is compared byte-for-byte
// across the materialized and streamed build paths.
func (sa *strideAcc) info() StrideInfo {
	info := StrideInfo{Samples: sa.samples}
	var bestN int64
	consider := func(delta, n int64) {
		if n > bestN || (n == bestN && lessDelta(delta, info.Dominant)) {
			info.Dominant, bestN = delta, n
		}
	}
	for _, s := range sa.slots[:sa.n] {
		consider(s.delta, s.n)
	}
	for delta, n := range sa.overflow {
		consider(delta, n)
	}
	if sa.samples > 0 {
		info.Consistent = float64(bestN) / float64(sa.samples)
	}
	return info
}

// loopState is one live occurrence of a loop on the builder's stack.
type loopState struct {
	id         int
	inner      bool // the loop has no nested loops, so it records paths
	iter       int64
	iterBlocks []int
	deps       depTable
}

// pathTally counts one loop's iteration paths. The string key is
// materialized once per distinct path; a repeat of the loop's previous
// path bumps its counter without touching the map.
type pathTally struct {
	counts map[string]*int64
	last   []int
	lastN  *int64
}

const maxDepTrack = 1 << 15 // bound the per-occurrence address table

// depTable maps word address -> the iteration of its last access within
// one loop occurrence, and whether that iteration stored to it: the
// carried-dependence detector. Open addressing with linear probing.
// Iterations are stamped on a clock that never runs backwards over the
// table's life: iteration i of the current occurrence is start+i, and
// each occurrence starts past every stamp already written, so a slot is
// live only if its stamp is at least start, and starting an occurrence
// clears the table in O(1).
type depTable struct {
	slots []depSlot
	shift uint // 64 - log2(len(slots))
	start uint64
	last  uint64 // latest stamp written
	n     int    // addresses held this occurrence
}

type depSlot struct {
	addr uint64
	mark uint64 // stamp<<1 | stored; 0 = never written
}

const depHashMul = 0x9E3779B97F4A7C15 // Fibonacci hashing

// reset starts a new occurrence.
func (t *depTable) reset() {
	t.start, t.n = t.last+1, 0
}

// access records one access in iteration iter and reports whether it
// closes a carried dependence: the address was last touched in an
// earlier iteration, and that or this access is a store. Once
// maxDepTrack addresses are held, nothing is inserted or updated; only
// lookups continue.
func (t *depTable) access(addr uint64, iter int64, store bool) bool {
	track := t.n < maxDepTrack
	if track && 2*(t.n+1) > len(t.slots) {
		t.grow()
	}
	stamp := t.start + uint64(iter)
	var st uint64
	if store {
		st = 1
	}
	mask := len(t.slots) - 1
	for i := int(addr * depHashMul >> t.shift); ; i = (i + 1) & mask {
		s := &t.slots[i]
		prev := s.mark >> 1
		if prev < t.start {
			if track {
				*s = depSlot{addr: addr, mark: stamp<<1 | st}
				t.n, t.last = t.n+1, stamp
			}
			return false
		}
		if s.addr == addr {
			stored := s.mark&1 != 0
			if track {
				if stored && prev == stamp {
					st = 1
				}
				s.mark, t.last = stamp<<1|st, stamp
			}
			return prev < stamp && (stored || store)
		}
	}
}

// grow doubles the table (at load 1/2), rehashing the live slots.
func (t *depTable) grow() {
	old := t.slots
	t.slots = make([]depSlot, max(16, 2*len(old)))
	t.shift = uint(64 - bits.TrailingZeros(uint(len(t.slots))))
	mask := len(t.slots) - 1
	for _, s := range old {
		if s.mark>>1 < t.start {
			continue
		}
		i := int(s.addr * depHashMul >> t.shift)
		for t.slots[i].mark != 0 {
			i = (i + 1) & mask
		}
		t.slots[i] = s
	}
}

// BuildProfile derives the dynamic profile of t given its CFG and loops.
func BuildProfile(cfg *CFG, nest *LoopNest, t *trace.Trace) *Profile {
	b := NewProfileBuilder(cfg, nest)
	b.Feed(t.Insts)
	return b.Finish()
}

// ProfileBuilder accumulates a Profile incrementally from consecutive
// chunks of one dynamic trace: the streaming TDG hands it each chunk as
// it is synthesized, and the whole-trace BuildProfile is one Feed over
// the full instruction array. All carried state (the live loop stack,
// stride accumulators, path counts, the previous block/static index for
// block re-entry detection) persists across Feed calls, so partitioning
// the trace at any boundary produces the same Profile as one scan.
// Resident memory is O(static program + distinct paths + loop depth),
// never O(trace).
//
// Feed does O(1) work per instruction with no map operation on the
// common path: static facts are tabulated per instruction, block and
// loop at construction, the loop stack is reconciled only when the
// block changes, loop instruction counts are added as run lengths, and
// stride and dependence state live in slices and open-addressed tables.
type ProfileBuilder struct {
	nest *LoopNest
	p    *Profile

	insts    []instInfo // per static instruction
	hdrDepth []int      // per block: stack depth of the loop it heads, or -1
	chains   [][]int    // per loop: its ancestors outermost first, then itself
	strides  []strideAcc
	paths    []pathTally // per loop

	stack     []*loopState // always chains[innermost loop of prevBlock]
	freeLS    []*loopState
	runFrom   int64 // dynamic index where the stack last changed
	pathBuf   []byte
	prevBlock int
	prevSI    int
}

// NewProfileBuilder returns a builder for one dynamic execution of the
// program cfg was built from.
func NewProfileBuilder(cfg *CFG, nest *LoopNest) *ProfileBuilder {
	p := &Profile{
		CFG:        cfg,
		Nest:       nest,
		BlockCount: make([]int64, len(cfg.Blocks)),
		Strides:    make(map[int]StrideInfo),
	}
	p.Loops = make([]LoopProfile, len(nest.Loops))
	for i := range p.Loops {
		p.Loops[i] = LoopProfile{LoopID: i, PathCounts: make(map[string]int64)}
	}
	pb := &ProfileBuilder{
		nest:      nest,
		p:         p,
		insts:     make([]instInfo, len(cfg.Prog.Insts)),
		hdrDepth:  make([]int, len(cfg.Blocks)),
		chains:    make([][]int, len(nest.Loops)),
		paths:     make([]pathTally, len(nest.Loops)),
		prevBlock: -1,
	}
	for si := range pb.insts {
		b := cfg.BlockOf[si]
		op := cfg.Prog.Insts[si].Op
		in := instInfo{block: int32(b), mem: -1, start: si == cfg.Blocks[b].Start, store: op.IsStore()}
		if op.IsMem() {
			in.mem = int32(len(pb.strides))
			pb.strides = append(pb.strides, strideAcc{})
		}
		pb.insts[si] = in
	}
	for l := range pb.chains {
		var chain []int
		for a := l; a != -1; a = nest.Loops[a].Parent {
			chain = append(chain, a)
		}
		slices.Reverse(chain)
		pb.chains[l] = chain
	}
	// Loops are merged per header, so at most one loop on a block's
	// chain has it as header.
	for b := range pb.hdrDepth {
		pb.hdrDepth[b] = -1
		if inner := nest.InnermostOf[b]; inner != -1 {
			for k, l := range pb.chains[inner] {
				if nest.Loops[l].Header == b {
					pb.hdrDepth[b] = k
				}
			}
		}
	}
	return pb
}

func (pb *ProfileBuilder) recordPath(ls *loopState) {
	if len(ls.iterBlocks) == 0 { // only inner loops collect blocks
		return
	}
	pt := &pb.paths[ls.id]
	if slices.Equal(pt.last, ls.iterBlocks) {
		*pt.lastN++
	} else {
		pb.pathBuf = appendPath(pb.pathBuf[:0], ls.iterBlocks)
		if pt.counts == nil {
			pt.counts = make(map[string]*int64)
		}
		n, ok := pt.counts[string(pb.pathBuf)]
		if !ok {
			n = new(int64)
			pt.counts[string(pb.pathBuf)] = n
		}
		*n++
		pt.last, pt.lastN = append(pt.last[:0], ls.iterBlocks...), n
	}
	ls.iterBlocks = ls.iterBlocks[:0]
}

// newLS recycles loop states through a free list: occurrences are
// frequent (every entry from outside the loop), and a recycled state's
// dependence table is reset in O(1), not reallocated.
func (pb *ProfileBuilder) newLS(l int) *loopState {
	var ls *loopState
	if n := len(pb.freeLS); n > 0 {
		ls = pb.freeLS[n-1]
		pb.freeLS = pb.freeLS[:n-1]
	} else {
		ls = &loopState{}
	}
	ls.id, ls.inner, ls.iter = l, pb.nest.Loops[l].Inner(), 0
	ls.iterBlocks = ls.iterBlocks[:0]
	ls.deps.reset()
	return ls
}

func (pb *ProfileBuilder) popTo(depth int) {
	for len(pb.stack) > depth {
		ls := pb.stack[len(pb.stack)-1]
		pb.recordPath(ls)
		pb.freeLS = append(pb.freeLS, ls)
		pb.stack = pb.stack[:len(pb.stack)-1]
	}
}

// flush adds the instructions since the last stack change, up to
// dynamic index pos, to every active loop.
func (pb *ProfileBuilder) flush(pos int64) {
	for _, ls := range pb.stack {
		pb.p.Loops[ls.id].DynInsts += pos - pb.runFrom
	}
	pb.runFrom = pos
}

// enter reconciles the loop stack with block b, entered at dynamic
// index pos: afterwards it holds b's innermost loop and its ancestors,
// with an occurrence opened for each loop not already live.
func (pb *ProfileBuilder) enter(b int, pos int64) {
	inner, top := pb.nest.InnermostOf[b], -1
	if n := len(pb.stack); n > 0 {
		top = pb.stack[n-1].id
	}
	if inner == top {
		return
	}
	pb.flush(pos)
	var chain []int
	if inner != -1 {
		chain = pb.chains[inner]
	}
	common := 0
	for common < len(pb.stack) && common < len(chain) && pb.stack[common].id == chain[common] {
		common++
	}
	pb.popTo(common)
	for _, l := range chain[common:] {
		pb.stack = append(pb.stack, pb.newLS(l))
		pb.p.Loops[l].Entries++
	}
}

// Feed accumulates one chunk of consecutive dynamic instructions. Chunks
// must arrive in trace order.
func (pb *ProfileBuilder) Feed(insts []trace.DynInst) {
	p := pb.p
	base := p.TotalDyn
	p.TotalDyn += int64(len(insts))
	for i := range insts {
		d := &insts[i]
		si := int(d.SI)
		in := &pb.insts[si]
		b := int(in.block)
		// A block is (re-)entered at its first instruction when control
		// arrived from elsewhere, or from the block's own end or later
		// (single-block loops branching back to themselves): a backwards
		// or same static step means re-entry.
		entered := in.start && (b != pb.prevBlock || pb.prevSI >= si)
		if b != pb.prevBlock {
			pb.enter(b, base+int64(i))
		}
		if entered {
			p.BlockCount[b]++
			// Header re-entry = new iteration of the loop it heads.
			if k := pb.hdrDepth[b]; k >= 0 {
				ls := pb.stack[k]
				if ls.iter > 0 {
					pb.recordPath(ls)
				}
				ls.iter++
				p.Loops[ls.id].Iterations++
			}
			if n := len(pb.stack); n > 0 && pb.stack[n-1].inner {
				top := pb.stack[n-1]
				top.iterBlocks = append(top.iterBlocks, b)
			}
		}

		// Stride + memory-dependence tracking.
		if in.mem >= 0 {
			sa := &pb.strides[in.mem]
			if sa.seen {
				sa.add(int64(d.Addr) - int64(sa.lastAddr))
				sa.samples++
			}
			sa.lastAddr, sa.seen = d.Addr, true
			if n := len(pb.stack); n > 0 {
				top := pb.stack[n-1]
				if top.deps.access(d.Addr, top.iter, in.store) {
					p.Loops[top.id].CarriedMemDep = true
				}
			}
		}

		pb.prevBlock, pb.prevSI = b, si
	}
}

// Finish closes open loops and finalizes the profile. The builder must
// not be fed afterwards.
func (pb *ProfileBuilder) Finish() *Profile {
	p := pb.p
	pb.flush(p.TotalDyn)
	pb.popTo(0)

	// Finalize loop stats.
	for i := range p.Loops {
		lp := &p.Loops[i]
		if lp.Entries > 0 {
			lp.AvgTrip = float64(lp.Iterations) / float64(lp.Entries)
		}
		if lp.Iterations > 0 {
			lp.BackProb = float64(lp.Iterations-lp.Entries) / float64(lp.Iterations)
			if lp.BackProb < 0 {
				lp.BackProb = 0
			}
		}
		for k, n := range pb.paths[i].counts {
			lp.PathCounts[k] = *n
		}
		lp.HotPath, lp.HotPathFrac = hotPath(lp.PathCounts)
	}

	// Finalize strides.
	for si, in := range pb.insts {
		if in.mem >= 0 && pb.strides[in.mem].seen {
			p.Strides[si] = pb.strides[in.mem].info()
		}
	}
	return p
}

// hotPath returns the most frequent iteration path of counts and its
// share of all iterations. Ties break toward the smaller encoded path,
// so map iteration order never picks the hot path.
func hotPath(counts map[string]int64) ([]int, float64) {
	var best string
	var bestN, total int64
	for k, n := range counts {
		total += n
		if n > bestN || (n == bestN && k < best) {
			best, bestN = k, n
		}
	}
	if total == 0 {
		return nil, 0
	}
	return decodePath(best), float64(bestN) / float64(total)
}

// lessDelta orders stride deltas for dominant-stride tie-breaking:
// smaller absolute value first, negative before positive on equal
// magnitude.
func lessDelta(a, b int64) bool {
	aa, ab := a, b
	if aa < 0 {
		aa = -aa
	}
	if ab < 0 {
		ab = -ab
	}
	if aa != ab {
		return aa < ab
	}
	return a < b
}

// LoopShare returns the fraction of all dynamic instructions spent in the
// given loop (including nested loops).
func (p *Profile) LoopShare(loopID int) float64 {
	if p.TotalDyn == 0 {
		return 0
	}
	return float64(p.Loops[loopID].DynInsts) / float64(p.TotalDyn)
}

func appendPath(buf []byte, blocks []int) []byte {
	var tmp [binary.MaxVarintLen64]byte
	for _, b := range blocks {
		n := binary.PutUvarint(tmp[:], uint64(b))
		buf = append(buf, tmp[:n]...)
	}
	return buf
}

func decodePath(s string) []int {
	var out []int
	b := []byte(s)
	for len(b) > 0 {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		out = append(out, int(v))
		b = b[n:]
	}
	return out
}

// SortedLoopsByShare returns loop IDs ordered by descending dynamic share.
func (p *Profile) SortedLoopsByShare() []int {
	ids := make([]int, len(p.Loops))
	for i := range ids {
		ids[i] = i
	}
	sort.Slice(ids, func(a, b int) bool {
		return p.Loops[ids[a]].DynInsts > p.Loops[ids[b]].DynInsts
	})
	return ids
}
