package ir

import "exocore/internal/trace"

// refProfileBuilder is the map-based profile builder ProfileBuilder
// replaced, kept as the reference its profiles must equal exactly (see
// TestProfileBuilderMatchesReference). It does the straightforward
// per-instruction work: rebuild the loop chain and reconcile the stack,
// count every instruction into every active loop, and keep strides and
// dependence records in maps. Hot-path ties break toward the smaller
// encoded path, the rule ProfileBuilder defines.
type refProfileBuilder struct {
	cfg  *CFG
	nest *LoopNest
	p    *Profile

	strides    map[int]*refStrideAcc
	stack      []*refLoopState
	pathCounts []map[string]int64
	chain      []int
	prevBlock  int
	prevSI     int
	first      bool
}

type refStrideAcc struct {
	lastAddr uint64
	seen     bool
	deltas   map[int64]int64
	samples  int64
}

type refLoopState struct {
	id         int
	iterBlocks []int
	addrIter   map[uint64]refDepRec // word address -> last access
	iter       int64
}

type refDepRec struct {
	iter    int64
	isStore bool
}

func newRefProfileBuilder(cfg *CFG, nest *LoopNest) *refProfileBuilder {
	p := &Profile{
		CFG:        cfg,
		Nest:       nest,
		BlockCount: make([]int64, len(cfg.Blocks)),
		Strides:    make(map[int]StrideInfo),
		Loops:      make([]LoopProfile, len(nest.Loops)),
	}
	for i := range p.Loops {
		p.Loops[i] = LoopProfile{LoopID: i, PathCounts: make(map[string]int64)}
	}
	return &refProfileBuilder{
		cfg: cfg, nest: nest, p: p,
		strides:    make(map[int]*refStrideAcc),
		pathCounts: make([]map[string]int64, len(nest.Loops)),
		prevBlock:  -1,
		first:      true,
	}
}

func (pb *refProfileBuilder) recordPath(ls *refLoopState) {
	if len(ls.iterBlocks) == 0 {
		return
	}
	if pb.nest.Loops[ls.id].Inner() {
		if pb.pathCounts[ls.id] == nil {
			pb.pathCounts[ls.id] = make(map[string]int64)
		}
		pb.pathCounts[ls.id][string(appendPath(nil, ls.iterBlocks))]++
	}
	ls.iterBlocks = ls.iterBlocks[:0]
}

func (pb *refProfileBuilder) popTo(depth int) {
	for len(pb.stack) > depth {
		pb.recordPath(pb.stack[len(pb.stack)-1])
		pb.stack = pb.stack[:len(pb.stack)-1]
	}
}

func (pb *refProfileBuilder) Feed(insts []trace.DynInst) {
	cfg, nest, p := pb.cfg, pb.nest, pb.p
	p.TotalDyn += int64(len(insts))
	for i := range insts {
		d := &insts[i]
		si := int(d.SI)
		b := cfg.BlockOf[si]
		enteredBlock := si == cfg.Blocks[b].Start &&
			(pb.first || b != pb.prevBlock || pb.prevSI >= si)
		pb.first = false
		if enteredBlock {
			p.BlockCount[b]++
		}

		// Reconcile the loop stack with the innermost loop of this block.
		inner := nest.InnermostOf[b]
		if inner == -1 {
			pb.popTo(0)
		} else {
			chain := pb.chain[:0]
			for l := inner; l != -1; l = nest.Loops[l].Parent {
				chain = append(chain, l)
			}
			for l, r := 0, len(chain)-1; l < r; l, r = l+1, r-1 {
				chain[l], chain[r] = chain[r], chain[l]
			}
			pb.chain = chain
			common := 0
			for common < len(pb.stack) && common < len(chain) && pb.stack[common].id == chain[common] {
				common++
			}
			pb.popTo(common)
			for _, l := range chain[common:] {
				pb.stack = append(pb.stack, &refLoopState{id: l, addrIter: make(map[uint64]refDepRec)})
				p.Loops[l].Entries++
			}
		}

		for _, ls := range pb.stack {
			p.Loops[ls.id].DynInsts++
		}

		// Header re-entry = new iteration of the innermost matching loop.
		if enteredBlock {
			for _, ls := range pb.stack {
				if nest.Loops[ls.id].Header == b {
					if ls.iter > 0 {
						pb.recordPath(ls)
					}
					ls.iter++
					p.Loops[ls.id].Iterations++
				}
			}
			if len(pb.stack) > 0 {
				top := pb.stack[len(pb.stack)-1]
				if nest.Loops[top.id].Inner() {
					top.iterBlocks = append(top.iterBlocks, b)
				}
			}
		}

		op := cfg.Prog.Insts[si].Op
		if op.IsMem() {
			sa := pb.strides[si]
			if sa == nil {
				sa = &refStrideAcc{deltas: make(map[int64]int64)}
				pb.strides[si] = sa
			}
			if sa.seen {
				sa.deltas[int64(d.Addr)-int64(sa.lastAddr)]++
				sa.samples++
			}
			sa.lastAddr = d.Addr
			sa.seen = true

			if len(pb.stack) > 0 {
				top := pb.stack[len(pb.stack)-1]
				if rec, ok := top.addrIter[d.Addr]; ok && rec.iter < top.iter &&
					(rec.isStore || op.IsStore()) {
					p.Loops[top.id].CarriedMemDep = true
				}
				if len(top.addrIter) < maxDepTrack {
					prev, ok := top.addrIter[d.Addr]
					top.addrIter[d.Addr] = refDepRec{iter: top.iter, isStore: op.IsStore() || (ok && prev.isStore && prev.iter == top.iter)}
				}
			}
		}

		pb.prevBlock = b
		pb.prevSI = si
	}
}

func (pb *refProfileBuilder) Finish() *Profile {
	p := pb.p
	pb.popTo(0)
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
		var best string
		var bestN, total int64
		for k, n := range pb.pathCounts[i] {
			lp.PathCounts[k] = n
			total += n
			if n > bestN || (n == bestN && k < best) {
				best, bestN = k, n
			}
		}
		if total > 0 {
			lp.HotPath = decodePath(best)
			lp.HotPathFrac = float64(bestN) / float64(total)
		}
	}
	for si, sa := range pb.strides {
		info := StrideInfo{Samples: sa.samples}
		var bestN int64
		for delta, n := range sa.deltas {
			if n > bestN || (n == bestN && bestN > 0 && lessDelta(delta, info.Dominant)) {
				info.Dominant, bestN = delta, n
			}
		}
		if sa.samples > 0 {
			info.Consistent = float64(bestN) / float64(sa.samples)
		}
		p.Strides[si] = info
	}
	return p
}
