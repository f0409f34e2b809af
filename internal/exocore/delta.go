// Delta composer: the assignment-independent trace structure behind
// incremental evaluation. Built once per Cache (ie. once per
// (benchmark, core) scheduling context), it lets every subsequent Run
// segmentize in O(atoms) instead of O(trace × nest depth); the Cache's
// unit outcomes then make a Run under a new assignment evaluate only the
// units no earlier assignment produced.
//
// An *atom* is a maximal run of dynamic instructions whose static
// instructions share the same assignable-loop chain — the finest
// granularity at which any legal assignment can change segmentation.
// Since Run validates assignments against the BSA plans, only loops
// planned by at least one BSA ("assignable") can ever appear in an
// assignment, so chains are restricted to those without changing the
// result. For any assignment, every instruction of an atom resolves to
// the same region, so segmentizing reduces to resolving each distinct
// chain once and merging adjacent atoms — byte-identical to Segmentize
// by construction (gated by TestSegmentizeCoversTrace and the edge cases
// in segmentize_test.go, which run both segmentizers, and by
// TestRandomizedAssignmentsDeltaEqualsFull).
package exocore

import "exocore/internal/tdg"

// atom is a maximal dynamic-instruction run with one assignable-loop
// chain. chain indexes composer.chains; -1 means no assignable loop
// encloses the run (it is always general-core).
type atom struct {
	start, end int32
	chain      int32
}

// composer holds the precomputed structure. Immutable after build; safe
// for concurrent segmentize calls.
type composer struct {
	atoms []atom
	// chains lists the distinct assignable-loop chains, outermost first
	// (so the first assigned loop found is the outermost — the same
	// winner Segmentize's innermost-to-root walk keeps).
	chains [][]int32
}

// newComposer builds the composer for one (TDG, plans) tuple.
func newComposer(t *tdg.TDG, plans map[string]*tdg.Plan) *composer {
	c := &composer{}

	// Assignable loops: union of all plan regions.
	assignable := map[int]bool{}
	for _, plan := range plans {
		if plan == nil {
			continue
		}
		for l := range plan.Regions {
			assignable[l] = true
		}
	}

	// Chain per static instruction, interned. Chains are tiny (nest
	// depth), static instruction counts are small, so a byte-key map is
	// plenty.
	nest := t.Nest
	nStatic := len(t.Trace.Prog.Insts)
	chainOfSI := make([]int32, nStatic)
	interned := map[string]int32{}
	var scratch []int32
	var keyBuf []byte
	for si := 0; si < nStatic; si++ {
		scratch = scratch[:0]
		for l := nest.InnermostOfInst(si); l != -1; l = nest.Loops[l].Parent {
			if assignable[l] {
				scratch = append(scratch, int32(l))
			}
		}
		if len(scratch) == 0 {
			chainOfSI[si] = -1
			continue
		}
		// scratch is innermost-first; reverse to outermost-first.
		for i, j := 0, len(scratch)-1; i < j; i, j = i+1, j-1 {
			scratch[i], scratch[j] = scratch[j], scratch[i]
		}
		keyBuf = keyBuf[:0]
		for _, l := range scratch {
			keyBuf = append(keyBuf, byte(l), byte(l>>8), byte(l>>16), byte(l>>24))
		}
		id, ok := interned[string(keyBuf)]
		if !ok {
			id = int32(len(c.chains))
			c.chains = append(c.chains, append([]int32(nil), scratch...))
			interned[string(keyBuf)] = id
		}
		chainOfSI[si] = id
	}

	// Partition the trace into atoms.
	insts := t.Trace.Insts
	cur := atom{chain: -2}
	for i := range insts {
		ch := chainOfSI[insts[i].SI]
		if ch != cur.chain {
			if cur.chain != -2 {
				c.atoms = append(c.atoms, cur)
			}
			cur = atom{start: int32(i), end: int32(i + 1), chain: ch}
		} else {
			cur.end = int32(i + 1)
		}
	}
	if cur.chain != -2 {
		c.atoms = append(c.atoms, cur)
	}
	return c
}

// segmentize splits the trace under an assignment by resolving each
// distinct chain once and merging adjacent atoms — the O(atoms)
// equivalent of Segmentize.
func (c *composer) segmentize(assign Assignment) []Segment {
	resolved := make([]int32, len(c.chains))
	for i, ch := range c.chains {
		r := int32(-1)
		for _, l := range ch {
			if _, ok := assign[int(l)]; ok {
				r = l // outermost-first: first assigned wins
				break
			}
		}
		resolved[i] = r
	}
	segs := make([]Segment, 0, 16)
	cur := Segment{LoopID: -2}
	for _, a := range c.atoms {
		region := -1
		if a.chain >= 0 {
			region = int(resolved[a.chain])
		}
		if region != cur.LoopID {
			if cur.LoopID != -2 {
				segs = append(segs, cur)
			}
			cur = Segment{LoopID: region, Start: int(a.start), End: int(a.end)}
		} else {
			cur.End = int(a.end)
		}
	}
	if cur.LoopID != -2 {
		segs = append(segs, cur)
	}
	return segs
}
