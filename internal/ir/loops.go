package ir

import (
	"fmt"
	"sort"
)

// Loop is a natural loop discovered from CFG back edges. Loops sharing a
// header are merged, matching standard loop reconstruction from binaries.
type Loop struct {
	ID     int
	Header int   // header block ID
	Blocks []int // member block IDs, sorted
	// Latches are in-loop predecessors of the header (back-edge sources).
	Latches []int
	// Exits are in-loop blocks with a successor outside the loop.
	Exits []int
	// Parent is the immediately enclosing loop's ID, or -1.
	Parent   int
	Children []int
	Depth    int // 1 = outermost

	blockSet map[int]bool
}

// Contains reports whether block b belongs to the loop.
func (l *Loop) Contains(b int) bool { return l.blockSet[b] }

// Inner reports whether the loop has no nested loops.
func (l *Loop) Inner() bool { return len(l.Children) == 0 }

// LoopNest is the loop forest of a CFG.
type LoopNest struct {
	CFG   *CFG
	Loops []Loop
	// InnermostOf maps block ID -> innermost containing loop ID, or -1.
	InnermostOf []int
	// Roots are the outermost loops.
	Roots []int
}

// BuildLoopNest finds all natural loops of the CFG and their nesting.
func BuildLoopNest(cfg *CFG) *LoopNest {
	nb := len(cfg.Blocks)
	// Collect back edges tail->head where head dominates tail.
	headerBlocks := make(map[int]map[int]bool) // header -> member set
	headerLatches := make(map[int][]int)
	for b := 0; b < nb; b++ {
		for _, s := range cfg.Blocks[b].Succs {
			if cfg.Dominates(s, b) {
				// back edge b -> s; flood backwards from b to s.
				set := headerBlocks[s]
				if set == nil {
					set = map[int]bool{s: true}
					headerBlocks[s] = set
				}
				headerLatches[s] = append(headerLatches[s], b)
				var stack []int
				if !set[b] {
					set[b] = true
					stack = append(stack, b)
				}
				for len(stack) > 0 {
					x := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					for _, p := range cfg.Blocks[x].Preds {
						if !set[p] {
							set[p] = true
							stack = append(stack, p)
						}
					}
				}
			}
		}
	}

	nest := &LoopNest{CFG: cfg, InnermostOf: make([]int, nb)}
	for i := range nest.InnermostOf {
		nest.InnermostOf[i] = -1
	}
	headers := make([]int, 0, len(headerBlocks))
	for h := range headerBlocks {
		headers = append(headers, h)
	}
	sort.Ints(headers)
	for _, h := range headers {
		set := headerBlocks[h]
		blocks := make([]int, 0, len(set))
		for b := range set {
			blocks = append(blocks, b)
		}
		sort.Ints(blocks)
		l := Loop{
			ID:       len(nest.Loops),
			Header:   h,
			Blocks:   blocks,
			Latches:  headerLatches[h],
			Parent:   -1,
			blockSet: set,
		}
		sort.Ints(l.Latches)
		for _, b := range blocks {
			for _, s := range cfg.Blocks[b].Succs {
				if !set[s] && !containsInt(l.Exits, b) {
					l.Exits = append(l.Exits, b)
				}
			}
		}
		nest.Loops = append(nest.Loops, l)
	}

	// Nesting: loop A is the parent of B if A contains B's header, A != B,
	// and A is the smallest such loop.
	for i := range nest.Loops {
		li := &nest.Loops[i]
		best, bestSize := -1, 1<<31
		for j := range nest.Loops {
			if i == j {
				continue
			}
			lj := &nest.Loops[j]
			if lj.Contains(li.Header) && len(lj.Blocks) > len(li.Blocks) && len(lj.Blocks) < bestSize {
				// Require full containment for well-nested loops.
				all := true
				for _, b := range li.Blocks {
					if !lj.Contains(b) {
						all = false
						break
					}
				}
				if all {
					best, bestSize = j, len(lj.Blocks)
				}
			}
		}
		li.Parent = best
	}
	for i := range nest.Loops {
		if p := nest.Loops[i].Parent; p >= 0 {
			nest.Loops[p].Children = append(nest.Loops[p].Children, i)
		} else {
			nest.Roots = append(nest.Roots, i)
		}
	}
	// Depths via BFS from roots.
	var setDepth func(id, d int)
	setDepth = func(id, d int) {
		nest.Loops[id].Depth = d
		for _, c := range nest.Loops[id].Children {
			setDepth(c, d+1)
		}
	}
	for _, r := range nest.Roots {
		setDepth(r, 1)
	}
	// Innermost loop per block: the containing loop with max depth.
	for b := 0; b < nb; b++ {
		best, bestDepth := -1, 0
		for i := range nest.Loops {
			if nest.Loops[i].Contains(b) && nest.Loops[i].Depth > bestDepth {
				best, bestDepth = i, nest.Loops[i].Depth
			}
		}
		nest.InnermostOf[b] = best
	}
	return nest
}

// InnermostOfInst returns the innermost loop containing a static
// instruction, or -1.
func (n *LoopNest) InnermostOfInst(si int) int {
	return n.InnermostOf[n.CFG.BlockOf[si]]
}

// InstsOf returns the static-instruction count of a loop (all blocks).
func (n *LoopNest) InstsOf(loopID int) int {
	total := 0
	for _, b := range n.Loops[loopID].Blocks {
		total += n.CFG.Blocks[b].Len()
	}
	return total
}

// IsAncestor reports whether loop a encloses (or equals) loop b.
func (n *LoopNest) IsAncestor(a, b int) bool {
	for b != -1 {
		if a == b {
			return true
		}
		b = n.Loops[b].Parent
	}
	return false
}

// OutermostAncestor returns the root loop enclosing l.
func (n *LoopNest) OutermostAncestor(l int) int {
	for n.Loops[l].Parent != -1 {
		l = n.Loops[l].Parent
	}
	return l
}

// String renders the loop forest.
func (n *LoopNest) String() string {
	s := fmt.Sprintf("%d loops\n", len(n.Loops))
	for i := range n.Loops {
		l := &n.Loops[i]
		s += fmt.Sprintf("  L%d header=B%d depth=%d parent=%d blocks=%v exits=%v\n",
			l.ID, l.Header, l.Depth, l.Parent, l.Blocks, l.Exits)
	}
	return s
}

func containsInt(s []int, v int) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}
