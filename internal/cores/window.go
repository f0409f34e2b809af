package cores

import (
	"math/bits"
	"slices"
)

// winSpan is the cycle span of the issue window's bucket ring (a power of
// two): held issue times less than winSpan above the window's minimum are
// counted in the ring, later ones wait in a sorted overflow list.
const winSpan = 1 << 12

// issueWindow holds the Window largest issue times seen so far, a
// multiset. A uop may dispatch only when fewer than Window older uops are
// still waiting to issue, i.e. no earlier than the Window-th largest issue
// time seen so far: the multiset's minimum.
//
// The first Window times are collected unsorted. From then on each new
// issue time replaces the minimum, and every time the window receives is
// above it (a uop issues after it dispatches, and it dispatches no earlier
// than the minimum), so the minimum never falls. That makes the window a
// bucket queue: per-cycle counts in a ring over [min, min+winSpan), a
// bitmap of the non-empty cycles in which the next minimum is found a word
// at a time, and the rare time at or past min+winSpan parked in a sorted
// overflow list until the minimum comes within winSpan of it. Replacing
// the minimum is O(1).
type issueWindow struct {
	size int   // Config.Window; 0: no window
	min  int64 // the minimum once full; 0, which constrains nothing, before
	full bool
	fill []int64 // the first size times, while filling
	// cnt counts the held times per cycle, indexed by cycle mod winSpan. A
	// bucket holds at most size times, so an int counts any window.
	cnt  *[winSpan]int
	bits [winSpan / 64]uint64 // the non-empty buckets
	over []int64              // sorted times ≥ min+winSpan
}

func (w *issueWindow) init(size int) {
	w.size = size
	w.fill = make([]int64, 0, size)
	w.cnt = new([winSpan]int)
}

// reset empties the window, clearing only the occupied buckets.
func (w *issueWindow) reset() {
	if w.full {
		for i, word := range w.bits {
			for ; word != 0; word &= word - 1 {
				w.cnt[i<<6|bits.TrailingZeros64(word)] = 0
			}
			w.bits[i] = 0
		}
	}
	w.min, w.full = 0, false
	w.fill, w.over = w.fill[:0], w.over[:0]
}

// note adds issue time t, keeping the size largest times.
func (w *issueWindow) note(t int64) {
	if w.full {
		if t > w.min {
			w.replaceMin(t)
		}
		return
	}
	if w.size > 0 {
		w.collect(t)
	}
}

// collect adds one of the first size times, turning them into the bucket
// queue once there are size of them.
func (w *issueWindow) collect(t int64) {
	w.fill = append(w.fill, t)
	if len(w.fill) < w.size {
		return
	}
	w.min = slices.Min(w.fill)
	for _, t := range w.fill {
		if t-w.min < winSpan {
			w.count(t)
		} else {
			w.park(t)
		}
	}
	w.fill = w.fill[:0]
	w.full = true
}

// park adds t, at least winSpan above min, to the overflow list.
func (w *issueWindow) park(t int64) {
	i, _ := slices.BinarySearch(w.over, t)
	w.over = slices.Insert(w.over, i, t)
}

// count adds t, within winSpan of min, to its bucket.
func (w *issueWindow) count(t int64) {
	s := t & (winSpan - 1)
	w.cnt[s]++
	w.bits[s>>6] |= 1 << (s & 63)
}

// replaceMin evicts one copy of the minimum and adds t > min.
func (w *issueWindow) replaceMin(t int64) {
	if t-w.min < winSpan {
		w.count(t)
	} else {
		w.park(t)
	}
	s := w.min & (winSpan - 1)
	if w.cnt[s]--; w.cnt[s] == 0 {
		w.advance(s)
	}
}

// advance moves min past its emptied bucket s to the next held time.
func (w *issueWindow) advance(s int64) {
	w.bits[s>>6] &^= 1 << (s & 63)
	// The next minimum is the first non-empty bucket after s, circularly:
	// the ring's times all lie in [min, min+winSpan).
	i := s >> 6
	word := w.bits[i] & (^uint64(0) << (s & 63))
	for k := 0; word == 0; k++ {
		if k == len(w.bits) { // the ring is empty: every time is parked
			w.min = w.over[0]
			w.unpark()
			return
		}
		i = (i + 1) & (winSpan/64 - 1)
		word = w.bits[i]
	}
	w.min += (i<<6 | int64(bits.TrailingZeros64(word)) - s) & (winSpan - 1)
	if len(w.over) > 0 && w.over[0]-w.min < winSpan {
		w.unpark()
	}
}

// unpark moves the parked times now within winSpan of min into the ring.
func (w *issueWindow) unpark() {
	k := 0
	for ; k < len(w.over) && w.over[k]-w.min < winSpan; k++ {
		w.count(w.over[k])
	}
	w.over = w.over[:copy(w.over, w.over[k:])]
}
