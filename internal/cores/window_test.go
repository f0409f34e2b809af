package cores

import (
	"math/rand"
	"slices"
	"testing"
)

// held reads the window's times back from its ring and overflow list, in
// ascending order, and reports whether every bitmap bit marks exactly a
// non-empty bucket.
func (w *issueWindow) held() ([]int64, bool) {
	if !w.full {
		out := slices.Clone(w.fill)
		slices.Sort(out)
		return out, true
	}
	var out []int64
	for d := range int64(winSpan) {
		s := (w.min + d) & (winSpan - 1)
		if (w.cnt[s] > 0) != (w.bits[s>>6]>>(s&63)&1 == 1) {
			return nil, false
		}
		for range w.cnt[s] {
			out = append(out, w.min+d)
		}
	}
	return append(out, w.over...), true
}

// TestIssueWindowKeepsTheLargestTimes feeds random issue times — behind,
// near and up to many ring spans beyond the minimum — to windows of
// several sizes, each reused across runs, and holds them to a sorted list
// of the size largest times: the minimum after every time, and the whole
// multiset, bitmap included, every few hundred times and at the end.
func TestIssueWindowKeepsTheLargestTimes(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, size := range []int{1, 2, 7, 32, 52, 300} {
		var w issueWindow
		w.init(size)
		for run := 0; run < 5; run++ {
			w.reset()
			var ref []int64 // the size largest times, ascending
			base := int64(rng.Intn(1000))
			for i := 0; i < size+3000; i++ {
				var d int64
				switch k := rng.Intn(20); {
				case k < 10:
					d = rng.Int63n(50) - 5
				case k < 16:
					d = rng.Int63n(5000)
				case k < 19:
					d = rng.Int63n(3 * winSpan)
				default:
					d = rng.Int63n(200000)
				}
				if len(ref) == size {
					base = ref[0]
				}
				v := base + d
				w.note(v)
				if len(ref) < size || v > ref[0] {
					if len(ref) == size {
						ref = ref[1:]
					}
					at, _ := slices.BinarySearch(ref, v)
					ref = slices.Insert(ref, at, v)
				}
				want := int64(0)
				if len(ref) == size {
					want = ref[0]
				}
				if w.min != want {
					t.Fatalf("size %d run %d time %d: minimum %d, want %d", size, run, i, w.min, want)
				}
				if i%256 == 0 || i == size+2999 {
					got, ok := w.held()
					if !ok || !slices.Equal(got, ref) {
						t.Fatalf("size %d run %d time %d: window holds %v (bitmap consistent: %v), want %v",
							size, run, i, got, ok, ref)
					}
				}
			}
		}
	}
}
