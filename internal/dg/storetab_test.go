package dg

import (
	"maps"
	"math/rand"
	"slices"
	"testing"
)

// runStoreOps drives a StoreTable through the operation stream ops
// encodes, four bytes an operation, and holds it to a reference: a Go map
// keyed by word address plus the list of its keys in first-store order.
// Set and Get take addresses whose low three bits vary, so addresses
// that differ only there must name one entry. A bulk operation stores to
// up to 128Ki fresh words, growing the table past 64Ki entries, and a
// later Clear must shrink it back while keeping every answer right.
func runStoreOps(t *testing.T, ops []byte) {
	t.Helper()
	var tab StoreTable[NodeID]
	tab.Clear()
	ref := map[uint64]NodeID{}
	var order []uint64 // ref's keys in first-store order
	next := NodeID(0)
	set := func(addr uint64) {
		next++
		w := addr &^ 7
		if _, ok := ref[w]; !ok {
			order = append(order, w)
		}
		ref[w] = next
		tab.Set(addr, next)
	}
	get := func(addr uint64) {
		v, ok := tab.Get(addr)
		want, wok := ref[addr&^7]
		if v != want || ok != wok {
			t.Fatalf("Get(%#x) = %d, %v; want %d, %v", addr, v, ok, want, wok)
		}
	}
	visit := func() {
		var got []uint64
		tab.ForEach(func(addr uint64, v NodeID) {
			if want, ok := ref[addr]; !ok || v != want {
				t.Fatalf("ForEach visited %#x → %d; reference has %d, %v", addr, v, want, ok)
			}
			got = append(got, addr)
		})
		if !slices.Equal(got, order) {
			t.Fatalf("ForEach visited %d words out of first-store order; want %d", len(got), len(order))
		}
	}
	for ; len(ops) >= 4; ops = ops[4:] {
		a, b, c := uint64(ops[1]), uint64(ops[2]), uint64(ops[3])
		switch ops[0] % 16 {
		case 0, 1, 2, 3, 4: // 256 words: overwrites and low-bit aliases
			set(a<<3 | c&7)
		case 5, 6: // 64Ki words
			set((a<<8|b)<<3 | c&7)
		case 7, 8, 9:
			get(a<<3 | c&7)
		case 10:
			get((a<<8|b)<<3 | c&7)
		case 11:
			tab.Clear()
			clear(ref)
			order = order[:0]
			if len(tab.keys) != storeTableInit {
				t.Fatalf("Clear left %d slots, want %d", len(tab.keys), storeTableInit)
			}
		case 12:
			keep := func(v NodeID) bool { return uint64(v)%4 != c%4 }
			tab.Keep(keep)
			maps.DeleteFunc(ref, func(_ uint64, v NodeID) bool { return !keep(v) })
			order = slices.DeleteFunc(order, func(w uint64) bool { _, ok := ref[w]; return !ok })
		case 13:
			visit()
		case 14: // bulk: fresh words above the other ranges, up to 128Ki when b is 0
			n := uint64(1) << (a % 10)
			if b == 0 {
				n = 1 << (a % 18)
			}
			if len(ref)+int(n) > 1<<18 {
				continue
			}
			base := (b + 1) << 32
			for i := uint64(0); i < n; i++ {
				set((base+i)<<3 | i&7)
			}
		case 15: // high address bits
			set((a<<50|b)<<3 | c&7)
		}
		if tab.Len() != len(ref) {
			t.Fatalf("Len() = %d, reference holds %d", tab.Len(), len(ref))
		}
	}
	visit()
	for w := range ref {
		get(w | 7)
	}
}

// TestStoreTableMatchesMap runs random operation streams, and one that
// grows the table past 64Ki entries before clearing it, against the
// map-and-list reference.
func TestStoreTableMatchesMap(t *testing.T) {
	grow := []byte{14, 17, 0, 0, 13, 0, 0, 0, 7, 3, 0, 5, 11, 0, 0, 0, 0, 9, 0, 1, 0, 9, 0, 6, 7, 9, 0, 2, 13, 0, 0, 0}
	runStoreOps(t, grow)
	for seed := int64(1); seed <= 8; seed++ {
		ops := make([]byte, 4*3000)
		rand.New(rand.NewSource(seed)).Read(ops)
		runStoreOps(t, ops)
	}
}

// FuzzStoreTable holds the table to the reference under any operation
// stream.
func FuzzStoreTable(f *testing.F) {
	f.Add([]byte{0, 1, 0, 0, 0, 1, 0, 7, 7, 1, 0, 3, 13, 0, 0, 0})
	f.Add([]byte{14, 17, 0, 0, 11, 0, 0, 0, 0, 2, 0, 0, 12, 0, 0, 1, 13, 0, 0, 0})
	f.Add([]byte{15, 255, 255, 7, 5, 255, 255, 0, 10, 255, 255, 3, 12, 0, 0, 2})
	f.Fuzz(runStoreOps)
}

// TestStoreTableReuseVisitsOnlyNewStores: a pooled table keeps the
// capacity its largest region grew it to, but clearing and visiting it
// must cost (and see) only the stores of the current region.
func TestStoreTableReuseVisitsOnlyNewStores(t *testing.T) {
	var tab StoreTable[NodeID]
	tab.Clear()
	const big = 70_000 // past 64Ki stores: the table grows to 256Ki slots
	for i := 0; i < big; i++ {
		tab.Set(uint64(i)*8, NodeID(i))
	}
	if len(tab.keys) < 2*big {
		t.Fatalf("table did not grow: %d slots for %d stores", len(tab.keys), big)
	}
	tab.Clear()
	if len(tab.keys) != storeTableInit || cap(tab.keys) < 2*big {
		t.Fatalf("cleared table has %d slots of capacity %d, want %d of at least %d",
			len(tab.keys), cap(tab.keys), storeTableInit, 2*big)
	}
	want := map[uint64]NodeID{0x1000: 7, 0x88: 9, 0xdead0: 11}
	for addr, n := range want {
		tab.Set(addr, n)
	}
	got := map[uint64]NodeID{}
	visits := 0
	tab.ForEach(func(addr uint64, n NodeID) {
		got[addr] = n
		visits++
	})
	if visits != len(want) || !maps.Equal(got, want) {
		t.Fatalf("visited %d pairs %v, want exactly %v", visits, got, want)
	}
	if n, ok := tab.Get(8); ok {
		t.Fatalf("cleared entry still found (node %d)", n)
	}
}
