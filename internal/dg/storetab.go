package dg

// StoreTable maps the word address of each recent store to a value V:
// the general core's store-forwarding record, or the completion node of a
// store an offload region performed. It carries store addresses across
// accelerated regions, so a load after an offload sees the accelerator's
// stores and the reverse (paper §2.1, the core↔accelerator interaction
// edges).
//
// It is an open-addressed, linear-probe table instead of a Go map on the
// per-µop hot path. Occupied slots key on addr&^7|1 — word addresses have
// their low three bits clear — so 0 marks an empty slot whatever the
// address. slots lists the occupied slots in first-store order, so Clear
// and ForEach cost O(entries), not O(capacity): Clear zeroes only those
// slots and shrinks the table back to its initial size, keeping the
// capacity a long unit or region grew it to, and every key past the
// occupied slots, up to the capacity, stays zero. The table holds every
// entry until Clear or Keep drops it; when to evict is the owner's rule.
// The zero table is empty; call Clear before its first Get or Set.
type StoreTable[V any] struct {
	keys  []uint64
	vals  []V
	slots []int32 // occupied slots, in first-store order
	mask  uint64
	kept  []storeEntry[V] // rebuild scratch
}

type storeEntry[V any] struct {
	key uint64
	val V
}

const storeTableInit = 1024 // power of two; grows to keep load < 1/2

// Clear empties the table and shrinks it back to its initial size,
// allocating it on first use.
func (t *StoreTable[V]) Clear() {
	for _, i := range t.slots {
		t.keys[i] = 0
	}
	t.slots = t.slots[:0]
	if len(t.keys) != storeTableInit {
		t.resize(storeTableInit)
	}
}

// resize sets the table's size, reusing its capacity when it suffices.
func (t *StoreTable[V]) resize(size int) {
	if size > cap(t.keys) {
		t.keys, t.vals = make([]uint64, size), make([]V, size)
	}
	t.keys, t.vals = t.keys[:size], t.vals[:size]
	t.mask = uint64(size - 1)
}

// Len returns the number of entries.
func (t *StoreTable[V]) Len() int { return len(t.slots) }

// Get returns the value of the last store to addr's word.
func (t *StoreTable[V]) Get(addr uint64) (V, bool) {
	k := addr&^7 | 1
	for i := k * 0x9E3779B97F4A7C15 >> 17 & t.mask; ; i = (i + 1) & t.mask {
		switch t.keys[i] {
		case k:
			return t.vals[i], true
		case 0:
			var none V
			return none, false
		}
	}
}

// Set records v as the last store to addr's word.
func (t *StoreTable[V]) Set(addr uint64, v V) {
	if 2*(len(t.slots)+1) > len(t.keys) {
		t.rebuild(2*len(t.keys), nil)
	}
	t.insert(addr&^7|1, v)
}

func (t *StoreTable[V]) insert(k uint64, v V) {
	for i := k * 0x9E3779B97F4A7C15 >> 17 & t.mask; ; i = (i + 1) & t.mask {
		switch t.keys[i] {
		case k:
			t.vals[i] = v
			return
		case 0:
			t.keys[i], t.vals[i] = k, v
			t.slots = append(t.slots, int32(i))
			return
		}
	}
}

// Keep drops every entry whose value keep rejects, rebuilding the table
// in place. The kept entries keep their first-store order.
func (t *StoreTable[V]) Keep(keep func(V) bool) { t.rebuild(len(t.keys), keep) }

// rebuild rehashes the entries keep accepts (all of them when keep is
// nil) into a table of size slots, in place when the capacity allows.
func (t *StoreTable[V]) rebuild(size int, keep func(V) bool) {
	t.kept = t.kept[:0]
	for _, i := range t.slots {
		if keep == nil || keep(t.vals[i]) {
			t.kept = append(t.kept, storeEntry[V]{t.keys[i], t.vals[i]})
		}
		t.keys[i] = 0
	}
	t.slots = t.slots[:0]
	t.resize(size)
	for _, e := range t.kept {
		t.insert(e.key, e.val)
	}
}

// ForEach visits every (word address, value) pair in first-store order.
func (t *StoreTable[V]) ForEach(f func(addr uint64, v V)) {
	for _, i := range t.slots {
		f(t.keys[i]&^1, t.vals[i])
	}
}
