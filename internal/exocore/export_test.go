package exocore

import "exocore/internal/cores"

// each calls f with every entry t holds: its key, its value and whether
// it refers to a record of t's pool.
func (t *outcomeTable) each(f func(key, val []byte, pooled bool)) {
	for i := range t.shards {
		s := &t.shards[i]
		s.mu.RLock()
		for _, v := range s.slots {
			if v != 0 {
				k, val := t.record(v & refMask)
				f(k, val, v&poolRef != 0)
			}
		}
		s.mu.RUnlock()
	}
}

// heldBytes is what t holds for its entries: its arena's chunks and its
// index slots.
func (t *outcomeTable) heldBytes() int64 {
	var n int64
	t.arena.mu.Lock()
	for _, c := range t.arena.chunks {
		n += int64(cap(c))
	}
	t.arena.mu.Unlock()
	for i := range t.shards {
		s := &t.shards[i]
		s.mu.RLock()
		n += 8 * int64(cap(s.slots))
		s.mu.RUnlock()
	}
	return n
}

// MemoHeldBytes returns the chunk and index bytes c's memo holds.
func MemoHeldBytes(c *Cache) int64 { return c.memo.heldBytes() }

// PoolHeldBytes returns the chunk and index bytes held by the shared
// pool c's memo refers to, which every cache of c's TDG shares.
func PoolHeldBytes(c *Cache) int64 { return c.memo.pool.heldBytes() }

// pooledWorkerBytes returns the arena bytes the pooled workers of core
// hold.
func pooledWorkerBytes(core cores.Config) int64 {
	p := poolFor(core)
	p.mu.Lock()
	defer p.mu.Unlock()
	var n int64
	for _, w := range p.free {
		n += w.memBytes()
	}
	return n
}

// pooledAttributions returns the attribution free list's entries.
func pooledAttributions() []*attribution {
	attributions.mu.Lock()
	defer attributions.mu.Unlock()
	return append([]*attribution(nil), attributions.free...)
}

// emptyPools drops every pooled worker and attribution, so a test reads
// only what its own runs leave in them.
func emptyPools() {
	workerPoolsMu.Lock()
	clear(workerPools)
	workerPoolsMu.Unlock()
	attributions.mu.Lock()
	attributions.free = nil
	attributions.mu.Unlock()
}
