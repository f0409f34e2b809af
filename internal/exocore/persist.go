package exocore

import (
	"encoding/binary"

	"exocore/internal/energy"
)

// Persist is a durable unit-outcome store attached to a Cache (see
// AttachPersist): Get returns the value last Put under key, or
// ok=false. Both sides are best-effort — a persist layer may drop
// writes (eviction, I/O errors) at the cost of re-computation, never
// correctness. Implementations must be safe for concurrent use and
// must not retain key or val after the call returns (the engine reuses
// scratch buffers); internal/store satisfies this interface.
type Persist interface {
	Get(key []byte) ([]byte, bool)
	Put(key, val []byte)
}

// AttachPersist connects a durable store to the cache, namespaced by
// ns. Persisted entries are keyed by ns followed by the unit's key
// (appendKey), so ns must uniquely identify the cache's (benchmark
// trace, core config, BSA set) tuple across daemon restarts
// (internal/runner derives it from the workload name, core name and
// -maxdyn). Attach before the cache's first Run; the fields are read
// without synchronization afterwards.
func (c *Cache) AttachPersist(p Persist, ns string) {
	c.persist = p
	c.persistNS = ns
}

// outcomeVersion stamps persisted outcome values; a decoder seeing any
// other version treats the entry as a miss (forward compatibility
// across format changes without a store wipe).
const outcomeVersion = 1

// encodeOutcome serializes an outcome's per-segment durations and
// energy-event deltas. Class attribution is never persisted — the
// engine skips the persist path entirely for RecordRegions runs.
func encodeOutcome(o *unitOutcome, scratch []byte) []byte {
	b := append(scratch[:0], outcomeVersion)
	b = binary.AppendUvarint(b, uint64(energy.NumEvents))
	b = binary.AppendUvarint(b, uint64(len(o.segDurs)))
	for i, d := range o.segDurs {
		b = binary.AppendUvarint(b, uint64(d))
		for _, v := range o.segCounts[i] {
			b = binary.AppendVarint(b, v)
		}
	}
	return b
}

// decodeOutcome is the inverse of encodeOutcome; nil means the value
// is from another format version or malformed (treated as a miss).
func decodeOutcome(raw []byte) *unitOutcome {
	if len(raw) < 1 || raw[0] != outcomeVersion {
		return nil
	}
	p := raw[1:]
	ev, k := binary.Uvarint(p)
	if k <= 0 || ev != uint64(energy.NumEvents) {
		return nil
	}
	p = p[k:]
	n, k := binary.Uvarint(p)
	if k <= 0 || n == 0 {
		return nil
	}
	p = p[k:]
	// Every segment takes at least one byte per varint, so a count the
	// remaining bytes cannot hold is rejected before it sizes anything.
	if n > uint64(len(p))/(1+uint64(energy.NumEvents)) {
		return nil
	}
	o := &unitOutcome{
		segDurs:   make([]int64, n),
		segCounts: make([]energy.Counts, n),
	}
	for i := range o.segDurs {
		d, k := binary.Uvarint(p)
		if k <= 0 {
			return nil
		}
		o.segDurs[i] = int64(d)
		p = p[k:]
		for j := range o.segCounts[i] {
			v, k := binary.Varint(p)
			if k <= 0 {
				return nil
			}
			o.segCounts[i][j] = v
			p = p[k:]
		}
	}
	if len(p) != 0 {
		return nil
	}
	return o
}
