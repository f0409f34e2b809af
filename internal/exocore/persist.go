package exocore

import (
	"encoding/binary"

	"exocore/internal/energy"
)

// Persist is a durable unit-outcome store attached to a Cache (see
// AttachPersist): Get returns the value last Put under key, or
// ok=false. Both sides are best-effort — a persist layer may drop
// writes (eviction, I/O errors) at the cost of re-computation, never
// correctness. Implementations must be safe for concurrent use, must
// not retain key after the call returns (the engine reuses its key
// buffer) and must not modify val (it is the memo's own value);
// internal/store satisfies this interface.
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

// outcomeVersion stamps outcome values; a value of any other version
// is treated as a miss (forward compatibility across format changes
// without a store wipe).
const outcomeVersion = 1

// An outcome value holds a unit's per-segment durations and
// energy-event deltas. It is both the form the memo holds (unitOutcome)
// and the value the durable store persists, so its bytes are a
// persisted contract:
//
//	outcomeVersion uvarint(energy.NumEvents) uvarint(nsegs)
//	| per segment: uvarint(duration) varint(delta) × energy.NumEvents
//
// Class attribution is never part of it.

// appendOutcomeHeader starts an outcome value of n segments;
// appendSegment then adds each segment in order.
func appendOutcomeHeader(b []byte, n int) []byte {
	b = append(b, outcomeVersion)
	b = binary.AppendUvarint(b, uint64(energy.NumEvents))
	return binary.AppendUvarint(b, uint64(n))
}

// appendSegment appends one segment's duration and energy-event deltas.
func appendSegment(b []byte, dur int64, d *energy.Counts) []byte {
	b = binary.AppendUvarint(b, uint64(dur))
	for _, v := range d {
		b = binary.AppendVarint(b, v)
	}
	return b
}

// outcomeBody parses an outcome value's header, returning its segment
// count and the segment bytes after the header; ok is false for another
// version or a malformed header.
func outcomeBody(raw []byte) (n int, segs []byte, ok bool) {
	if len(raw) < 1 || raw[0] != outcomeVersion {
		return 0, nil, false
	}
	p := raw[1:]
	ev, k := binary.Uvarint(p)
	if k <= 0 || ev != uint64(energy.NumEvents) {
		return 0, nil, false
	}
	p = p[k:]
	un, k := binary.Uvarint(p)
	if k <= 0 || un == 0 {
		return 0, nil, false
	}
	p = p[k:]
	// Every segment takes at least one byte per varint, so a count the
	// remaining bytes cannot hold is rejected before anything walks it.
	if un > uint64(len(p))/(1+uint64(energy.NumEvents)) {
		return 0, nil, false
	}
	return int(un), p, true
}

// checkOutcome reports the segment count of a well-formed outcome
// value; ok is false for another version or a malformed value (treated
// as a miss). It reads raw in place and allocates nothing.
func checkOutcome(raw []byte) (n int, ok bool) {
	n, p, ok := outcomeBody(raw)
	if !ok {
		return 0, false
	}
	// A duration and NumEvents deltas per segment; Varint accepts
	// exactly the byte strings Uvarint does.
	for range n * (1 + int(energy.NumEvents)) {
		_, k := binary.Uvarint(p)
		if k <= 0 {
			return 0, false
		}
		p = p[k:]
	}
	return n, len(p) == 0
}

// nextSegment decodes the segment at the head of p — the segment bytes
// of a checked outcome value (outcomeBody) — into d, returning its
// duration and the bytes after it.
func nextSegment(p []byte, d *energy.Counts) (int64, []byte) {
	dur, k := binary.Uvarint(p)
	p = p[k:]
	for j := range d {
		// Most deltas are zero or small: one byte, zigzag-decoded here.
		if b := p[0]; b < 0x80 {
			d[j] = int64(b>>1) ^ -int64(b&1)
			p = p[1:]
			continue
		}
		v, k := binary.Varint(p)
		d[j] = v
		p = p[k:]
	}
	return int64(dur), p
}
