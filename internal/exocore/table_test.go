package exocore

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"testing"
	"time"

	"exocore/internal/cores"
)

// tableHashes is the handful of hashes FuzzOutcomeTable's keys take, all
// on one shard: two share a tag at different home slots, two share a
// home slot under different tags, and one starts at the last slot of
// every index size, so its probes wrap.
var tableHashes = [...]uint64{
	0x0000_0000_0000_0005,
	0x0000_0000_0000_0075,
	0xfff8_0000_0000_0005,
	0xffff_ffff_ffff_fff5,
	0x1234_5678_9abc_def5,
}

func tableHash(key []byte) uint64 {
	n := len(key)
	for _, b := range key {
		n += int(b)
	}
	return tableHashes[n%len(tableHashes)]
}

// FuzzOutcomeTable drives put/get sequences on a memo and its pool
// against Go maps with first-writer-wins: every value a put or get
// returns must equal the reference's, keep its bytes for the table's
// life and be capped at its length, and the tables must hold exactly the
// reference's keys. Each 3-byte op picks a key (empty keys included), a
// value length (some within a few bytes of each chunk size, some past a
// chunk) and one of: a memo put, a memo get, a pool put followed by a
// memo entry referring to the pool's record (the cache's shared-pool
// path), or a pool get; ops past the 256th are ignored.
func FuzzOutcomeTable(f *testing.F) {
	f.Add([]byte{0, 0, 5, 1, 0, 0})
	f.Add([]byte{0, 1, 250, 0, 6, 3, 2, 11, 9, 1, 11, 0, 3, 6, 0})
	f.Add(bytes.Repeat([]byte{0, 7, 20, 2, 13, 40, 0, 19, 255, 1, 7, 0}, 12))
	seq := make([]byte, 0, 3*120)
	for i := range 120 {
		seq = append(seq, byte(i%3*2), byte(i), byte(i*37))
	}
	f.Add(seq)
	// Records that straddle each chunk size step: a 1-byte key under
	// size byte 194+8k+j makes a record of 256<<k - 4 + j bytes, so with
	// j = 4 the k-th record fills the k-th chunk exactly, and with j = 5
	// it is a byte larger and gets a chunk of its own.
	for _, j := range []byte{4, 5} {
		var steps []byte
		for k := range byte(growSteps + 1) {
			steps = append(steps, 0, 5*k+1, 194+8*k+j, 1, 5*k+1, 0)
		}
		f.Add(append(steps, 2, 2, 63, 0, 3, 63))
	}
	// Small records filling chunk after chunk through every size step,
	// every fourth a record of about 1 KiB, in the memo and the pool.
	fill := make([]byte, 0, 3*256)
	for i := range 256 {
		size := byte(63)
		if i%4 == 0 {
			size = 194 + 8*2 + byte(i/4%8)
		}
		fill = append(fill, byte(i/128*2), byte(i), size)
	}
	f.Add(fill)
	f.Fuzz(func(t *testing.T, ops []byte) {
		pool := &outcomeTable{hash: tableHash}
		memo := &outcomeTable{hash: tableHash, pool: pool}
		wantMemo, wantPool := map[string][]byte{}, map[string][]byte{}
		type seen struct {
			key  string
			val  []byte
			pool bool
		}
		var handed []seen
		check := func(what string, key []byte, got []byte, want []byte) {
			t.Helper()
			if !bytes.Equal(got, want) || cap(got) != len(got) {
				t.Fatalf("%s %q: got %d bytes (cap %d), want %d", what, key, len(got), cap(got), len(want))
			}
		}
		if len(ops) > 3*256 {
			ops = ops[:3*256]
		}
		for n := 0; n+3 <= len(ops); n += 3 {
			op, sel, size := ops[n], ops[n+1], ops[n+2]
			key := bytes.Repeat([]byte{sel / 5}, int(sel%5))
			vlen := int(size % 64)
			switch {
			case size >= 250:
				vlen = chunkSize + int(size-250)*100 + 1
			case size >= 194:
				vlen = firstChunk<<((size-194)/8) - 8 + int(size-194)%8
			}
			val := make([]byte, vlen)
			for i := range val {
				val[i] = byte(n + i)
			}
			h := tableHash(key)
			switch op % 4 {
			case 0:
				prev, had := wantMemo[string(key)]
				got, _, added := memo.put(h, key, val, 0)
				if !had {
					wantMemo[string(key)] = val
					prev = val
				}
				if added == had {
					t.Fatalf("memo put %q: added %v, the key was held: %v", key, added, had)
				}
				check("memo put", key, got, prev)
				handed = append(handed, seen{string(key), got, false})
			case 1:
				got, _, ok := memo.get(h, key)
				want, had := wantMemo[string(key)]
				if ok != had {
					t.Fatalf("memo get %q: found %v, want %v", key, ok, had)
				}
				check("memo get", key, got, want)
			case 2:
				prev, had := wantPool[string(key)]
				pv, ref, _ := pool.put(h, key, val, 0)
				if !had {
					wantPool[string(key)] = val
					prev = val
				}
				check("pool put", key, pv, prev)
				mprev, mhad := wantMemo[string(key)]
				got, _, added := memo.put(h, key, nil, ref|poolRef)
				if !mhad {
					wantMemo[string(key)] = prev
					mprev = prev
				}
				if added == mhad {
					t.Fatalf("memo put of pool ref %q: added %v, the key was held: %v", key, added, mhad)
				}
				check("memo put of pool ref", key, got, mprev)
				handed = append(handed, seen{string(key), pv, true}, seen{string(key), got, false})
			case 3:
				got, _, ok := pool.get(h, key)
				want, had := wantPool[string(key)]
				if ok != had {
					t.Fatalf("pool get %q: found %v, want %v", key, ok, had)
				}
				check("pool get", key, got, want)
			}
		}
		for _, s := range handed {
			want := wantMemo[s.key]
			if s.pool {
				want = wantPool[s.key]
			}
			check("value handed out earlier", []byte(s.key), s.val, want)
		}
		for _, tc := range []struct {
			name string
			t    *outcomeTable
			want map[string][]byte
		}{{"memo", memo, wantMemo}, {"pool", pool, wantPool}} {
			held := 0
			tc.t.each(func(k, v []byte, _ bool) {
				held++
				check(tc.name+" entry", k, v, tc.want[string(k)])
			})
			if held != len(tc.want) {
				t.Fatalf("%s holds %d entries, want %d", tc.name, held, len(tc.want))
			}
		}
	})
}

// TestWarmTableInsertsAllocateRarely holds an insert into a warm memo to
// the table's own growth: over 1,000 fresh keys it allocates only for a
// chunk that fills (the chunk and the published chunk list, plus the
// list's backing array when it grows) and for an index that doubles.
func TestWarmTableInsertsAllocateRarely(t *testing.T) {
	memo := &outcomeTable{hash: keyHash, pool: &outcomeTable{hash: keyHash}}
	val := bytes.Repeat([]byte{7}, 90)
	var key []byte
	next := uint64(0)
	insert := func(n int) {
		for range n {
			key = binary.AppendUvarint(key[:0], next)
			next++
			if _, _, added := memo.put(keyHash(key), key, val, 0); !added {
				t.Fatalf("key %d was held already", next-1)
			}
		}
	}
	insert(3000)
	events := 0
	allocs := testing.AllocsPerRun(1, func() {
		chunks, listCap := len(memo.arena.chunks), cap(memo.arena.chunks)
		var slots [cacheShards]int
		for i := range memo.shards {
			slots[i] = len(memo.shards[i].slots)
		}
		insert(1000)
		events = 2 * (len(memo.arena.chunks) - chunks)
		if cap(memo.arena.chunks) != listCap {
			events++
		}
		for i := range memo.shards {
			for n := slots[i]; n < len(memo.shards[i].slots); n *= 2 {
				events++
			}
		}
	})
	if allocs > float64(events) || allocs/1000 > 0.05 {
		t.Errorf("1,000 inserts into a warm memo made %v allocations, its chunks and index account for %d", allocs, events)
	}
	t.Logf("1,000 warm inserts: %v allocations, %d chunk and index events", allocs, events)
}

// TestDroppedCacheArenaIsCollected holds the TDG's shared pool to
// pinning only pool records: once a Cache is dropped, the arena chunk
// holding its baseline unit is collected while its TDG's pool, which
// the cache's NS-DF entries refer to, stays in the TDG with its records.
func TestDroppedCacheArenaIsCollected(t *testing.T) {
	td := buildTDG(t, "mm", 4000)
	bsas := allBSAs()
	plans := analyzeAll(td, bsas)
	offload := Assignment{}
	for l := range plans["NS-DF"].Regions {
		offload[l] = "NS-DF"
	}
	collected := make(chan struct{})
	func() {
		c := NewCache(td)
		for _, a := range []Assignment{nil, offload} {
			if _, err := Run(td, cores.OOO2, bsas, plans, a, RunOpts{Cache: c}); err != nil {
				t.Fatal(err)
			}
		}
		pooled := 0
		c.memo.each(func(_, _ []byte, inPool bool) {
			if inPool {
				pooled++
			}
		})
		base := unitize(td, Segmentize(td, nil), nil, bsas)
		chunk := chunkOf(&c.memo, appendKey(nil, &base[0]))
		if pooled == 0 || chunk == nil {
			t.Fatalf("the memo holds %d pool references and the baseline unit in chunk %p; want both", pooled, chunk)
		}
		runtime.SetFinalizer(chunk, func(*byte) { close(collected) })
	}()
	deadline := time.Now().Add(10 * time.Second)
	for done := false; !done; {
		runtime.GC()
		select {
		case <-collected:
			done = true
		case <-time.After(10 * time.Millisecond):
			if time.Now().After(deadline) {
				t.Fatal("a dropped cache's arena chunk is still reachable")
			}
		}
	}
	if p := td.Pool(newPool).(*outcomeTable); p.arena.dir.Load() == nil {
		t.Error("the TDG's shared pool holds no record")
	}
}

// chunkOf returns the first byte of the arena chunk holding key's
// record, wherever t's entry resolves it.
func chunkOf(t *outcomeTable, key []byte) *byte {
	h := t.hash(key)
	s := &t.shards[h%cacheShards]
	if s.n == 0 {
		return nil
	}
	i, _, ok := s.find(t, h, key)
	if !ok {
		return nil
	}
	ref, a := s.slots[i]&refMask, &t.arena
	if ref&poolRef != 0 {
		ref, a = ref&^poolRef, &t.pool.arena
	}
	return &(*a.dir.Load())[ref>>offBits][0]
}
