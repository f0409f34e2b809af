package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"exocore/internal/obs"
)

func mustOpen(t *testing.T, dir string, opts Options) *Store {
	t.Helper()
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	return s
}

func TestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	key := []byte("u1|bench/core/15000|sig")
	val := []byte{1, 2, 3, 4, 5}
	if _, ok := s.Get(key); ok {
		t.Fatal("hit on empty store")
	}
	s.Put(key, val)
	got, ok := s.Get(key)
	if !ok || !bytes.Equal(got, val) {
		t.Fatalf("Get = %v, %v; want %v, true", got, ok, val)
	}

	// Overwrite replaces.
	val2 := []byte("replacement")
	s.Put(key, val2)
	got, ok = s.Get(key)
	if !ok || !bytes.Equal(got, val2) {
		t.Fatalf("after overwrite Get = %q, %v; want %q", got, ok, val2)
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d, want 1", s.Len())
	}
}

func TestReopenWarm(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	for i := 0; i < 10; i++ {
		s.Put([]byte(fmt.Sprintf("key-%d", i)), []byte(fmt.Sprintf("val-%d", i)))
	}

	reg := obs.NewRegistry()
	s2 := mustOpen(t, dir, Options{Reg: reg})
	if s2.Len() != 10 {
		t.Fatalf("reopened Len = %d, want 10", s2.Len())
	}
	for i := 0; i < 10; i++ {
		got, ok := s2.Get([]byte(fmt.Sprintf("key-%d", i)))
		if !ok || string(got) != fmt.Sprintf("val-%d", i) {
			t.Fatalf("key-%d: got %q, %v", i, got, ok)
		}
	}
	if v := reg.Counter("store.hits").Value(); v != 10 {
		t.Fatalf("store.hits = %d, want 10", v)
	}
}

func TestVersionMismatch(t *testing.T) {
	dir := t.TempDir()
	mustOpen(t, dir, Options{})
	if err := os.WriteFile(filepath.Join(dir, "VERSION"), []byte("exocore-store/v9\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{}); err == nil {
		t.Fatal("Open accepted a mismatched format marker")
	}
}

// corruptOne flips a byte in one object file and returns its path.
func corruptOne(t *testing.T, dir string) string {
	t.Helper()
	var target string
	filepath.Walk(filepath.Join(dir, "objects"), func(path string, info os.FileInfo, err error) error {
		if err == nil && !info.IsDir() && target == "" {
			target = path
		}
		return nil
	})
	if target == "" {
		t.Fatal("no object files to corrupt")
	}
	raw, err := os.ReadFile(target)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0xff
	if err := os.WriteFile(target, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	return target
}

func TestCorruptEntryQuarantinedAtOpen(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	s.Put([]byte("good"), []byte("g"))
	s.Put([]byte("bad"), []byte("b"))
	corruptOne(t, dir)

	reg := obs.NewRegistry()
	s2 := mustOpen(t, dir, Options{Reg: reg})
	if s2.Len() != 1 {
		t.Fatalf("Len after corrupt open = %d, want 1", s2.Len())
	}
	if v := reg.Counter("store.quarantined").Value(); v != 1 {
		t.Fatalf("store.quarantined = %d, want 1", v)
	}
	qfiles, _ := os.ReadDir(filepath.Join(dir, "quarantine"))
	if len(qfiles) != 1 {
		t.Fatalf("quarantine holds %d files, want 1", len(qfiles))
	}
	// Exactly one of the two keys survived; both reads must be sane.
	okCount := 0
	for _, k := range []string{"good", "bad"} {
		if _, ok := s2.Get([]byte(k)); ok {
			okCount++
		}
	}
	if okCount != 1 {
		t.Fatalf("%d of 2 keys readable after corruption, want 1", okCount)
	}
}

func TestCorruptEntryQuarantinedAtGet(t *testing.T) {
	dir := t.TempDir()
	reg := obs.NewRegistry()
	s := mustOpen(t, dir, Options{Reg: reg})
	s.Put([]byte("k"), []byte("v"))
	corruptOne(t, dir)
	if _, ok := s.Get([]byte("k")); ok {
		t.Fatal("Get returned a corrupt value")
	}
	if v := reg.Counter("store.quarantined").Value(); v != 1 {
		t.Fatalf("store.quarantined = %d, want 1", v)
	}
	if s.Len() != 0 {
		t.Fatalf("Len = %d after quarantine, want 0", s.Len())
	}
	// The entry is gone from objects/ either way.
	if _, ok := s.Get([]byte("k")); ok {
		t.Fatal("quarantined entry resurrected")
	}
}

// wrappedKeyFrame is a 26-byte object with a valid checksum whose key
// length, 0xFFFFFFFC, makes klen+4 wrap to zero in 32-bit arithmetic.
func wrappedKeyFrame() []byte {
	b := append([]byte(nil), magic[:]...)
	b = binary.BigEndian.AppendUint32(b, 0xFFFFFFFC)
	b = append(b, make([]byte, 6)...)
	h := fnv.New64a()
	h.Write(b)
	return h.Sum(b)
}

// A key length the file cannot hold is corruption, however close to
// 2^32 it is: decoding returns errCorrupt instead of slicing past the
// frame, and a store opened over such a file quarantines it and starts.
func TestWrappedKeyLengthQuarantined(t *testing.T) {
	raw := wrappedKeyFrame()
	if len(raw) != 26 {
		t.Fatalf("frame is %d bytes, want 26", len(raw))
	}
	if _, _, err := decodeObject(raw); !errors.Is(err, errCorrupt) {
		t.Fatalf("decodeObject = %v, want errCorrupt", err)
	}

	dir := t.TempDir()
	mustOpen(t, dir, Options{})
	addr := addrOf([]byte("k"))
	path := filepath.Join(dir, "objects", addr[:2], addr)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	s := mustOpen(t, dir, Options{Reg: reg})
	if s.Len() != 0 {
		t.Fatalf("Len = %d, want 0", s.Len())
	}
	if v := reg.Counter("store.quarantined").Value(); v != 1 {
		t.Fatalf("store.quarantined = %d, want 1", v)
	}
	if _, err := os.Stat(filepath.Join(dir, "quarantine", addr)); err != nil {
		t.Fatalf("frame not in quarantine: %v", err)
	}
}

// FuzzDecodeObject: decoding any file's bytes must not panic, and an
// accepted frame must be exactly the encoding of what it decoded to.
// The checksum rejects almost every mutated input before the framing is
// read, so each input is also decoded with a valid checksum appended.
func FuzzDecodeObject(f *testing.F) {
	good := encodeObject([]byte("u1|mm/OOO2/10000|key"), []byte{1, 2, 3})
	for _, seed := range [][]byte{
		good,
		encodeObject(nil, nil),
		good[:len(good)-1],
		wrappedKeyFrame(),
		magic[:],
		nil,
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		h := fnv.New64a()
		h.Write(raw)
		for _, in := range [][]byte{raw, h.Sum(append([]byte(nil), raw...))} {
			key, val, err := decodeObject(in)
			if err != nil {
				continue
			}
			if re := encodeObject(key, val); !bytes.Equal(re, in) {
				t.Fatalf("accepted %x, but key %q and value %x encode to %x", in, key, val, re)
			}
		}
	})
}

func TestEvictionCap(t *testing.T) {
	dir := t.TempDir()
	reg := obs.NewRegistry()
	// Each entry is 5+95 = 100 payload bytes; cap at 350 keeps 3.
	s := mustOpen(t, dir, Options{CapBytes: 350, Reg: reg})
	val := bytes.Repeat([]byte{7}, 95)
	for i := 0; i < 8; i++ {
		s.Put([]byte(fmt.Sprintf("ek-%02d", i)), val)
	}
	if s.Len() != 3 {
		t.Fatalf("Len = %d under cap 350, want 3", s.Len())
	}
	if v := reg.Counter("store.evictions").Value(); v != 5 {
		t.Fatalf("store.evictions = %d, want 5", v)
	}
	occ := s.Occupancy()
	if occ.Bytes != 300 || occ.Entries != 3 || occ.CapBytes != 350 {
		t.Fatalf("Occupancy = %+v", occ)
	}
	// Most recently written survive.
	for i := 5; i < 8; i++ {
		if _, ok := s.Get([]byte(fmt.Sprintf("ek-%02d", i))); !ok {
			t.Fatalf("ek-%02d evicted, want kept", i)
		}
	}
	for i := 0; i < 5; i++ {
		if _, ok := s.Get([]byte(fmt.Sprintf("ek-%02d", i))); ok {
			t.Fatalf("ek-%02d kept, want evicted", i)
		}
	}
}

func TestLRUOrderOnAccess(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{CapBytes: 300})
	val := bytes.Repeat([]byte{7}, 95)
	s.Put([]byte("aa-00"), val)
	s.Put([]byte("aa-01"), val)
	s.Put([]byte("aa-02"), val)
	// Touch the oldest so it becomes most recent, then overflow.
	if _, ok := s.Get([]byte("aa-00")); !ok {
		t.Fatal("aa-00 missing before overflow")
	}
	s.Put([]byte("aa-03"), val)
	if _, ok := s.Get([]byte("aa-01")); ok {
		t.Fatal("aa-01 should have been evicted (LRU)")
	}
	if _, ok := s.Get([]byte("aa-00")); !ok {
		t.Fatal("aa-00 was evicted despite recent access")
	}
}

func TestNilStoreInert(t *testing.T) {
	var s *Store
	s.Put([]byte("k"), []byte("v"))
	if _, ok := s.Get([]byte("k")); ok {
		t.Fatal("nil store hit")
	}
	if s.Len() != 0 || s.Dir() != "" {
		t.Fatal("nil store not inert")
	}
	if occ := s.Occupancy(); occ != (Occupancy{}) {
		t.Fatalf("nil Occupancy = %+v", occ)
	}
}

func TestConcurrentAccess(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{CapBytes: 1 << 20})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				key := []byte(fmt.Sprintf("k-%d-%d", g, i%10))
				s.Put(key, key)
				if v, ok := s.Get(key); ok && !bytes.Equal(v, key) {
					t.Errorf("goroutine %d: value mismatch", g)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
