// Package store is a content-addressed, disk-spillable result store
// for evaluation-unit outcomes. Keys are opaque byte strings (the
// canonical unit signatures serialized by internal/exocore); the
// address of an entry is the SHA-256 of its key, so identical work
// always lands on the same object file regardless of which process —
// or which replica — produced it. A daemon restarted with the same
// -store directory comes up warm: the first sweep hits disk instead of
// re-deriving every unit.
//
// On-disk layout (format "exocore-store/v1"):
//
//	DIR/VERSION              format marker, written once at create
//	DIR/objects/ab/abcdef…   one entry per object, sharded by the
//	                         first address byte
//	DIR/quarantine/          corrupt entries moved aside at open/read
//
// Each object file is self-verifying: a magic header, the full key
// (so hash collisions and cross-namespace mixups are detected, not
// trusted), the value, and an FNV-64a checksum over everything before
// it. Writes go through a temp file + rename in the same directory, so
// a crash mid-write never leaves a torn entry under objects/.
//
// The store is size-capped: an in-memory LRU index (built by scanning
// objects/ at Open, refreshed on access) evicts the least recently
// used entries once the byte cap is exceeded. Corrupt entries found at
// open or read are quarantined — moved to DIR/quarantine/ — rather
// than deleted, so an operator can inspect them.
package store

import (
	"container/list"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/fnv"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"exocore/internal/obs"
)

// Version is the on-disk format marker, written to DIR/VERSION when a
// store is created and required verbatim when one is reopened.
const Version = "exocore-store/v1"

// magic starts every object file; a file without it is quarantined.
var magic = [8]byte{'e', 'x', 'o', 's', 't', 'o', 'r', '1'}

// DefaultCapBytes is the eviction cap when Options.CapBytes is zero:
// 1 GiB of object payload (keys + values).
const DefaultCapBytes = 1 << 30

// Options configures Open.
type Options struct {
	// CapBytes is the eviction threshold over the sum of entry sizes
	// (key + value bytes per entry). Zero means DefaultCapBytes;
	// negative means uncapped.
	CapBytes int64
	// Reg receives the store.* instruments (hits, misses, writes,
	// write_errors, evictions, quarantined, and the bytes/entries
	// gauges). Nil is fine — instruments become inert.
	Reg *obs.Registry
}

// Store is a content-addressed persistent key/value store. All methods
// are safe for concurrent use. A nil *Store is inert: Get always
// misses and Put is a no-op, so callers can thread an optional store
// without nil checks.
type Store struct {
	dir string
	cap int64

	mu      sync.Mutex
	entries map[string]*list.Element // address -> lru element
	lru     *list.List               // front = most recently used
	bytes   int64

	hits        *obs.Counter
	misses      *obs.Counter
	writes      *obs.Counter
	writeErrors *obs.Counter
	evictions   *obs.Counter
	quarantined *obs.Counter
	gBytes      *obs.Gauge
	gEntries    *obs.Gauge
}

// entry is the in-memory index record for one object file.
type entry struct {
	addr string
	size int64
}

// Open opens (or creates) the store rooted at dir. It validates the
// format marker, scans objects/ to rebuild the index, quarantines any
// entry that fails its self-check, and evicts down to the cap if the
// directory is over it. The scan order seeds LRU by file modification
// time, so a reopened store evicts oldest-written entries first.
func Open(dir string, opts Options) (*Store, error) {
	if dir == "" {
		return nil, errors.New("store: empty directory")
	}
	if err := os.MkdirAll(filepath.Join(dir, "objects"), 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	vpath := filepath.Join(dir, "VERSION")
	if raw, err := os.ReadFile(vpath); err == nil {
		if string(raw) != Version+"\n" {
			return nil, fmt.Errorf("store: %s holds format %q, want %q", dir, trimNL(raw), Version)
		}
	} else if errors.Is(err, fs.ErrNotExist) {
		if err := writeFileAtomic(vpath, []byte(Version+"\n")); err != nil {
			return nil, fmt.Errorf("store: %w", err)
		}
	} else {
		return nil, fmt.Errorf("store: %w", err)
	}
	// Probe writability up front: a store that can read but not write
	// would silently degrade to read-only, so fail at open with a clear
	// error instead (the -store flag surfaces this verbatim).
	probe, err := os.CreateTemp(filepath.Join(dir, "objects"), ".probe-*")
	if err != nil {
		return nil, fmt.Errorf("store: %s is not writable: %w", dir, err)
	}
	probe.Close()
	os.Remove(probe.Name())

	capBytes := opts.CapBytes
	if capBytes == 0 {
		capBytes = DefaultCapBytes
	}
	s := &Store{
		dir:     dir,
		cap:     capBytes,
		entries: make(map[string]*list.Element),
		lru:     list.New(),

		hits:        opts.Reg.Counter("store.hits"),
		misses:      opts.Reg.Counter("store.misses"),
		writes:      opts.Reg.Counter("store.writes"),
		writeErrors: opts.Reg.Counter("store.write_errors"),
		evictions:   opts.Reg.Counter("store.evictions"),
		quarantined: opts.Reg.Counter("store.quarantined"),
		gBytes:      opts.Reg.Gauge("store.bytes"),
		gEntries:    opts.Reg.Gauge("store.entries"),
	}
	if err := s.scan(); err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.evictLocked()
	s.publishLocked()
	s.mu.Unlock()
	return s, nil
}

// Dir returns the store's root directory ("" for a nil store).
func (s *Store) Dir() string {
	if s == nil {
		return ""
	}
	return s.dir
}

// scan rebuilds the index from objects/, verifying each file and
// quarantining the ones that fail. Entries enter the LRU ordered by
// modification time (oldest = least recently used).
func (s *Store) scan() error {
	type seen struct {
		addr  string
		size  int64
		mtime int64
	}
	var found []seen
	root := filepath.Join(s.dir, "objects")
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		addr := filepath.Base(path)
		info, ierr := d.Info()
		if ierr != nil {
			return ierr
		}
		if !validAddr(addr) || !s.verify(path) {
			s.quarantine(path)
			return nil
		}
		found = append(found, seen{addr: addr, size: info.Size() - overhead, mtime: info.ModTime().UnixNano()})
		return nil
	})
	if err != nil {
		return fmt.Errorf("store: scanning %s: %w", root, err)
	}
	sort.Slice(found, func(i, j int) bool {
		if found[i].mtime != found[j].mtime {
			return found[i].mtime < found[j].mtime
		}
		return found[i].addr < found[j].addr
	})
	s.mu.Lock()
	for _, f := range found {
		el := s.lru.PushFront(&entry{addr: f.addr, size: f.size})
		s.entries[f.addr] = el
		s.bytes += f.size
	}
	s.mu.Unlock()
	return nil
}

// overhead is the fixed per-object framing: magic + two uint32 length
// prefixes + the trailing FNV-64a checksum. Entry "size" for the cap
// is payload only (key + value), so the cap semantics don't depend on
// framing details.
const overhead = int64(len(magic)) + 4 + 4 + 8

// addrOf returns the hex SHA-256 address of a key.
func addrOf(key []byte) string {
	sum := sha256.Sum256(key)
	return hex.EncodeToString(sum[:])
}

func validAddr(addr string) bool {
	if len(addr) != sha256.Size*2 {
		return false
	}
	_, err := hex.DecodeString(addr)
	return err == nil
}

func (s *Store) objPath(addr string) string {
	return filepath.Join(s.dir, "objects", addr[:2], addr)
}

// Get returns the value stored for key, or ok=false on a miss. A
// corrupt entry counts as a miss and is quarantined.
func (s *Store) Get(key []byte) ([]byte, bool) {
	if s == nil {
		return nil, false
	}
	addr := addrOf(key)
	s.mu.Lock()
	el, ok := s.entries[addr]
	if ok {
		s.lru.MoveToFront(el)
	}
	s.mu.Unlock()
	if !ok {
		s.misses.Add(1)
		return nil, false
	}
	path := s.objPath(addr)
	gotKey, val, err := readObject(path)
	if err != nil || string(gotKey) != string(key) {
		// Torn, corrupt, or (vanishingly unlikely) a SHA-256 collision:
		// drop it from the index and move the file aside.
		s.mu.Lock()
		if el, ok := s.entries[addr]; ok {
			s.bytes -= el.Value.(*entry).size
			s.lru.Remove(el)
			delete(s.entries, addr)
			s.publishLocked()
		}
		s.mu.Unlock()
		s.quarantine(path)
		s.misses.Add(1)
		return nil, false
	}
	s.hits.Add(1)
	return val, true
}

// Put stores val under key, replacing any previous value, and evicts
// least-recently-used entries if the cap is now exceeded. A failed
// write (a full disk, a read-only directory) only counts in
// store.write_errors: the store is a cache, and a lost entry only costs
// a future re-computation.
func (s *Store) Put(key, val []byte) {
	if s == nil {
		return
	}
	addr := addrOf(key)
	path := s.objPath(addr)
	err := os.MkdirAll(filepath.Dir(path), 0o755)
	if err == nil {
		err = writeFileAtomic(path, encodeObject(key, val))
	}
	if err != nil {
		s.writeErrors.Add(1)
		return
	}
	size := int64(len(key) + len(val))
	s.mu.Lock()
	if el, ok := s.entries[addr]; ok {
		s.bytes += size - el.Value.(*entry).size
		el.Value.(*entry).size = size
		s.lru.MoveToFront(el)
	} else {
		s.entries[addr] = s.lru.PushFront(&entry{addr: addr, size: size})
		s.bytes += size
	}
	s.evictLocked()
	s.publishLocked()
	s.mu.Unlock()
	s.writes.Add(1)
}

// evictLocked removes least-recently-used entries until the byte total
// is within the cap. Caller holds s.mu.
func (s *Store) evictLocked() {
	if s.cap < 0 {
		return
	}
	for s.bytes > s.cap && s.lru.Len() > 0 {
		el := s.lru.Back()
		e := el.Value.(*entry)
		s.lru.Remove(el)
		delete(s.entries, e.addr)
		s.bytes -= e.size
		os.Remove(s.objPath(e.addr))
		s.evictions.Add(1)
	}
}

func (s *Store) publishLocked() {
	s.gBytes.Set(s.bytes)
	s.gEntries.Set(int64(s.lru.Len()))
}

// Occupancy reports the store's current size for /healthz and
// /v1/capabilities.
type Occupancy struct {
	Dir      string `json:"dir"`
	Entries  int    `json:"entries"`
	Bytes    int64  `json:"bytes"`
	CapBytes int64  `json:"cap_bytes"`
}

// Occupancy returns the current entry/byte occupancy (zero value for a
// nil store).
func (s *Store) Occupancy() Occupancy {
	if s == nil {
		return Occupancy{}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return Occupancy{Dir: s.dir, Entries: s.lru.Len(), Bytes: s.bytes, CapBytes: s.cap}
}

// Len returns the number of indexed entries.
func (s *Store) Len() int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lru.Len()
}

// quarantine moves a bad object file into DIR/quarantine/ so it can be
// inspected instead of silently deleted. Failures fall back to Remove:
// a corrupt entry must not stay under objects/ either way.
func (s *Store) quarantine(path string) {
	qdir := filepath.Join(s.dir, "quarantine")
	if err := os.MkdirAll(qdir, 0o755); err == nil {
		if os.Rename(path, filepath.Join(qdir, filepath.Base(path))) == nil {
			s.quarantined.Add(1)
			return
		}
	}
	if os.Remove(path) == nil {
		s.quarantined.Add(1)
	}
}

// encodeObject frames one entry:
//
//	magic[8] | keyLen u32 | key | valLen u32 | val | fnv64a u64
//
// with the checksum taken over everything before it.
func encodeObject(key, val []byte) []byte {
	buf := make([]byte, 0, int(overhead)+len(key)+len(val))
	buf = append(buf, magic[:]...)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(key)))
	buf = append(buf, key...)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(val)))
	buf = append(buf, val...)
	h := fnv.New64a()
	h.Write(buf)
	return h.Sum(buf)
}

var errCorrupt = errors.New("store: corrupt object")

// decodeObject is the inverse of encodeObject; it returns errCorrupt
// on any framing or checksum mismatch.
func decodeObject(raw []byte) (key, val []byte, err error) {
	if int64(len(raw)) < overhead || string(raw[:len(magic)]) != string(magic[:]) {
		return nil, nil, errCorrupt
	}
	body, sum := raw[:len(raw)-8], binary.BigEndian.Uint64(raw[len(raw)-8:])
	h := fnv.New64a()
	h.Write(body)
	if h.Sum64() != sum {
		return nil, nil, errCorrupt
	}
	p := body[len(magic):]
	if len(p) < 4 {
		return nil, nil, errCorrupt
	}
	// Lengths compare in 64 bits: klen+4 wraps in 32 when a crafted
	// key length is within 4 of 2^32.
	klen := uint64(binary.BigEndian.Uint32(p))
	p = p[4:]
	if uint64(len(p)) < klen+4 {
		return nil, nil, errCorrupt
	}
	key, p = p[:klen], p[klen:]
	vlen := uint64(binary.BigEndian.Uint32(p))
	p = p[4:]
	if uint64(len(p)) != vlen {
		return nil, nil, errCorrupt
	}
	return key, p, nil
}

func readObject(path string) (key, val []byte, err error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	return decodeObject(raw)
}

// verify checks one object file without returning its contents.
func (s *Store) verify(path string) bool {
	_, _, err := readObject(path)
	return err == nil
}

// writeFileAtomic writes data via a temp file + rename in the target's
// directory, so readers never observe a partial file.
func writeFileAtomic(path string, data []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".tmp-*")
	if err != nil {
		return err
	}
	name := tmp.Name()
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(name)
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(name)
		return err
	}
	if err := os.Rename(name, path); err != nil {
		os.Remove(name)
		return err
	}
	return nil
}

func trimNL(b []byte) string {
	for len(b) > 0 && (b[len(b)-1] == '\n' || b[len(b)-1] == '\r') {
		b = b[:len(b)-1]
	}
	return string(b)
}
