// Package sim is the functional front-end of the framework: it executes a
// static program on an architectural register file and a paged memory,
// emitting the dynamic trace the TDG is built from. It plays the role of
// gem5 in the paper's toolchain (Figure 2), minus timing — timing comes
// from the dependence-graph models.
package sim

import "math"

const (
	pageShift = 12 // 4 KiB pages
	pageWords = 1 << (pageShift - 3)
	pageMask  = pageWords - 1
)

type page [pageWords]uint64

// Memory is a sparse, word-granular (8-byte) memory. Addresses are byte
// addresses; accesses are aligned to 8 bytes (the functional model masks
// low bits). The zero value is ready to use.
type Memory struct {
	pages map[uint64]*page
}

// NewMemory returns an empty memory.
func NewMemory() *Memory { return &Memory{pages: make(map[uint64]*page)} }

func (m *Memory) pageFor(addr uint64, create bool) *page {
	key := addr >> pageShift
	p := m.pages[key]
	if p == nil && create {
		p = new(page)
		m.pages[key] = p
	}
	return p
}

// LoadInt returns the 64-bit word at addr.
func (m *Memory) LoadInt(addr uint64) int64 {
	p := m.pageFor(addr, false)
	if p == nil {
		return 0
	}
	return int64(p[(addr>>3)&pageMask])
}

// StoreInt writes a 64-bit word at addr.
func (m *Memory) StoreInt(addr uint64, v int64) {
	p := m.pageFor(addr, true)
	p[(addr>>3)&pageMask] = uint64(v)
}

// LoadFloat returns the float64 at addr.
func (m *Memory) LoadFloat(addr uint64) float64 {
	return math.Float64frombits(uint64(m.LoadInt(addr)))
}

// StoreFloat writes a float64 at addr.
func (m *Memory) StoreFloat(addr uint64, v float64) {
	m.StoreInt(addr, int64(math.Float64bits(v)))
}
