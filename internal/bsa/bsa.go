// Package bsa is the registry of behavior-specialized accelerator
// models: the one place a BSA is given its canonical name, its
// single-letter design code (the paper's Figure 12 "S/D/N/T" letters)
// and its constructor. Every tool, the runner engine and the
// design-space exploration resolve BSA sets through a Registry instead
// of hard-coding the model list, so adding a sixth model is a one-line
// Register call — the sweep grid, flag validation, design codes and the
// daemon's capability listing all follow the registry size.
package bsa

import (
	"fmt"
	"sort"
	"strings"

	"exocore/internal/bsa/dpcgra"
	"exocore/internal/bsa/gsdae"
	"exocore/internal/bsa/nsdf"
	"exocore/internal/bsa/simd"
	"exocore/internal/bsa/tracep"
	"exocore/internal/tdg"
)

// Entry describes one registered BSA model.
type Entry struct {
	// Name is the canonical model name (eg. "SIMD", "GS-DAE"), the key
	// used in assignments, flags and request bodies.
	Name string
	// Letter is the single-letter design code used in design names like
	// "OOO2-SDN".
	Letter byte
	// New constructs a fresh model instance with default parameters.
	New func() tdg.BSA
}

// Registry is an ordered set of BSA entries. The registration order is
// canonical: it fixes letter order in design codes, bit positions in
// subset masks and the enumeration order of sweep grids. Registries are
// immutable after construction; Subset derives restricted views.
type Registry struct {
	entries []Entry
	byName  map[string]int
}

// NewRegistry builds a registry from entries, rejecting duplicate names
// or letters.
func NewRegistry(entries ...Entry) (*Registry, error) {
	r := &Registry{byName: make(map[string]int, len(entries))}
	letters := make(map[byte]string, len(entries))
	for _, e := range entries {
		if e.Name == "" || e.New == nil {
			return nil, fmt.Errorf("bsa: entry %+v missing name or constructor", e)
		}
		if _, dup := r.byName[e.Name]; dup {
			return nil, fmt.Errorf("bsa: duplicate BSA name %q", e.Name)
		}
		if prev, dup := letters[e.Letter]; dup {
			return nil, fmt.Errorf("bsa: letter %q of %q already used by %q", string(e.Letter), e.Name, prev)
		}
		r.byName[e.Name] = len(r.entries)
		letters[e.Letter] = e.Name
		r.entries = append(r.entries, e)
	}
	return r, nil
}

// defaultRegistry holds every built-in model in canonical order: the
// paper's four (S, D, N, T) followed by the graph-analytics
// gather-scatter engine (G).
var defaultRegistry = func() *Registry {
	r, err := NewRegistry(
		Entry{Name: "SIMD", Letter: 'S', New: func() tdg.BSA { return simd.New() }},
		Entry{Name: "DP-CGRA", Letter: 'D', New: func() tdg.BSA { return dpcgra.New() }},
		Entry{Name: "NS-DF", Letter: 'N', New: func() tdg.BSA { return nsdf.New() }},
		Entry{Name: "Trace-P", Letter: 'T', New: func() tdg.BSA { return tracep.New() }},
		Entry{Name: "GS-DAE", Letter: 'G', New: func() tdg.BSA { return gsdae.New() }},
	)
	if err != nil {
		panic(err)
	}
	return r
}()

// Default returns the registry of all built-in models.
func Default() *Registry { return defaultRegistry }

// Standard returns the registry restricted to the paper's original four
// BSAs (SIMD, DP-CGRA, NS-DF, Trace-P) — the subset every pre-existing
// golden, benchmark baseline and figure reproduction is defined over.
func Standard() *Registry {
	r, err := defaultRegistry.Subset([]string{"SIMD", "DP-CGRA", "NS-DF", "Trace-P"})
	if err != nil {
		panic(err)
	}
	return r
}

// Len returns the number of registered models.
func (r *Registry) Len() int { return len(r.entries) }

// Entries returns the entries in canonical order (a copy).
func (r *Registry) Entries() []Entry { return append([]Entry(nil), r.entries...) }

// Names returns the model names in canonical order.
func (r *Registry) Names() []string {
	out := make([]string, len(r.entries))
	for i, e := range r.entries {
		out[i] = e.Name
	}
	return out
}

// Has reports whether a name is registered.
func (r *Registry) Has(name string) bool {
	_, ok := r.byName[name]
	return ok
}

// Check returns nil if name is registered, else the did-you-mean error
// listing the allowed names.
func (r *Registry) Check(name string) error {
	if r.Has(name) {
		return nil
	}
	return r.unknown(name)
}

// New instantiates a fresh model for every entry.
func (r *Registry) New() map[string]tdg.BSA {
	out := make(map[string]tdg.BSA, len(r.entries))
	for _, e := range r.entries {
		out[e.Name] = e.New()
	}
	return out
}

// NewOne instantiates the named model.
func (r *Registry) NewOne(name string) (tdg.BSA, error) {
	i, ok := r.byName[name]
	if !ok {
		return nil, r.unknown(name)
	}
	return r.entries[i].New(), nil
}

// Subset returns the registry restricted to the given names (canonical
// order is preserved regardless of the argument order). Unknown names
// error with the allowed list.
func (r *Registry) Subset(names []string) (*Registry, error) {
	want := make(map[string]bool, len(names))
	for _, n := range names {
		if !r.Has(n) {
			return nil, r.unknown(n)
		}
		want[n] = true
	}
	sub := &Registry{byName: make(map[string]int, len(want))}
	for _, e := range r.entries {
		if want[e.Name] {
			sub.byName[e.Name] = len(sub.entries)
			sub.entries = append(sub.entries, e)
		}
	}
	return sub, nil
}

// unknown builds the did-you-mean error for an unregistered name.
func (r *Registry) unknown(name string) error {
	msg := fmt.Sprintf("bsa: unknown BSA %q (have %s)", name, strings.Join(r.Names(), ", "))
	if near := nearest(name, r.Names()); near != "" {
		msg += fmt.Sprintf(" — did you mean %q?", near)
	}
	return fmt.Errorf("%s", msg)
}

// SubsetName renders a bitmask (bit i = entry i) as the letter code,
// eg. "SDN"; the empty subset renders as "".
func (r *Registry) SubsetName(mask int) string {
	var sb strings.Builder
	for i, e := range r.entries {
		if mask&(1<<i) != 0 {
			sb.WriteByte(e.Letter)
		}
	}
	return sb.String()
}

// SubsetNames returns the model names selected by a bitmask.
func (r *Registry) SubsetNames(mask int) []string {
	var out []string
	for i, e := range r.entries {
		if mask&(1<<i) != 0 {
			out = append(out, e.Name)
		}
	}
	return out
}

// DesignCode renders (core name, BSA name list) as the canonical design
// code, eg. "OOO2-SDN" — letters in registry order regardless of the
// argument order; a bare core name for the empty set. Unregistered names
// are ignored.
func (r *Registry) DesignCode(core string, names []string) string {
	var suffix []byte
	for _, e := range r.entries {
		for _, have := range names {
			if have == e.Name {
				suffix = append(suffix, e.Letter)
				break
			}
		}
	}
	if len(suffix) == 0 {
		return core
	}
	return core + "-" + string(suffix)
}

// Mask returns the bitmask selecting the given names.
func (r *Registry) Mask(names []string) (int, error) {
	mask := 0
	for _, n := range names {
		i, ok := r.byName[n]
		if !ok {
			return 0, r.unknown(n)
		}
		mask |= 1 << i
	}
	return mask, nil
}

// ParseLetters inverts SubsetName: "SDN" → mask. Unknown letters error.
func (r *Registry) ParseLetters(letters string) (int, error) {
	mask := 0
	for i := 0; i < len(letters); i++ {
		found := false
		for bi, e := range r.entries {
			if e.Letter == letters[i] {
				mask |= 1 << bi
				found = true
			}
		}
		if !found {
			return 0, fmt.Errorf("bsa: unknown BSA letter %q (have %s)", string(letters[i]), r.lettersString())
		}
	}
	return mask, nil
}

func (r *Registry) lettersString() string {
	var sb strings.Builder
	for _, e := range r.entries {
		sb.WriteByte(e.Letter)
	}
	return sb.String()
}

// Nearest returns the candidate closest to name by case-insensitive
// edit distance, or "" when nothing is plausibly close. Exported so
// other flag surfaces (eg. internal/cli's enum validation) produce the
// same did-you-mean hints this registry does.
func Nearest(name string, candidates []string) string {
	return nearest(name, candidates)
}

// nearest returns the candidate with the smallest edit distance to name
// under a conservative threshold, or "" — the shared did-you-mean
// helper (case-insensitive, so "simd" suggests "SIMD").
func nearest(name string, candidates []string) string {
	sorted := append([]string(nil), candidates...)
	sort.Strings(sorted)
	best, bestDist := "", 3 // suggest only within edit distance 2
	for _, c := range sorted {
		if d := editDistance(strings.ToLower(name), strings.ToLower(c)); d < bestDist {
			best, bestDist = c, d
		}
	}
	return best
}

// editDistance is the Levenshtein distance between two strings.
func editDistance(a, b string) int {
	if len(a) == 0 {
		return len(b)
	}
	prev := make([]int, len(b)+1)
	cur := make([]int, len(b)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(a); i++ {
		cur[0] = i
		for j := 1; j <= len(b); j++ {
			cost := 1
			if a[i-1] == b[j-1] {
				cost = 0
			}
			cur[j] = min(prev[j]+1, min(cur[j-1]+1, prev[j-1]+cost))
		}
		prev, cur = cur, prev
	}
	return prev[len(b)]
}
