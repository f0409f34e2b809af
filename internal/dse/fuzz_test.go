package dse

import (
	"testing"

	"exocore/internal/bsa"
)

// FuzzParseDesignCode: no design code may panic the parser, and an
// accepted one names a core and a subset whose canonical code parses back
// to the same design and renders to itself.
func FuzzParseDesignCode(f *testing.F) {
	for _, s := range []string{"OOO2", "OOO2-SDN", "IO2-NDS", "OOO6-SDNTG", "OOO4-", "OOO4--S", "ooo2", "OOO2-Q", "-S", ""} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, code string) {
		for _, reg := range []*bsa.Registry{bsa.Default(), bsa.Standard()} {
			core, mask, err := ParseDesignCodeIn(reg, code)
			if err != nil {
				continue
			}
			canon := DesignCodeIn(reg, core, mask)
			core2, mask2, err := ParseDesignCodeIn(reg, canon)
			if err != nil || core2 != core || mask2 != mask {
				t.Fatalf("%q: canonical %q parses to %s/%b (%v), want %s/%b", code, canon, core2.Name, mask2, err, core.Name, mask)
			}
			if again := DesignCodeIn(reg, core2, mask2); again != canon {
				t.Fatalf("%q: canonical code %q renders as %q", code, canon, again)
			}
		}
	})
}
