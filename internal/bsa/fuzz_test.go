package bsa

import "testing"

// FuzzParseLetters: no letter string may panic the parser, and an
// accepted one selects only registered models and round-trips through
// SubsetName, against the full and a restricted registry alike.
func FuzzParseLetters(f *testing.F) {
	for _, s := range []string{"", "S", "SDN", "NDS", "SS", "SDNTG", "X", "s", "S-D", "\x00", "ÿ"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, letters string) {
		for _, reg := range []*Registry{Default(), Standard()} {
			mask, err := reg.ParseLetters(letters)
			if err != nil {
				continue
			}
			if mask < 0 || mask >= 1<<reg.Len() {
				t.Fatalf("%q: mask %b outside %d models", letters, mask, reg.Len())
			}
			name := reg.SubsetName(mask)
			if back, err := reg.ParseLetters(name); err != nil || back != mask {
				t.Fatalf("%q: mask %b renders %q, which parses to %b (%v)", letters, mask, name, back, err)
			}
		}
	})
}
