package scheme

import "testing"

// FuzzParse feeds Parse arbitrary spec strings, the form the CLIs and the
// HTTP API accept from outside. It must never panic, and any spec it
// accepts must render to a canonical String that parses back to the same
// composition.
func FuzzParse(f *testing.F) {
	for _, p := range Presets() {
		f.Add(p.Name)
		f.Add(p.Spec)
	}
	for _, s := range []string{
		"", "compwf", " Comp+W ", "comp=fpc+bdi", "comp=none,wl=none",
		"ecc=aegis,res=on", "comp=bdi+bdi", "comp=none+bdi", "res=maybe",
		"ecc=ecp6,ecc=ecp6", "wl=intraline+startgap, enc=coset4", "=,=", "comp",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		sp, err := Parse(s)
		if err != nil {
			return
		}
		canon := sp.String()
		again, err := Parse(canon)
		if err != nil {
			t.Fatalf("Parse(%q) = %q, which does not parse: %v", s, canon, err)
		}
		if got := again.String(); got != canon {
			t.Fatalf("Parse(%q) = %q, which re-parses to %q", s, canon, got)
		}
	})
}
