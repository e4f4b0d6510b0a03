package tenant

import (
	"math"
	"strings"
	"testing"
)

// FuzzParseSpecs feeds ParseSpecs arbitrary inline -api-keys values. It
// must never panic, and every tenant it accepts must be usable as parsed:
// a trimmed, non-empty name and key free of the separators, a weight of
// at least 1, and, when limited, a bucket with a finite positive rate and
// burst.
func FuzzParseSpecs(f *testing.F) {
	for _, s := range []string{
		"alice:ka", "alice:ka:5, bob:kb:1:2:2 ,", "alice:k:0::5", " a : k ",
		"a:k:-1", "a:k:1:1:0", "a:b:1:1:1:extra", ",,", ":k", "a:",
		"a:k:NaN", "a:k:1:NaN", "a:k:+Inf", "a:k:1e308:1e308:9223372036854775807",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, specs string) {
		ts, err := ParseSpecs(specs)
		if err != nil {
			return
		}
		for _, tn := range ts {
			for _, field := range []string{tn.Name, tn.Key} {
				if field == "" || field != strings.TrimSpace(field) || strings.ContainsAny(field, ":,") {
					t.Fatalf("ParseSpecs(%q): bad name or key %q", specs, field)
				}
			}
			if tn.Weight < 1 {
				t.Fatalf("ParseSpecs(%q): tenant %s has weight %d", specs, tn.Name, tn.Weight)
			}
			if b := tn.bucket; b != nil {
				for _, v := range []float64{b.rate, b.burst} {
					if !(v > 0) || math.IsInf(v, 0) {
						t.Fatalf("ParseSpecs(%q): tenant %s has bucket rate %v, burst %v", specs, tn.Name, b.rate, b.burst)
					}
				}
			}
		}
	})
}
