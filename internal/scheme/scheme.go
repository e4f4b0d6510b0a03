// Package scheme is the pluggable composition registry for PCM memory
// systems: compression codecs, hard-error schemes, write encoders, and
// wear-leveling policies registered by name and composed from a spec
// string into a core.Config.
//
// # Spec grammar
//
// A spec is either a preset name (baseline, comp, comp+w, comp+wf — the
// paper's four evaluated systems) or a comma-separated list of key=value
// assignments:
//
//	comp=bdi+fpc,ecc=ecp6,enc=coset4,wl=startgap
//
// Keys (each optional; defaults in parentheses):
//
//	comp  compression codec race, "+"-composed, or none  (bdi+fpc)
//	ecc   hard-error tolerance scheme                    (ecp6)
//	enc   write-encoder stage                            (none)
//	wl    wear-leveling policies, "+"-composed, or none  (startgap)
//	res   dead-line resurrection, on or off              (off)
//
// Parsing canonicalizes: registry order within "+"-lists, fixed key order
// in String(), and a composed spec that equals a preset collapses to the
// preset's name — so spec strings are stable cache-key and metric-label
// material. The four presets resolve to configurations byte-identical to
// the pre-registry core.SystemKind path (pinned by the golden equivalence
// test in this package).
package scheme

import (
	"fmt"
	"sort"
	"strings"
)

// Entry is one registered component: a name plus a one-line description,
// served by GET /v1/schemes for discoverability.
type Entry struct {
	Name        string `json:"name"`
	Description string `json:"description"`
}

// Codecs lists the registered compression codecs, in canonical order.
func Codecs() []Entry {
	return []Entry{
		{"none", "uncompressed storage (the Baseline configuration)"},
		{"bdi", "base-delta-immediate compression"},
		{"fpc", "frequent-pattern compression"},
		{"fvc", "frequent-value compression over a fixed 8-entry dictionary"},
	}
}

// ECCs lists the registered hard-error tolerance schemes.
func ECCs() []Entry {
	return []Entry{
		{"ecp6", "error-correcting pointers, 6 per 512-bit line (paper baseline)"},
		{"secded", "(72,64) Hsiao code the paper argues against (§II-C)"},
		{"safer", "SAFER-32: dynamic partitioning into 32 groups with inversion"},
		{"aegis", "Aegis-17x31: grid-based group formation"},
	}
}

// Encoders lists the registered write-encoder stages.
func Encoders() []Entry {
	return []Entry{
		{"none", "plain differential writes"},
		{"fnw", "Flip-N-Write at window granularity (one flip bit per window)"},
		{"coset2", "restricted coset coding, 2 masks per 32-bit word (1 aux bit)"},
		{"coset4", "restricted coset coding, 4 masks per 32-bit word (2 aux bits)"},
		{"coset8", "restricted coset coding, 8 masks per 32-bit word (3 aux bits)"},
		{"wire", "WIRE energy-minimizing complement coding per 16-bit word (1 aux bit)"},
	}
}

// WearPolicies lists the registered wear-leveling policies.
func WearPolicies() []Entry {
	return []Entry{
		{"none", "no wear leveling (identity line mapping, fixed window origin)"},
		{"startgap", "Start-Gap inter-line rotation (Qureshi et al.)"},
		{"intraline", "counter-based intra-line window-origin rotation (§III-A.2)"},
	}
}

// Preset is one named canonical composition.
type Preset struct {
	Name        string `json:"name"`
	Spec        string `json:"spec"`
	Description string `json:"description"`
}

// Presets lists the paper's four evaluated systems as registry specs, in
// the paper's order.
func Presets() []Preset {
	return []Preset{
		{"baseline", "comp=none,ecc=ecp6,enc=none,wl=startgap",
			"uncompressed + differential writes + Start-Gap + ECP-6 (§IV)"},
		{"comp", "comp=bdi+fpc,ecc=ecp6,enc=none,wl=startgap",
			"naive compression: window at the least-significant bytes"},
		{"comp+w", "comp=bdi+fpc,ecc=ecp6,enc=none,wl=startgap+intraline",
			"compression + counter-based intra-line wear leveling"},
		{"comp+wf", "comp=bdi+fpc,ecc=ecp6,enc=none,wl=startgap+intraline,res=on",
			"Comp+W + advanced fault tolerance: dead-line resurrection"},
	}
}

// names flattens a registry to its name set.
func names(entries []Entry) []string {
	out := make([]string, len(entries))
	for i, e := range entries {
		out[i] = e.Name
	}
	return out
}

// Spec is a parsed, validated composition. The zero value is not valid;
// build with Parse or Default.
type Spec struct {
	// Comp is the codec race, in registry order; empty means uncompressed.
	Comp []string
	// ECC names the hard-error scheme.
	ECC string
	// Enc names the write-encoder stage ("none" for plain DW).
	Enc string
	// WL lists the wear-leveling policies, in registry order.
	WL []string
	// Res enables dead-line resurrection on wear-leveling copies.
	Res bool
}

// Default returns the default composition (the Comp preset).
func Default() Spec {
	sp, _ := Parse("comp")
	return sp
}

// PresetByName resolves a system name to its preset, in any case and with
// the "+"-less aliases compw and compwf that the CLI and API accept. An
// unknown name reports the valid set.
func PresetByName(name string) (Preset, error) {
	key := strings.ToLower(strings.TrimSpace(name))
	switch key {
	case "compw":
		key = "comp+w"
	case "compwf":
		key = "comp+wf"
	}
	presets := Presets()
	for _, p := range presets {
		if p.Name == key {
			return p, nil
		}
	}
	valid := make([]string, len(presets))
	for i, p := range presets {
		valid[i] = p.Name
	}
	return Preset{}, fmt.Errorf("scheme: unknown system %q (want %s)", name, strings.Join(valid, ", "))
}

// Parse parses a spec string — a preset name or a key=value list — and
// validates every component against the registries. Unknown names report
// the valid set.
func Parse(s string) (Spec, error) {
	in := strings.ToLower(strings.TrimSpace(s))
	if in == "" {
		return Spec{}, fmt.Errorf("empty scheme spec")
	}
	if p, err := PresetByName(in); err == nil {
		return Parse(p.Spec)
	}

	// Defaults: the Comp preset's composition.
	sp := Spec{Comp: []string{"bdi", "fpc"}, ECC: "ecp6", Enc: "none", WL: []string{"startgap"}}
	seen := map[string]bool{}
	for _, kv := range strings.Split(in, ",") {
		kv = strings.TrimSpace(kv)
		key, val, ok := strings.Cut(kv, "=")
		if !ok {
			return Spec{}, fmt.Errorf("scheme: %q is not a preset or key=value assignment (presets: baseline, comp, comp+w, comp+wf; keys: comp, ecc, enc, wl, res)", kv)
		}
		key, val = strings.TrimSpace(key), strings.TrimSpace(val)
		if seen[key] {
			return Spec{}, fmt.Errorf("scheme: duplicate key %q", key)
		}
		seen[key] = true
		var err error
		switch key {
		case "comp":
			sp.Comp, err = parseList(val, Codecs(), "codec")
		case "ecc":
			err = mustName(val, ECCs(), "ecc scheme")
			sp.ECC = val
		case "enc":
			err = mustName(val, Encoders(), "encoder")
			sp.Enc = val
		case "wl":
			sp.WL, err = parseList(val, WearPolicies(), "wear policy")
		case "res":
			switch val {
			case "on":
				sp.Res = true
			case "off":
				sp.Res = false
			default:
				err = fmt.Errorf("scheme: res must be on or off, got %q", val)
			}
		default:
			err = fmt.Errorf("scheme: unknown key %q (want comp, ecc, enc, wl, or res)", key)
		}
		if err != nil {
			return Spec{}, err
		}
	}
	return sp, nil
}

// parseList parses a "+"-composed name list against a registry whose first
// entry is the "none" sentinel; it returns nil for "none" and the selected
// names in registry order otherwise.
func parseList(val string, reg []Entry, what string) ([]string, error) {
	if val == "none" {
		return nil, nil
	}
	want := map[string]int{}
	for i, e := range reg {
		want[e.Name] = i
	}
	parts := strings.Split(val, "+")
	idx := make([]int, 0, len(parts))
	for _, p := range parts {
		p = strings.TrimSpace(p)
		i, ok := want[p]
		if !ok || p == "none" {
			return nil, fmt.Errorf("scheme: unknown %s %q (want %s)", what, p, strings.Join(names(reg), ", "))
		}
		for _, seen := range idx {
			if seen == i {
				return nil, fmt.Errorf("scheme: duplicate %s %q", what, p)
			}
		}
		idx = append(idx, i)
	}
	sort.Ints(idx)
	out := make([]string, len(idx))
	for k, i := range idx {
		out[k] = reg[i].Name
	}
	return out, nil
}

// mustName validates a single name against a registry.
func mustName(val string, reg []Entry, what string) error {
	if _, ok := lookup(reg, val); ok {
		return nil
	}
	return fmt.Errorf("scheme: unknown %s %q (want %s)", what, val, strings.Join(names(reg), ", "))
}

// lookup finds a name's entry in a registry.
func lookup(reg []Entry, name string) (Entry, bool) {
	for _, e := range reg {
		if e.Name == name {
			return e, true
		}
	}
	return Entry{}, false
}

// String renders the canonical spec: fixed key order, registry-ordered
// lists, res only when on — collapsed to the preset name when the
// composition is one of the paper's four systems.
func (sp Spec) String() string {
	var b strings.Builder
	b.WriteString("comp=")
	b.WriteString(joinOrNone(sp.Comp))
	b.WriteString(",ecc=")
	b.WriteString(sp.ECC)
	b.WriteString(",enc=")
	b.WriteString(sp.Enc)
	b.WriteString(",wl=")
	b.WriteString(joinOrNone(sp.WL))
	if sp.Res {
		b.WriteString(",res=on")
	}
	s := b.String()
	for _, p := range Presets() {
		if s == p.Spec {
			return p.Name
		}
	}
	return s
}

func joinOrNone(list []string) string {
	if len(list) == 0 {
		return "none"
	}
	return strings.Join(list, "+")
}

func (sp Spec) has(list []string, name string) bool {
	for _, n := range list {
		if n == name {
			return true
		}
	}
	return false
}
