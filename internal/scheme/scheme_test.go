package scheme

import (
	"strings"
	"testing"

	"pcmcomp/internal/block"
	"pcmcomp/internal/ecc"
	"pcmcomp/internal/pcm"
)

func testMem() pcm.Config {
	return pcm.Config{
		Geometry: pcm.Geometry{
			Channels: 1, DIMMsPerChannel: 1, RanksPerDIMM: 1,
			BanksPerRank: 1, LinesPerBank: 4,
		},
		Endurance: pcm.Endurance{Mean: 1000, CoV: 0.1},
		Seed:      1,
	}
}

func TestParsePresets(t *testing.T) {
	cases := map[string]string{
		"baseline": "baseline",
		"comp":     "comp",
		"comp+w":   "comp+w",
		"compw":    "comp+w",
		"comp+wf":  "comp+wf",
		"compwf":   "comp+wf",
		"Baseline": "baseline", // case-insensitive
	}
	for in, want := range cases {
		sp, err := Parse(in)
		if err != nil {
			t.Fatalf("Parse(%q): %v", in, err)
		}
		if got := sp.String(); got != want {
			t.Errorf("Parse(%q).String() = %q, want %q", in, got, want)
		}
	}
}

func TestParseCanonicalization(t *testing.T) {
	cases := map[string]string{
		// explicit spelling of a preset collapses to the preset name
		"comp=none,ecc=ecp6,enc=none,wl=startgap": "baseline",
		"ecc=ecp6,comp=bdi+fpc":                   "comp",
		"wl=intraline+startgap,res=on":            "comp+wf",
		// registry ordering of "+"-lists
		"comp=fpc+bdi,enc=coset4": "comp=bdi+fpc,ecc=ecp6,enc=coset4,wl=startgap",
		// defaults fill omitted keys
		"enc=wire":            "comp=bdi+fpc,ecc=ecp6,enc=wire,wl=startgap",
		"ecc=safer":           "comp=bdi+fpc,ecc=safer,enc=none,wl=startgap",
		"comp=fvc,wl=none":    "comp=fvc,ecc=ecp6,enc=none,wl=none",
		"comp=bdi,res=off":    "comp=bdi,ecc=ecp6,enc=none,wl=startgap",
		" enc=fnw , ecc=ecp6": "comp=bdi+fpc,ecc=ecp6,enc=fnw,wl=startgap",
	}
	for in, want := range cases {
		sp, err := Parse(in)
		if err != nil {
			t.Fatalf("Parse(%q): %v", in, err)
		}
		if got := sp.String(); got != want {
			t.Errorf("Parse(%q).String() = %q, want %q", in, got, want)
		}
		// Canonical strings are a fixed point.
		again, err := Parse(sp.String())
		if err != nil {
			t.Fatalf("re-Parse(%q): %v", sp.String(), err)
		}
		if again.String() != sp.String() {
			t.Errorf("Parse(%q) is not a fixed point: %q", sp.String(), again.String())
		}
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct{ in, wantSub string }{
		{"", "empty"},
		{"bogus", "not a preset"},
		{"comp=zip", "unknown codec"},
		{"comp=bdi+bdi", "duplicate codec"},
		{"comp=none+bdi", "unknown codec"},
		{"ecc=ecp7", "unknown ecc scheme"},
		{"enc=coset3", "unknown encoder"},
		{"wl=rotate", "unknown wear policy"},
		{"res=maybe", "res must be on or off"},
		{"foo=bar", "unknown key"},
		{"ecc=ecp6,ecc=safer", "duplicate key"},
	}
	for _, c := range cases {
		_, err := Parse(c.in)
		if err == nil {
			t.Errorf("Parse(%q) accepted invalid spec", c.in)
			continue
		}
		if !strings.Contains(err.Error(), c.wantSub) {
			t.Errorf("Parse(%q) error %q does not mention %q", c.in, err, c.wantSub)
		}
	}
	// Unknown-name errors list the valid set, mirroring config.ByName.
	_, err := Parse("ecc=bogus")
	if err == nil || !strings.Contains(err.Error(), "ecp6, secded, safer, aegis") {
		t.Errorf("ecc error should list valid names, got %v", err)
	}
}

func TestControllerConfigComposition(t *testing.T) {
	sp, err := Parse("comp=bdi,ecc=safer,enc=coset4,wl=intraline,res=on")
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := sp.ControllerConfig(testMem())
	if err != nil {
		t.Fatal(err)
	}
	if cfg.System != 0 {
		t.Errorf("System = %v, want 0 (composed specs run on the capability path)", cfg.System)
	}
	if cfg.Label != sp.String() {
		t.Errorf("Label = %q, want %q", cfg.Label, sp.String())
	}
	if !cfg.UseCompression || cfg.DisableBDI || !cfg.DisableFPC {
		t.Errorf("codec flags wrong: UseCompression=%v DisableBDI=%v DisableFPC=%v",
			cfg.UseCompression, cfg.DisableBDI, cfg.DisableFPC)
	}
	if got := cfg.Scheme.Name(); !strings.Contains(got, "SAFER") {
		t.Errorf("Scheme = %q, want SAFER", got)
	}
	if cfg.Encoder == nil || cfg.Encoder.Name() != "coset4" {
		t.Errorf("Encoder = %v, want coset4", cfg.Encoder)
	}
	if cfg.UseStartGap || !cfg.UseIntraWL || !cfg.Resurrect {
		t.Errorf("wear flags wrong: UseStartGap=%v UseIntraWL=%v Resurrect=%v",
			cfg.UseStartGap, cfg.UseIntraWL, cfg.Resurrect)
	}
}

func TestControllerConfigAllRegistered(t *testing.T) {
	// Every registered name must resolve: eccs and encoders one by one,
	// codecs and wear policies composed.
	for _, e := range ECCs() {
		sp, err := Parse("ecc=" + e.Name)
		if err != nil {
			t.Fatalf("ecc %s: %v", e.Name, err)
		}
		if _, err := sp.ControllerConfig(testMem()); err != nil {
			t.Errorf("ecc %s: %v", e.Name, err)
		}
	}
	for _, e := range Encoders() {
		sp, err := Parse("enc=" + e.Name)
		if err != nil {
			t.Fatalf("enc %s: %v", e.Name, err)
		}
		if _, err := sp.ControllerConfig(testMem()); err != nil {
			t.Errorf("enc %s: %v", e.Name, err)
		}
	}
	for _, e := range Codecs() {
		sp, err := Parse("comp=" + e.Name)
		if err != nil {
			t.Fatalf("comp %s: %v", e.Name, err)
		}
		if _, err := sp.ControllerConfig(testMem()); err != nil {
			t.Errorf("comp %s: %v", e.Name, err)
		}
	}
	for _, e := range WearPolicies() {
		sp, err := Parse("wl=" + e.Name)
		if err != nil {
			t.Fatalf("wl %s: %v", e.Name, err)
		}
		if _, err := sp.ControllerConfig(testMem()); err != nil {
			t.Errorf("wl %s: %v", e.Name, err)
		}
	}
}

func TestPresetSpecsParse(t *testing.T) {
	for _, p := range Presets() {
		sp, err := Parse(p.Spec)
		if err != nil {
			t.Fatalf("preset %s spec %q: %v", p.Name, p.Spec, err)
		}
		if sp.String() != p.Name {
			t.Errorf("preset %s spec canonicalizes to %q, want the preset name", p.Name, sp.String())
		}
	}
}

func TestDefault(t *testing.T) {
	if got := Default().String(); got != "comp" {
		t.Errorf("Default() = %q, want comp", got)
	}
}

// TestECCByName covers the one name-to-scheme lookup: registry names and
// the "ecp" alias, in any case, each building the paper's scheme; the
// spec grammar itself keeps rejecting the alias.
func TestECCByName(t *testing.T) {
	for name, want := range map[string]struct{ entry, full string }{
		"ecp":    {"ecp6", "ECP-6"},
		"ECP6":   {"ecp6", "ECP-6"},
		"safer":  {"safer", "SAFER-32"},
		"SAFER":  {"safer", "SAFER-32"},
		"aegis":  {"aegis", "Aegis-17x31"},
		"secded": {"secded", "SECDED-72/64"},
	} {
		e, s, err := ECCByName(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if e.Name != want.entry || e.Description == "" || s.Name() != want.full {
			t.Errorf("%s -> %+v %s, want entry %s building %s", name, e, s.Name(), want.entry, want.full)
		}
	}
	_, _, err := ECCByName("bogus")
	if err == nil || !strings.Contains(err.Error(), "ecp6, secded, safer, aegis, or ecp") {
		t.Errorf("unknown ecc error should list valid names, got %v", err)
	}
	if _, err := Parse("ecc=ecp"); err == nil {
		t.Error(`Parse("ecc=ecp") accepted the CLI alias into the spec grammar`)
	}
}

// TestEmptyFaultSetAlwaysCorrectable pins the precondition two write-path
// shortcuts rest on: core's place accepts any origin of a fault-free line
// without asking the scheme, and its write-verify skips the check when a
// write killed no cell. Both hold only if every registered scheme corrects
// every window of a line without faults.
func TestEmptyFaultSetAlwaysCorrectable(t *testing.T) {
	var none ecc.FaultSet
	for _, e := range ECCs() {
		_, s, err := ECCByName(e.Name)
		if err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		for origin := 0; origin < block.Size; origin++ {
			for size := 1; size <= block.Size; size++ {
				if !s.Correctable(&none, origin, size) {
					t.Fatalf("%s: empty fault set uncorrectable at origin %d size %d", e.Name, origin, size)
				}
			}
		}
	}
}

// TestPresetByName covers the system-name lookup: canonical names, case,
// the "+"-less aliases, and an error listing the valid names.
func TestPresetByName(t *testing.T) {
	for name, want := range map[string]string{
		"baseline": "baseline", "Comp": "comp", "comp+w": "comp+w",
		"compw": "comp+w", "comp+wf": "comp+wf", "COMPWF": "comp+wf",
	} {
		p, err := PresetByName(name)
		if err != nil || p.Name != want {
			t.Errorf("%s -> %+v, %v; want %s", name, p, err, want)
		}
	}
	_, err := PresetByName("bogus")
	if err == nil || !strings.Contains(err.Error(), "baseline, comp, comp+w, comp+wf") {
		t.Errorf("unknown system error should list valid names, got %v", err)
	}
}
