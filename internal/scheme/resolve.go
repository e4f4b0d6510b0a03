package scheme

import (
	"fmt"
	"strconv"
	"strings"

	"pcmcomp/internal/compress/fvc"
	"pcmcomp/internal/core"
	"pcmcomp/internal/ecc"
	"pcmcomp/internal/ecc/aegis"
	"pcmcomp/internal/ecc/ecp"
	"pcmcomp/internal/ecc/safer"
	"pcmcomp/internal/ecc/secded"
	"pcmcomp/internal/encode"
	"pcmcomp/internal/pcm"
)

// defaultFVCValues is the fixed dictionary behind the "fvc" codec: the
// most frequent 32-bit words of integer-dominated workloads (zero, small
// immediates, sign extensions) — an 8-entry dictionary, so hits cost
// 1 flag + 3 index bits per word.
var defaultFVCValues = []uint32{
	0x00000000, 0xFFFFFFFF, 0x00000001, 0x80000000,
	0x7FFFFFFF, 0x00000002, 0x0000FFFF, 0xFFFF0000,
}

// ECCByName resolves a hard-error scheme name and builds a fresh scheme.
// It accepts the registered names and "ecp", the Fig 9 and CLI spelling
// of ecp6, in any case, and returns the registry entry alongside the
// scheme. An unknown name reports the valid set. It is the only place a
// name becomes an ecc.Scheme.
func ECCByName(name string) (Entry, ecc.Scheme, error) {
	key := strings.ToLower(name)
	if key == "ecp" {
		key = "ecp6"
	}
	var s ecc.Scheme
	var err error
	switch key {
	case "ecp6":
		s = ecp.New(6)
	case "secded":
		s = secded.Scheme{}
	case "safer":
		s = safer.New(5)
	case "aegis":
		s, err = aegis.New(17, 31)
	default:
		return Entry{}, nil, fmt.Errorf("scheme: unknown ecc scheme %q (want %s, or ecp for ecp6)", name, strings.Join(names(ECCs()), ", "))
	}
	e, _ := lookup(ECCs(), key)
	return e, s, err
}

// ControllerConfig resolves the spec into a controller configuration on
// the given substrate: the paper's default thresholds and wear-leveling
// parameters (core.DefaultConfig), with the spec's components composed as
// capability flags. The config's Label is the canonical spec string, and
// System stays zero — the controller runs on the capability path even for
// the four presets (their equivalence to the SystemKind path is pinned by
// this package's golden test).
func (sp Spec) ControllerConfig(mem pcm.Config) (core.Config, error) {
	cfg := core.DefaultConfig(0, mem)
	cfg.System = 0
	cfg.Label = sp.String()

	cfg.UseCompression = len(sp.Comp) > 0
	cfg.DisableBDI = !sp.has(sp.Comp, "bdi")
	cfg.DisableFPC = !sp.has(sp.Comp, "fpc")
	if sp.has(sp.Comp, "fvc") {
		dict, err := fvc.NewDict(defaultFVCValues)
		if err != nil {
			return core.Config{}, err
		}
		cfg.FVC = dict
	}

	_, scheme, err := ECCByName(sp.ECC)
	if err != nil {
		return core.Config{}, err
	}
	cfg.Scheme = scheme

	switch {
	case sp.Enc == "" || sp.Enc == "none":
	case sp.Enc == "fnw":
		cfg.UseFNW = true
	case sp.Enc == "wire":
		cfg.Encoder = encode.NewWire(pcm.DefaultEnergyModel())
	case strings.HasPrefix(sp.Enc, "coset"):
		k, err := strconv.Atoi(strings.TrimPrefix(sp.Enc, "coset"))
		if err == nil {
			cfg.Encoder, err = encode.NewCoset(k)
		}
		if err != nil {
			return core.Config{}, fmt.Errorf("scheme: bad coset encoder %q: %w", sp.Enc, err)
		}
	default:
		return core.Config{}, fmt.Errorf("scheme: unknown encoder %q (want %s)", sp.Enc, strings.Join(names(Encoders()), ", "))
	}

	cfg.UseStartGap = sp.has(sp.WL, "startgap")
	cfg.UseIntraWL = sp.has(sp.WL, "intraline")
	cfg.Resurrect = sp.Res
	return cfg, nil
}
