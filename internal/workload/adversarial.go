package workload

import (
	"pcmcomp/internal/block"
	"pcmcomp/internal/trace"
)

// AdversarialName selects the worst-case stress preset on jobs
// ("workload": "adversarial"): it is resolvable through ByName like the
// Table III models but deliberately excluded from Profiles()/Names(),
// which stay the paper's 15 applications.
const AdversarialName = "adversarial"

// adversarialProfile is the Song & Das stress case (PAPERS.md): a handful
// of hot lines rewritten with alternating all-ones/all-zeros payloads.
// Every rewrite flips every raw bit, so differential writes save nothing;
// the extreme Zipf skew concentrates that maximal wear on the hottest
// lines, defeating short-horizon wear-leveling. WPKI is set at the
// Table III maximum (lbm) so projected lifetimes are pessimistic. The Mix
// is a placeholder that keeps NewGenerator's validation satisfied — the
// adversarial generator never samples it.
var adversarialProfile = Profile{
	Name: AdversarialName, WPKI: 15.6, CR: 0.15, Class: High,
	Mix:            []ClassWeight{cw(classZero, 1)},
	SizeChangeProb: 1, ShiftProb: 0, UpdateSparsity: 1, ZipfS: 2.0,
	adversarial: true,
}

// nextAdversarial produces the stress stream: each sampled line alternates
// between an all-ones and an all-zeros payload, starting with all-ones.
// The line's current content carries the parity, so no extra per-line
// state is needed and the stream is a pure function of (numLines, seed).
func (g *Generator) nextAdversarial() trace.Event {
	addr := g.zipf.sample(g.r)
	ls := &g.lines[addr]
	if ls.data[0] == 0 {
		for i := range ls.data {
			ls.data[i] = 0xFF
		}
	} else {
		ls.data = block.Block{}
	}
	return trace.Event{Addr: addr, Data: ls.data}
}
