package sim

import (
	"math/rand"
	"testing"

	"rescue/internal/circuits"
	"rescue/internal/logic"
	"rescue/internal/netlist"
)

// TestRunDualEventsMatchesFullPass drives the event kernel through
// random single- and multi-input changes — output, pin and PI-site
// faults, combinational and sequential circuits with random held DFF
// state — and after every step compares both machines on every gate
// with a fresh RunDualWithFault pass.
func TestRunDualEventsMatchesFullPass(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	nets := []*netlist.Netlist{circuits.ArrayMultiplier(4), circuits.S27(), circuits.ALU(8)}
	for seed := int64(0); seed < 4; seed++ {
		nets = append(nets, circuits.RandomCombinational(circuits.RandomOptions{
			Inputs: 6, Gates: 60, Outputs: 4, Seed: seed, MaxArity: 4,
		}))
	}
	for _, n := range nets {
		c, err := Compile(n)
		if err != nil {
			t.Fatal(err)
		}
		ev := c.NewDualEvents()
		held := append(append([]int(nil), n.Inputs...), n.DFFs...)
		for trial := 0; trial < 30; trial++ {
			f := randomSite(rng, n)
			gv := make([]logic.V, n.NumGates())
			fv := make([]logic.V, n.NumGates())
			for _, id := range held {
				gv[id] = randX(rng)
				fv[id] = gv[id]
			}
			c.RunDualWithFault(gv, fv, c.NewValueScratch(), f)
			for step := 0; step < 12; step++ {
				var changed []int32
				for k := 1 + rng.Intn(3); k > 0; k-- {
					id := held[rng.Intn(len(held))]
					gv[id] = randX(rng)
					if id != f.Gate || f.Pin >= 0 {
						fv[id] = gv[id]
					}
					changed = append(changed, int32(id))
				}
				evals := c.RunDualEvents(gv, fv, f, ev, changed)
				if evals > c.ScheduleLen() {
					t.Fatalf("%s: %d evals exceed one full pass (%d)", n.Name, evals, c.ScheduleLen())
				}
				wg := append([]logic.V(nil), gv...)
				wf := append([]logic.V(nil), fv...)
				c.RunDualWithFault(wg, wf, c.NewValueScratch(), f)
				for id := range wg {
					if gv[id] != wg[id] || fv[id] != wf[id] {
						t.Fatalf("%s fault %+v step %d: gate %q events (%v,%v) != full pass (%v,%v)",
							n.Name, f, step, n.Gate(id).Name, gv[id], fv[id], wg[id], wf[id])
					}
				}
			}
		}
	}
}

func randX(rng *rand.Rand) logic.V {
	return [...]logic.V{logic.Zero, logic.One, logic.X}[rng.Intn(3)]
}

// randomSite draws an output, pin or held-gate stuck-at site.
func randomSite(rng *rand.Rand, n *netlist.Netlist) FaultSite {
	g := n.Gate(rng.Intn(n.NumGates()))
	f := FaultSite{Gate: g.ID, Pin: -1, SA: logic.FromBool(rng.Intn(2) == 1)}
	if len(g.Fanin) > 0 && g.Type != netlist.DFF && rng.Intn(2) == 0 {
		f.Pin = rng.Intn(len(g.Fanin))
	}
	return f
}
