package atpg

import (
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"

	"rescue/internal/fault"
	"rescue/internal/logic"
	"rescue/internal/netlist"
)

// A PODEM verdict depends only on the circuit view — the netlist, the
// outputs it observes and the backtrack limit — and the fault. It does
// not depend on a campaign's seed, environment or technology, nor on
// which flow asked. verdictTable therefore memoises Engine.Generate per
// stuck-at fault site for one view: the quality stage's test generation
// and the safety cross-check over the same netlist share one table, as
// do every job, shard and run over it. The table hangs on the netlist as
// a netlist.Artifact, so a structural mutation drops it, and its key
// carries the limit and the output list, so a view whose outputs were
// reassigned (a functional-output split) never reads another view's
// verdicts.
//
// Slots are dense: gate g owns (1+len(Fanin))×2 consecutive slots — its
// output and each input pin, stuck-at-0 and stuck-at-1 — from base[g].
// Each slot is filled at most once per process by whichever caller gets
// there first; concurrent callers of the same slot wait on its mutex
// and read the stored verdict. A search that fails (a recovered panic)
// is not stored, so the next caller searches again. Engine.Generate
// stays the raw search: the table is pinned to it by differential tests.
type verdictTable struct {
	base  []int32 // gate ID → first slot; base[NumGates] is the slot count
	slots []verdict
}

// verdict is one memoised search, 40 bytes. Its fields are written
// once, under mu and before state is set; after that they are
// read-only, and vec is shared by every reader (fillX clones before
// filling don't-cares).
type verdict struct {
	mu         sync.Mutex
	state      atomic.Uint32 // 0 until stored, then 1+the Outcome
	backtracks int32
	vec        logic.Vector
}

// errNoSite reports a stuck-at fault whose site is not in the circuit.
// It is the cold path of lookup, kept out of the hot function.
func errNoSite(f fault.Fault) error {
	return fmt.Errorf("atpg: fault %v: site not in the circuit", f)
}

// limit is the effective backtrack limit of the options.
func (o Options) limit() int {
	if o.BacktrackLimit <= 0 {
		return DefaultBacktrackLimit
	}
	return o.BacktrackLimit
}

// verdictsFor returns the verdict table of n's current view under opt,
// building an empty one on first use.
func verdictsFor(n *netlist.Netlist, opt Options) (*verdictTable, error) {
	key := []byte("atpg.verdicts|")
	key = strconv.AppendInt(key, int64(opt.limit()), 10)
	for _, o := range n.Outputs {
		key = append(key, ',')
		key = strconv.AppendInt(key, int64(o), 10)
	}
	v, err := n.Artifact(string(key), func() (any, error) {
		base := make([]int32, n.NumGates()+1)
		for id, g := range n.Gates {
			base[id+1] = base[id] + int32(2*(1+len(g.Fanin)))
		}
		return &verdictTable{base: base, slots: make([]verdict, base[len(base)-1])}, nil
	})
	if err != nil {
		return nil, err
	}
	return v.(*verdictTable), nil
}

// slot returns the verdict slot of stuck-at fault f, or nil when the
// site does not exist.
func (t *verdictTable) slot(f fault.Fault) *verdict {
	if f.Gate < 0 || f.Gate >= len(t.base)-1 || f.Value > logic.One {
		return nil
	}
	lo, hi := int(t.base[f.Gate]), int(t.base[f.Gate+1])
	if f.Pin < -1 || f.Pin >= (hi-lo)/2-1 { // pins -1 (output) .. fanin-1
		return nil
	}
	return &t.slots[lo+2*(f.Pin+1)+int(f.Value)]
}

// lookup returns the verdict for stuck-at fault f, running the search on
// e (an engine over the table's view and limit) only when no caller has
// stored it yet. The result's searched flag tells the two apart.
func (t *verdictTable) lookup(e *Engine, f fault.Fault) (podemResult, error) {
	s := t.slot(f)
	if s == nil {
		return podemResult{}, errNoSite(f)
	}
	st := s.state.Load()
	if st == 0 {
		s.mu.Lock()
		if st = s.state.Load(); st == 0 {
			g, err := safeGenerate(e, f)
			if err != nil {
				s.mu.Unlock()
				return podemResult{}, err
			}
			s.backtracks, s.vec = int32(g.backtracks), g.vec
			s.state.Store(1 + uint32(g.out))
			s.mu.Unlock()
			g.searched = true
			return g, nil
		}
		s.mu.Unlock()
	}
	return podemResult{vec: s.vec, out: Outcome(st - 1), backtracks: int(s.backtracks)}, nil
}
