// Package atpg implements automatic test pattern generation for stuck-at
// faults: the PODEM algorithm with SCOAP-guided backtrace, a random-
// pattern bootstrap phase, functionally-untestable fault identification
// (Section III.A of the RESCUE paper) and static test-set compaction.
// Sequential circuits are handled through a full-scan view in which every
// flip-flop becomes a pseudo input/output pair.
package atpg

import (
	"fmt"

	"rescue/internal/fault"
	"rescue/internal/logic"
	"rescue/internal/netlist"
	"rescue/internal/sim"
)

// Outcome reports the result of one PODEM run.
type Outcome uint8

const (
	// TestFound means a test vector was generated.
	TestFound Outcome = iota
	// ProvenUntestable means the search space was exhausted: no input
	// assignment detects the fault (it is redundant).
	ProvenUntestable
	// AbortedLimit means the backtrack limit was hit before a verdict.
	AbortedLimit
	// NotApplicable means the fault model is outside PODEM's scope
	// (SEU/SET transients in a mixed list): no search was attempted.
	// Previously such faults were misreported as AbortedLimit, inflating
	// the aborted count and poisoning Coverage.Effective.
	NotApplicable
)

// String names the outcome.
func (o Outcome) String() string {
	switch o {
	case TestFound:
		return "test-found"
	case ProvenUntestable:
		return "untestable"
	case AbortedLimit:
		return "aborted"
	case NotApplicable:
		return "not-applicable"
	}
	return fmt.Sprintf("Outcome(%d)", uint8(o))
}

// Options configures PODEM.
type Options struct {
	// BacktrackLimit bounds the search; 0 means DefaultBacktrackLimit.
	// Searches that exhaust the space below the limit prove untestability.
	BacktrackLimit int
}

// DefaultBacktrackLimit is ample for the benchmark circuits in this repo.
const DefaultBacktrackLimit = 20000

// Engine generates tests for one circuit. It is not safe for concurrent
// use; create one Engine per goroutine.
//
// Implication is incremental: each Generate seeds both machines with one
// full dual pass, and every later decision re-evaluates only the fanout
// of the primary inputs it changed (sim.RunDualEvents). The D-frontier
// and X-path checks walk only the target fault's fanout cone, the only
// place the two machines can differ.
type Engine struct {
	n       *netlist.Netlist
	c       *sim.Compiled // shared compiled machine driving imply
	cc      *Controllability
	gv      []logic.V // good-machine values
	fv      []logic.V // faulty-machine values
	scratch []logic.V // fanin gather buffer for the seed pass
	events  *sim.DualEvents
	piVal   []logic.V // current PI assignment, indexed like n.Inputs
	piGate  []int32   // PI index -> gate ID
	piIdx   []int32   // gate ID -> PI index (inputs only)
	isOut   []bool    // gate ID -> drives a primary output

	// Per-search state, reused across Generate calls.
	site      sim.FaultSite // the target fault
	cone      *netlist.Cone // fanout cone of the fault site
	stack     []frame
	dirty     []int32  // PI gate IDs changed since the last imply
	frontier  []int    // D-frontier of the current search step
	seen      []uint32 // X-path visit marks, valid when == seenEpoch
	seenEpoch uint32
	walk      []int32 // X-path DFS stack

	backtracks int
	limit      int

	// Implication cost, cumulative over the engine's lifetime.
	implies, implyEvals int64
}

// frame is one PODEM decision on the search stack.
type frame struct {
	pi      int
	val     logic.V
	flipped bool
}

// NewEngine builds an ATPG engine for a combinational circuit. For
// sequential circuits construct a ScanView first.
func NewEngine(n *netlist.Netlist, opt Options) (*Engine, error) {
	if n.IsSequential() {
		return nil, fmt.Errorf("atpg: sequential circuit %q: build a ScanView first", n.Name)
	}
	c, err := sim.Compile(n) // levelizes and validates acyclicity
	if err != nil {
		return nil, err
	}
	cc, err := ComputeControllability(n)
	if err != nil {
		return nil, err
	}
	ng, npi := n.NumGates(), len(n.Inputs)
	e := &Engine{
		n: n, c: c, cc: cc,
		gv:       make([]logic.V, ng),
		fv:       make([]logic.V, ng),
		scratch:  c.NewValueScratch(),
		events:   c.NewDualEvents(),
		piVal:    make([]logic.V, npi),
		piGate:   make([]int32, npi),
		piIdx:    make([]int32, ng),
		isOut:    make([]bool, ng),
		stack:    make([]frame, 0, npi),
		dirty:    make([]int32, 0, npi),
		frontier: make([]int, 0, ng),
		seen:     make([]uint32, ng),
		walk:     make([]int32, 0, ng),
		limit:    opt.limit(),
	}
	for i, id := range n.Inputs {
		e.piGate[i] = int32(id)
		e.piIdx[id] = int32(i)
	}
	for _, o := range n.Outputs {
		e.isOut[o] = true
	}
	return e, nil
}

// Generate runs PODEM for the fault. On TestFound the returned vector has
// one value per primary input, with X marking don't-cares. Non-stuck-at
// faults are skipped without searching and report NotApplicable.
func (e *Engine) Generate(f fault.Fault) (logic.Vector, Outcome) {
	e.backtracks = 0
	if f.Kind != fault.StuckAt {
		return nil, NotApplicable
	}
	e.begin(f)
	for {
		e.imply()
		switch e.state() {
		case stateDetected:
			return append(logic.Vector(nil), e.piVal...), TestFound
		case stateConflict:
			if ok, why := e.backtrack(); !ok {
				return nil, why
			}
			continue
		}
		// Undetermined: pick a new objective and backtrace to a PI.
		objGate, objVal, ok := e.objective()
		if !ok {
			// No achievable objective left with current assignments.
			if okBT, why := e.backtrack(); !okBT {
				return nil, why
			}
			continue
		}
		pi, v := e.backtrace(objGate, objVal)
		if e.piVal[pi].Known() {
			// Backtrace landed on an assigned PI: heuristic dead end.
			if okBT, why := e.backtrack(); !okBT {
				return nil, why
			}
			continue
		}
		e.decide(pi, v)
	}
}

// begin resets the search for fault f and seeds both machines with one
// full dual pass under the all-X assignment.
func (e *Engine) begin(f fault.Fault) {
	e.site = sim.FaultSite{Gate: f.Gate, Pin: f.Pin, SA: f.Value}
	cone, err := e.n.FanoutConeOrdered(f.Gate)
	if err != nil {
		panic(err) // an out-of-range fault site; safeGenerate recovers it
	}
	e.cone = cone
	e.stack = e.stack[:0]
	e.dirty = e.dirty[:0]
	for i, id := range e.piGate {
		e.piVal[i] = logic.X
		e.gv[id] = logic.X
		e.fv[id] = logic.X
	}
	e.c.RunDualWithFault(e.gv, e.fv, e.scratch, e.site)
	e.implies++
	e.implyEvals += int64(e.c.ScheduleLen())
}

// decide pushes a new unflipped assignment of primary input pi.
func (e *Engine) decide(pi int, v logic.V) {
	e.setPI(pi, v)
	e.stack = append(e.stack, frame{pi: pi, val: v})
}

// setPI assigns primary input pi and queues it for the next imply.
func (e *Engine) setPI(pi int, v logic.V) {
	e.piVal[pi] = v
	e.dirty = append(e.dirty, e.piGate[pi])
}

// backtrack flips the most recent unflipped assignment; it reports false
// when the whole search space is exhausted or the limit is hit.
func (e *Engine) backtrack() (bool, Outcome) {
	for {
		if len(e.stack) == 0 {
			return false, ProvenUntestable
		}
		top := &e.stack[len(e.stack)-1]
		if !top.flipped {
			e.backtracks++
			if e.backtracks > e.limit {
				return false, AbortedLimit
			}
			top.val = logic.Not(top.val)
			top.flipped = true
			e.setPI(top.pi, top.val)
			return true, TestFound
		}
		e.setPI(top.pi, logic.X)
		e.stack = e.stack[:len(e.stack)-1]
	}
}

// Backtracks reports how many backtracks the most recent Generate call
// performed — the dominant deterministic-search cost metric, surfaced by
// the flow and cross-check timing outputs.
func (e *Engine) Backtracks() int { return e.backtracks }

type searchState uint8

const (
	stateDetected searchState = iota
	stateConflict
	stateUndetermined
)

// imply brings both machines up to date with the PI changes since the
// last call: the changed inputs' held values are rewritten (a PI-site
// output fault keeps its forced faulty value) and the event kernel
// re-evaluates only their fanout.
func (e *Engine) imply() {
	if len(e.dirty) == 0 {
		return
	}
	for _, id := range e.dirty {
		v := e.piVal[e.piIdx[id]]
		e.gv[id] = v
		if int(id) != e.site.Gate || e.site.Pin >= 0 {
			e.fv[id] = v
		}
	}
	e.implyEvals += int64(e.c.RunDualEvents(e.gv, e.fv, e.site, e.events, e.dirty))
	e.implies++
	e.dirty = e.dirty[:0]
}

// faultSiteGood returns the good-machine value at the faulty line.
func (e *Engine) faultSiteGood() logic.V {
	if e.site.Pin < 0 {
		return e.gv[e.site.Gate]
	}
	return e.gv[e.n.Gate(e.site.Gate).Fanin[e.site.Pin]]
}

// state classifies the current search position. When the fault is
// activated it leaves the step's D-frontier in e.frontier for objective.
func (e *Engine) state() searchState {
	// Detected: any PO differs with both values known. Only outputs in
	// the fault's cone can differ.
	for _, oi := range e.cone.Outputs {
		o := e.n.Outputs[oi]
		if e.gv[o].Known() && e.fv[o].Known() && e.gv[o] != e.fv[o] {
			return stateDetected
		}
	}
	site := e.faultSiteGood()
	if site.Known() && site == e.site.SA {
		return stateConflict // fault can no longer be activated
	}
	if site.Known() {
		// Activated: require a non-empty D-frontier with an X-path.
		e.dFrontier()
		if len(e.frontier) == 0 || !e.xPathExists() {
			return stateConflict
		}
	}
	return stateUndetermined
}

// dFrontier collects into e.frontier, in the cone's (level, id) order,
// the gates whose output is undetermined in at least one machine while
// some fanin already carries a D/D' discrepancy. Discrepancies exist
// only inside the fault's fanout cone, so only the cone is scanned. For
// an input-pin fault the discrepancy materialises inside the faulted
// gate (the driving net itself carries equal values in both machines),
// so that gate — the cone's root — seeds the frontier once the fault is
// activated.
func (e *Engine) dFrontier() {
	fr := e.frontier[:0]
	gv, fv := e.gv, e.fv
	for _, id := range e.cone.Order {
		if gv[id].Known() && fv[id].Known() {
			continue
		}
		g := e.n.Gates[id]
		if g.Type == netlist.Input {
			continue
		}
		if e.site.Pin >= 0 && id == e.site.Gate {
			if site := e.faultSiteGood(); site.Known() && site != e.site.SA {
				fr = append(fr, id)
				continue
			}
		}
		for _, fi := range g.Fanin {
			if gv[fi].Known() && fv[fi].Known() && gv[fi] != fv[fi] {
				fr = append(fr, id)
				break
			}
		}
	}
	e.frontier = fr
}

// xPathExists checks whether any D-frontier gate reaches a primary output
// through gates whose value is still undetermined. Reachability from a
// gate does not depend on where the walk started, so one visit mark per
// call serves every frontier gate.
func (e *Engine) xPathExists() bool {
	e.seenEpoch++
	if e.seenEpoch == 0 {
		clear(e.seen)
		e.seenEpoch = 1
	}
	seen, epoch := e.seen, e.seenEpoch
	walk := e.walk[:0]
	for _, id := range e.frontier {
		if seen[id] != epoch {
			seen[id] = epoch
			walk = append(walk, int32(id))
		}
	}
	for len(walk) > 0 {
		id := walk[len(walk)-1]
		walk = walk[:len(walk)-1]
		if e.isOut[id] {
			return true
		}
		for _, fo := range e.n.Gates[id].Fanout {
			if seen[fo] == epoch || (e.gv[fo].Known() && e.fv[fo].Known()) {
				continue
			}
			seen[fo] = epoch
			walk = append(walk, int32(fo))
		}
	}
	return false
}

// objective returns the next (gate, value) goal: activate the fault if
// its site is still X, otherwise advance the cheapest D-frontier gate.
func (e *Engine) objective() (int, logic.V, bool) {
	site := e.faultSiteGood()
	if !site.Known() {
		want := logic.Not(e.site.SA)
		gate := e.site.Gate
		if e.site.Pin >= 0 {
			gate = e.n.Gate(e.site.Gate).Fanin[e.site.Pin]
		}
		return gate, want, true
	}
	frontier := e.frontier
	if len(frontier) == 0 {
		return 0, logic.X, false
	}
	// Choose the frontier gate closest to a PO (lowest remaining depth
	// approximated by highest level; ties go to the lowest gate ID, the
	// first in the frontier's (level, id) order) and set one X input to
	// the gate's non-controlling value.
	best := frontier[0]
	for _, g := range frontier[1:] {
		if e.n.Gate(g).Level > e.n.Gate(best).Level {
			best = g
		}
	}
	g := e.n.Gate(best)
	nc, hasNC := nonControlling(g.Type)
	for pinIdx, fi := range g.Fanin {
		if e.gv[fi].Known() && e.fv[fi].Known() {
			continue
		}
		if g.Type == netlist.Mux && pinIdx == 0 {
			// Drive the select towards the side carrying the D.
			for dataPin, dfi := range g.Fanin[1:] {
				if e.gv[dfi].Known() && e.fv[dfi].Known() && e.gv[dfi] != e.fv[dfi] {
					return fi, logic.FromBool(dataPin == 1), true
				}
			}
			return fi, logic.Zero, true
		}
		if !hasNC {
			// XOR-family: any defined value propagates; choose 0.
			return fi, logic.Zero, true
		}
		return fi, nc, true
	}
	return 0, logic.X, false
}

// nonControlling returns the non-controlling input value for a gate type,
// or ok=false for XOR-family gates that have none.
func nonControlling(t netlist.GateType) (logic.V, bool) {
	switch t {
	case netlist.And, netlist.Nand:
		return logic.One, true
	case netlist.Or, netlist.Nor:
		return logic.Zero, true
	}
	return logic.X, false
}

// backtrace walks an objective (gate, value) back to an unassigned
// primary input, choosing branches by SCOAP controllability.
func (e *Engine) backtrace(gate int, val logic.V) (pi int, v logic.V) {
	id, want := gate, val
	for {
		g := e.n.Gate(id)
		if g.Type == netlist.Input {
			return int(e.piIdx[id]), want
		}
		switch g.Type {
		case netlist.Not:
			id, want = g.Fanin[0], logic.Not(want)
		case netlist.Buf:
			id = g.Fanin[0]
		case netlist.Nand, netlist.Nor:
			want = logic.Not(want)
			id = e.chooseBranch(g, want)
		case netlist.And, netlist.Or:
			id = e.chooseBranch(g, want)
		case netlist.Xor, netlist.Xnor:
			// Pick the first X input; aim for 0 on it (heuristic).
			next := g.Fanin[0]
			for _, fi := range g.Fanin {
				if !e.gv[fi].Known() {
					next = fi
					break
				}
			}
			id, want = next, logic.Zero
		case netlist.Mux:
			// Prefer steering the select if unassigned.
			if !e.gv[g.Fanin[0]].Known() {
				id, want = g.Fanin[0], logic.Zero
			} else if sel, _ := e.gv[g.Fanin[0]].Bool(); sel {
				id = g.Fanin[2]
			} else {
				id = g.Fanin[1]
			}
		default:
			// DFF cannot appear in a combinational engine.
			return 0, want
		}
	}
}

// chooseBranch picks which X fanin to pursue for an AND/OR objective.
// Setting the output to the controlling-derived value needs only one
// input (choose the easiest); the non-controlling value needs all inputs
// (choose the hardest first, per the classical heuristic).
func (e *Engine) chooseBranch(g *netlist.Gate, want logic.V) int {
	ctrl := logic.Zero // controlling value of AND
	if g.Type == netlist.Or || g.Type == netlist.Nor {
		ctrl = logic.One
	}
	needOne := want == ctrl // output forced by a single controlling input
	bestID, bestCost := -1, 0
	for _, fi := range g.Fanin {
		if e.gv[fi].Known() {
			continue
		}
		cost := e.cc.CC1[fi]
		if wantVal(want, ctrl) == logic.Zero {
			cost = e.cc.CC0[fi]
		}
		if bestID < 0 || (needOne && cost < bestCost) || (!needOne && cost > bestCost) {
			bestID, bestCost = fi, cost
		}
	}
	if bestID < 0 {
		bestID = g.Fanin[0]
	}
	return bestID
}

// wantVal returns the value an input must take on the chosen branch.
func wantVal(want, ctrl logic.V) logic.V {
	if want == ctrl {
		return ctrl
	}
	return logic.Not(ctrl)
}
