// Package netlist provides the gate-level circuit representation shared by
// every RESCUE tool: a directed graph of logic gates with primary inputs,
// primary outputs and D flip-flops, plus levelisation and structural
// queries used by simulators, fault tools and ATPG.
package netlist

import (
	"fmt"
	"sort"
	"sync"

	"rescue/internal/obs"
)

// Cache effectiveness counters: the artifact cache backs the shared
// compiled simulation machines, the cone cache the per-fault fanout
// cones. Both are updated under their cache mutex, so the atomic add is
// never the contention point.
var (
	obsArtifactHits   = obs.NewCounter("artifact_cache_hits_total", "Netlist artifact cache hits (shared compiled machines, collapsed fault lists).")
	obsArtifactMisses = obs.NewCounter("artifact_cache_misses_total", "Netlist artifact cache misses (artifact built).")
	obsConeHits       = obs.NewCounter("cone_cache_hits_total", "Fanout-cone cache hits.")
	obsConeMisses     = obs.NewCounter("cone_cache_misses_total", "Fanout-cone cache misses (cone built).")
)

// GateType enumerates the supported cell types.
type GateType uint8

// Supported gate types. Input denotes a primary input; DFF a D flip-flop
// whose single fanin is the D pin and whose own value is the Q output.
const (
	Input GateType = iota
	Buf
	Not
	And
	Or
	Nand
	Nor
	Xor
	Xnor
	Mux // fanin order: sel, d0, d1
	DFF
	numGateTypes
)

var gateTypeNames = [...]string{
	Input: "INPUT", Buf: "BUF", Not: "NOT", And: "AND", Or: "OR",
	Nand: "NAND", Nor: "NOR", Xor: "XOR", Xnor: "XNOR", Mux: "MUX",
	DFF: "DFF",
}

// String returns the canonical upper-case name of the gate type.
func (t GateType) String() string {
	if int(t) < len(gateTypeNames) {
		return gateTypeNames[t]
	}
	return fmt.Sprintf("GateType(%d)", uint8(t))
}

// ParseGateType resolves an upper-case type name such as "NAND".
func ParseGateType(s string) (GateType, error) {
	for t, name := range gateTypeNames {
		if name == s {
			return GateType(t), nil
		}
	}
	return 0, fmt.Errorf("netlist: unknown gate type %q", s)
}

// MinFanin returns the minimum legal fanin count for the type.
func (t GateType) MinFanin() int {
	switch t {
	case Input:
		return 0
	case Buf, Not, DFF:
		return 1
	case Mux:
		return 3
	default:
		return 2
	}
}

// MaxFanin returns the maximum legal fanin count (0 = unbounded).
func (t GateType) MaxFanin() int {
	switch t {
	case Input:
		return 0
	case Buf, Not, DFF:
		return 1
	case Mux:
		return 3
	default:
		return 0
	}
}

// Gate is one node of the netlist graph. Gates are identified by their
// dense integer ID, which doubles as the index into value arrays kept by
// the simulators.
type Gate struct {
	ID     int
	Name   string
	Type   GateType
	Fanin  []int // driving gate IDs, pin order significant for Mux
	Fanout []int // driven gate IDs (derived, maintained by Netlist)
	Level  int   // combinational level (derived by Levelize)
}

// Netlist is a gate-level circuit. The zero value is an empty circuit
// ready for Add* calls.
type Netlist struct {
	Name    string
	Gates   []*Gate
	Inputs  []int // primary input gate IDs in declaration order
	Outputs []int // primary output gate IDs in declaration order
	DFFs    []int // flip-flop gate IDs in declaration order

	byName    map[string]int
	levelized bool
	maxLevel  int

	coneMu    sync.Mutex
	coneCache map[int]*Cone

	artifactMu sync.Mutex
	artifacts  map[string]any
}

// New returns an empty netlist with the given name.
func New(name string) *Netlist {
	return &Netlist{Name: name, byName: make(map[string]int)}
}

// NumGates returns the number of gates including primary inputs.
func (n *Netlist) NumGates() int { return len(n.Gates) }

// Gate returns the gate with the given ID. It panics on out-of-range IDs,
// which indicate internal corruption rather than user error.
func (n *Netlist) Gate(id int) *Gate { return n.Gates[id] }

// Lookup resolves a gate by name.
func (n *Netlist) Lookup(name string) (*Gate, bool) {
	id, ok := n.byName[name]
	if !ok {
		return nil, false
	}
	return n.Gates[id], true
}

// AddInput declares a new primary input and returns its ID.
func (n *Netlist) AddInput(name string) (int, error) {
	id, err := n.addGate(name, Input, nil)
	if err != nil {
		return 0, err
	}
	n.Inputs = append(n.Inputs, id)
	return id, nil
}

// AddGate adds a logic gate driven by the given fanin IDs and returns its
// ID. Fanin gates must already exist.
func (n *Netlist) AddGate(name string, t GateType, fanin ...int) (int, error) {
	if t == Input {
		return 0, fmt.Errorf("netlist: use AddInput for primary inputs")
	}
	if len(fanin) < t.MinFanin() {
		return 0, fmt.Errorf("netlist: gate %q type %v needs at least %d fanin, got %d",
			name, t, t.MinFanin(), len(fanin))
	}
	if max := t.MaxFanin(); max > 0 && len(fanin) > max {
		return 0, fmt.Errorf("netlist: gate %q type %v allows at most %d fanin, got %d",
			name, t, max, len(fanin))
	}
	for _, f := range fanin {
		if f < 0 || f >= len(n.Gates) {
			return 0, fmt.Errorf("netlist: gate %q references unknown fanin id %d", name, f)
		}
	}
	id, err := n.addGate(name, t, fanin)
	if err != nil {
		return 0, err
	}
	if t == DFF {
		n.DFFs = append(n.DFFs, id)
	}
	for _, f := range fanin {
		n.Gates[f].Fanout = append(n.Gates[f].Fanout, id)
	}
	return id, nil
}

func (n *Netlist) addGate(name string, t GateType, fanin []int) (int, error) {
	if n.byName == nil {
		n.byName = make(map[string]int)
	}
	if _, dup := n.byName[name]; dup {
		return 0, fmt.Errorf("netlist: duplicate gate name %q", name)
	}
	id := len(n.Gates)
	g := &Gate{ID: id, Name: name, Type: t, Fanin: append([]int(nil), fanin...)}
	n.Gates = append(n.Gates, g)
	n.byName[name] = id
	n.levelized = false
	n.invalidateCones()
	return id, nil
}

// invalidateCones drops every cached fanout cone and compiled artifact;
// called on any structural mutation (new gates change reachability, new
// outputs change the reachable-output lists, and both stale a compiled
// evaluation schedule).
func (n *Netlist) invalidateCones() {
	n.coneMu.Lock()
	n.coneCache = nil
	n.coneMu.Unlock()
	n.artifactMu.Lock()
	n.artifacts = nil
	n.artifactMu.Unlock()
}

// Artifact memoises a derived structure on the netlist under the given
// key, building it on first use. Like the cone cache, the artifact cache
// is dropped on any structural mutation (AddGate, AddInput, MarkOutput),
// so a cached artifact always describes the current circuit. Higher
// layers use it to share expensive compilations (e.g. the packed
// simulator's compiled machine) across every simulator, session and
// campaign job over one netlist.
//
// An artifact is either immutable once built or a table of slots that
// are filled lazily, each written at most once under its own
// synchronisation and read-only afterwards (e.g. ATPG's per-fault PODEM
// verdicts). Either way every reader sees one value per slot for the
// artifact's lifetime.
//
// The build function runs with the cache mutex held, so concurrent
// callers of the same key share one build; it must not call Artifact
// recursively. Build errors are not cached.
func (n *Netlist) Artifact(key string, build func() (any, error)) (any, error) {
	n.artifactMu.Lock()
	defer n.artifactMu.Unlock()
	if v, ok := n.artifacts[key]; ok {
		obsArtifactHits.Inc()
		return v, nil
	}
	obsArtifactMisses.Inc()
	v, err := build()
	if err != nil {
		return nil, err
	}
	if n.artifacts == nil {
		n.artifacts = make(map[string]any)
	}
	n.artifacts[key] = v
	return v, nil
}

// MarkOutput declares an existing gate as a primary output.
func (n *Netlist) MarkOutput(id int) error {
	if id < 0 || id >= len(n.Gates) {
		return fmt.Errorf("netlist: MarkOutput: unknown gate id %d", id)
	}
	for _, o := range n.Outputs {
		if o == id {
			return nil
		}
	}
	n.Outputs = append(n.Outputs, id)
	n.invalidateCones()
	return nil
}

// IsSequential reports whether the circuit contains flip-flops.
func (n *Netlist) IsSequential() bool { return len(n.DFFs) > 0 }

// Levelize assigns combinational levels: primary inputs and DFF outputs
// are level 0; every other gate is 1 + max level of its fanin, where DFF
// fanin edges are cut (a DFF consumes its D input but presents its Q at
// level 0). Levelize reports combinational cycles as errors.
func (n *Netlist) Levelize() error {
	if n.levelized {
		return nil
	}
	const unset = -1
	state := make([]int8, len(n.Gates)) // 0 new, 1 visiting, 2 done
	for _, g := range n.Gates {
		g.Level = unset
	}
	var visit func(id int) error
	visit = func(id int) error {
		g := n.Gates[id]
		if state[id] == 2 {
			return nil
		}
		if state[id] == 1 {
			return fmt.Errorf("netlist: combinational cycle through gate %q", g.Name)
		}
		state[id] = 1
		lvl := 0
		if g.Type != Input && g.Type != DFF {
			for _, f := range g.Fanin {
				if err := visit(f); err != nil {
					return err
				}
				if l := n.Gates[f].Level + 1; l > lvl {
					lvl = l
				}
			}
		}
		g.Level = lvl
		state[id] = 2
		if lvl > n.maxLevel {
			n.maxLevel = lvl
		}
		return nil
	}
	n.maxLevel = 0
	for id := range n.Gates {
		if err := visit(id); err != nil {
			return err
		}
	}
	// DFF D-pins still need their fanin cones levelized; the loop above
	// covers them because it visits every gate.
	n.levelized = true
	return nil
}

// MaxLevel returns the maximum combinational level; call Levelize first.
func (n *Netlist) MaxLevel() int { return n.maxLevel }

// TopoOrder returns gate IDs sorted by (level, id). Inputs and DFFs come
// first. The order is a valid combinational evaluation order.
func (n *Netlist) TopoOrder() ([]int, error) {
	if err := n.Levelize(); err != nil {
		return nil, err
	}
	order := make([]int, len(n.Gates))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		la, lb := n.Gates[order[a]].Level, n.Gates[order[b]].Level
		if la != lb {
			return la < lb
		}
		return order[a] < order[b]
	})
	return order, nil
}

// Validate performs structural sanity checks: every non-input gate has
// legal fanin counts, fanout links are consistent, outputs exist, names
// are unique (guaranteed by construction) and the combinational part is
// acyclic.
func (n *Netlist) Validate() error {
	for _, g := range n.Gates {
		if g.Type == Input && len(g.Fanin) != 0 {
			return fmt.Errorf("netlist: input %q has fanin", g.Name)
		}
		if g.Type != Input && len(g.Fanin) < g.Type.MinFanin() {
			return fmt.Errorf("netlist: gate %q has %d fanin, below minimum %d",
				g.Name, len(g.Fanin), g.Type.MinFanin())
		}
		for _, f := range g.Fanin {
			found := false
			for _, fo := range n.Gates[f].Fanout {
				if fo == g.ID {
					found = true
					break
				}
			}
			if !found {
				return fmt.Errorf("netlist: fanout link missing from %q to %q",
					n.Gates[f].Name, g.Name)
			}
		}
	}
	if len(n.Outputs) == 0 {
		return fmt.Errorf("netlist: circuit %q has no primary outputs", n.Name)
	}
	return n.Levelize()
}

// Stats summarises the circuit structure.
type Stats struct {
	Name     string
	Gates    int // total gates including inputs
	Inputs   int
	Outputs  int
	DFFs     int
	MaxLevel int
	ByType   map[GateType]int
}

// Stats computes summary statistics. The netlist is levelized as a side
// effect; levelisation errors surface through MaxLevel staying zero.
func (n *Netlist) Stats() Stats {
	_ = n.Levelize()
	s := Stats{
		Name: n.Name, Gates: len(n.Gates), Inputs: len(n.Inputs),
		Outputs: len(n.Outputs), DFFs: len(n.DFFs), MaxLevel: n.maxLevel,
		ByType: make(map[GateType]int),
	}
	for _, g := range n.Gates {
		s.ByType[g.Type]++
	}
	return s
}

// FaninCone returns the set of gate IDs (including roots) in the
// transitive fanin of the given roots, cutting at DFF boundaries when
// cutSequential is true.
func (n *Netlist) FaninCone(roots []int, cutSequential bool) map[int]bool {
	cone := make(map[int]bool)
	stack := append([]int(nil), roots...)
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if cone[id] {
			continue
		}
		cone[id] = true
		g := n.Gates[id]
		if cutSequential && g.Type == DFF && !contains(roots, id) {
			// Non-root DFFs are cut points: their Q is a pseudo-input.
			continue
		}
		stack = append(stack, g.Fanin...)
	}
	return cone
}

// FanoutCone returns the set of gate IDs (including roots) in the
// transitive fanout of the given roots.
func (n *Netlist) FanoutCone(roots []int) map[int]bool {
	cone := make(map[int]bool)
	stack := append([]int(nil), roots...)
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if cone[id] {
			continue
		}
		cone[id] = true
		stack = append(stack, n.Gates[id].Fanout...)
	}
	return cone
}

func contains(s []int, v int) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

// Clone returns a deep copy of the netlist.
func (n *Netlist) Clone() *Netlist {
	c := New(n.Name)
	c.Gates = make([]*Gate, len(n.Gates))
	for i, g := range n.Gates {
		g2 := *g
		g2.Fanin = append([]int(nil), g.Fanin...)
		g2.Fanout = append([]int(nil), g.Fanout...)
		c.Gates[i] = &g2
		c.byName[g.Name] = g.ID
	}
	c.Inputs = append([]int(nil), n.Inputs...)
	c.Outputs = append([]int(nil), n.Outputs...)
	c.DFFs = append([]int(nil), n.DFFs...)
	c.levelized = n.levelized
	c.maxLevel = n.maxLevel
	return c
}
