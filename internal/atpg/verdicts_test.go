package atpg

import (
	"math"
	"reflect"
	"slices"
	"sync"
	"testing"

	"rescue/internal/circuits"
	"rescue/internal/fault"
	"rescue/internal/logic"
	"rescue/internal/netlist"
)

// verdictNets is the differential corpus of the verdict table: every
// registry circuit (sequential ones through their scan view) and random
// combinational netlists with wide, XOR-family and Mux gates.
func verdictNets(t *testing.T) []*netlist.Netlist {
	t.Helper()
	var nets []*netlist.Netlist
	for _, name := range circuits.Names() {
		nets = append(nets, combRegistry(t, name))
	}
	for seed := int64(1); seed <= 4; seed++ {
		nets = append(nets, circuits.RandomCombinational(circuits.RandomOptions{
			Inputs: 9, Gates: 90, Outputs: 4, Seed: seed, MaxArity: 4,
		}))
	}
	return nets
}

// rawVerdict is one raw Engine.Generate result, the table's oracle.
type rawVerdict struct {
	vec        logic.Vector
	out        Outcome
	backtracks int
}

func rawSearches(t *testing.T, n *netlist.Netlist, faults fault.List) []rawVerdict {
	t.Helper()
	eng, err := NewEngine(n, Options{})
	if err != nil {
		t.Fatal(err)
	}
	out := make([]rawVerdict, len(faults))
	for i, f := range faults {
		vec, o := eng.Generate(f)
		out[i] = rawVerdict{vec, o, eng.Backtracks()}
	}
	return out
}

// TestVerdictTableMatchesGenerate pins the table to the raw search: on
// a view warmed by the quality flow first, and on one warmed by the
// cross-check's classification first, every fault's stored outcome,
// backtracks and unfilled vector equal a fresh Engine.Generate, the
// classification reports the raw outcomes and backtracks, and the
// quality flow's result equals the cold view's field for field.
func TestVerdictTableMatchesGenerate(t *testing.T) {
	flow := FlowOptions{RandomPatterns: 16, Seed: 3, Compact: true}
	for _, n := range verdictNets(t) {
		faults := fault.Collapse(n, fault.AllStuckAt(n))
		want := rawSearches(t, n, faults)
		wantBacktracks := 0
		for _, w := range want {
			wantBacktracks += w.backtracks
		}
		cold, err := GenerateTests(n.Clone(), faults, flow)
		if err != nil {
			t.Fatal(err)
		}
		for _, qualityFirst := range []bool{true, false} {
			view := n.Clone()
			var res *Result
			var cls *Classification
			if qualityFirst {
				res, err = GenerateTests(view, faults, flow)
				if err == nil {
					cls, err = ClassifyFaults(view, faults, Options{})
				}
			} else {
				cls, err = ClassifyFaults(view, faults, Options{})
				if err == nil {
					res, err = GenerateTests(view, faults, flow)
				}
			}
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(res, cold) {
				t.Errorf("%s (quality first %v): flow result differs from the cold view's", n.Name, qualityFirst)
			}
			if cls.Calls != len(faults) || cls.Backtracks != wantBacktracks {
				t.Errorf("%s (quality first %v): classification calls %d backtracks %d, raw %d / %d",
					n.Name, qualityFirst, cls.Calls, cls.Backtracks, len(faults), wantBacktracks)
			}
			table, err := verdictsFor(view, Options{})
			if err != nil {
				t.Fatal(err)
			}
			for i, f := range faults {
				s := table.slot(f)
				st := s.state.Load()
				got := rawVerdict{s.vec, Outcome(st - 1), int(s.backtracks)}
				if st == 0 || cls.Outcomes[i] != want[i].out || !reflect.DeepEqual(got, want[i]) {
					t.Errorf("%s (quality first %v) %v: table %+v (state %d), classified %v, raw %+v",
						n.Name, qualityFirst, f, got, st, cls.Outcomes[i], want[i])
				}
			}
		}
	}
}

// TestVerdictTableSearchesEachSiteOnce races classification passes and
// parallel flows over one netlist: each site is searched exactly once
// (the search counter grows by the number of sites and every other
// request is a hit), and every caller sees the same verdicts.
func TestVerdictTableSearchesEachSiteOnce(t *testing.T) {
	n := circuits.ArrayMultiplier(4)
	faults := fault.Collapse(n, fault.AllStuckAt(n))
	want := rawSearches(t, n, faults)
	const classifiers, flows = 4, 2
	flow := FlowOptions{Seed: 3, Compact: true, Parallelism: 4, NoDrop: true}
	calls0, hits0 := obsPODEMCalls.Value(), obsVerdictHits.Value()
	var wg sync.WaitGroup
	classes := make([]*Classification, classifiers)
	results := make([]*Result, flows)
	errs := make([]error, classifiers+flows)
	for i := range classifiers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			classes[i], errs[i] = ClassifyFaults(n, faults, Options{})
		}()
	}
	for i := range flows {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i], errs[classifiers+i] = GenerateTests(n, faults, flow)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	requests := int64(classifiers*len(faults) + flows*results[0].PODEMCalls)
	calls, hits := obsPODEMCalls.Value()-calls0, obsVerdictHits.Value()-hits0
	if calls != int64(len(faults)) || hits != requests-calls {
		t.Errorf("searches %d (want %d, one per site), hits %d (want %d)", calls, len(faults), hits, requests-calls)
	}
	for _, c := range classes {
		for i, w := range want {
			if c.Outcomes[i] != w.out {
				t.Fatalf("%v: classified %v, raw %v", faults[i], c.Outcomes[i], w.out)
			}
		}
	}
	if !reflect.DeepEqual(results[0], results[1]) {
		t.Error("concurrent flows over one view disagree")
	}
}

// TestVerdictTableRetriesFailedSearch checks that a search that panics
// is not memoised: the slot stays empty and unlocked, and the next
// caller searches it.
func TestVerdictTableRetriesFailedSearch(t *testing.T) {
	n := circuits.RippleCarryAdder(8)
	table, err := verdictsFor(n, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// An engine over a smaller circuit panics on a site beyond it.
	bad, err := NewEngine(circuits.C17(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	good, err := NewEngine(n, Options{})
	if err != nil {
		t.Fatal(err)
	}
	f := fault.Fault{Kind: fault.StuckAt, Gate: n.NumGates() - 1, Pin: -1, Value: logic.One}
	if _, err := table.lookup(bad, f); err == nil {
		t.Fatal("a panicking search reported no error")
	}
	if table.slot(f).state.Load() != 0 {
		t.Fatal("a failed search was memoised")
	}
	g, err := table.lookup(good, f)
	if err != nil || !g.searched {
		t.Fatalf("retry after a failed search: searched %v, err %v", g.searched, err)
	}
	vec, out := good.Generate(f)
	if g.out != out || !slices.Equal(g.vec, vec) || g.backtracks != good.Backtracks() {
		t.Errorf("retried verdict %+v, raw %v %v", g, out, vec)
	}
	if g, err := table.lookup(bad, f); err != nil || g.searched {
		t.Errorf("stored verdict not served: searched %v, err %v", g.searched, err)
	}
	for _, f := range []fault.Fault{
		{Kind: fault.StuckAt, Gate: n.NumGates(), Pin: -1},
		{Kind: fault.StuckAt, Gate: -1, Pin: -1},
		{Kind: fault.StuckAt, Gate: n.Outputs[0], Pin: 2},
		{Kind: fault.StuckAt, Gate: n.Outputs[0], Pin: -2},
		{Kind: fault.StuckAt, Gate: n.Outputs[0], Pin: math.MaxInt},
		{Kind: fault.StuckAt, Gate: n.Outputs[0], Pin: 1<<31 - 1},
		{Kind: fault.StuckAt, Gate: n.Outputs[0], Pin: -1, Value: logic.X},
	} {
		if _, err := table.lookup(good, f); err == nil {
			t.Errorf("%+v: a site outside the circuit was served", f)
		}
	}
	if _, err := ClassifyFaults(n, fault.List{{Kind: fault.StuckAt, Gate: n.NumGates(), Pin: -1}}, Options{}); err == nil {
		t.Error("ClassifyFaults accepted a site outside the circuit")
	}
}

// TestVerdictTableFollowsOutputs checks that a view observing other
// outputs never reads another view's verdicts: MarkOutput drops the
// table with the netlist's other artifacts, the table key carries the
// output list (a view whose Outputs are reassigned directly, as a
// functional-output split does on its clone, gets its own table), and
// another backtrack limit gets another table.
func TestVerdictTableFollowsOutputs(t *testing.T) {
	n := netlist.New("hidden")
	a, _ := n.AddInput("a")
	b, _ := n.AddInput("b")
	x, _ := n.AddGate("x", netlist.And, a, b)
	y, _ := n.AddGate("y", netlist.Or, a, b)
	_ = n.MarkOutput(y)
	faults := fault.List{{Kind: fault.StuckAt, Gate: x, Pin: -1, Value: logic.Zero}}
	classify := func() Outcome {
		t.Helper()
		cls, err := ClassifyFaults(n, faults, Options{})
		if err != nil {
			t.Fatal(err)
		}
		return cls.Outcomes[0]
	}
	if got := classify(); got != ProvenUntestable {
		t.Fatalf("x unobserved: %v, want untestable", got)
	}
	before, _ := verdictsFor(n, Options{})
	n.Outputs = []int{x, y}
	reassigned, _ := verdictsFor(n, Options{})
	n.Outputs = []int{y}
	restored, _ := verdictsFor(n, Options{})
	if reassigned == before || restored != before {
		t.Error("the verdict table must be keyed by the output list")
	}
	if err := n.MarkOutput(x); err != nil {
		t.Fatal(err)
	}
	if got := classify(); got != TestFound {
		t.Errorf("x observed after MarkOutput: %v, want test-found", got)
	}
	t1, _ := verdictsFor(n, Options{})
	t2, _ := verdictsFor(n, Options{BacktrackLimit: 7})
	t3, _ := verdictsFor(n, Options{BacktrackLimit: DefaultBacktrackLimit})
	if t1 == before || t1 == t2 || t1 != t3 {
		t.Error("the verdict table must be dropped by MarkOutput and keyed by the effective backtrack limit")
	}
}
