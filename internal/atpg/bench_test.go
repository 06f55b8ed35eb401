package atpg

import (
	"runtime"
	"testing"

	"rescue/internal/circuits"
	"rescue/internal/fault"
	"rescue/internal/netlist"
	"rescue/internal/sim"
)

// BenchmarkATPG tracks the test-generation hot path across the whole
// registry: the session-based test-and-drop flow, serial vs parallel
// deterministic phase. podem_calls and tests are deterministic
// (identical at every parallelism level); ns/op and flows_per_sec track
// the realised wall-clock. Every flow runs on a cold clone of the
// netlist, made outside the timer, so its PODEM targets are searched
// rather than served from the view's verdict table. The drop-vs-nodrop
// sub-benchmark on mul8 prints both PODEM call counts — the figure
// fault dropping exists to shrink — and fails if dropping ever stops
// paying.
func BenchmarkATPG(b *testing.B) {
	for _, name := range circuits.Names() {
		n := combRegistry(b, name)
		faults := fault.Collapse(n, fault.AllStuckAt(n))
		for _, mode := range []struct {
			tag     string
			workers int
		}{
			{"serial", 1},
			{"parallel", runtime.NumCPU()},
		} {
			b.Run(name+"/"+mode.tag, func(b *testing.B) {
				b.ReportAllocs()
				var res *Result
				for i := 0; i < b.N; i++ {
					view := coldView(b, n)
					var err error
					res, err = GenerateTests(view, faults, FlowOptions{
						RandomPatterns: 16, Seed: 3, Compact: true, Parallelism: mode.workers,
					})
					if err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(res.PODEMCalls), "podem_calls")
				b.ReportMetric(float64(len(res.Tests)), "tests")
				b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "flows_per_sec")
			})
		}
	}
	b.Run("mul8/drop-vs-nodrop", func(b *testing.B) {
		n := circuits.ArrayMultiplier(8)
		faults := fault.Collapse(n, fault.AllStuckAt(n))
		var drop, nodrop *Result
		for i := 0; i < b.N; i++ {
			dropView, nodropView := coldView(b, n), coldView(b, n)
			var err error
			// No random bootstrap: the deterministic phase carries the
			// whole fault list, isolating the dropping effect.
			drop, err = GenerateTests(dropView, faults, FlowOptions{Seed: 3, Compact: true})
			if err != nil {
				b.Fatal(err)
			}
			nodrop, err = GenerateTests(nodropView, faults, FlowOptions{Seed: 3, Compact: true, NoDrop: true})
			if err != nil {
				b.Fatal(err)
			}
		}
		if drop.PODEMCalls >= nodrop.PODEMCalls {
			b.Fatalf("dropping must reduce PODEM calls on mul8: %d (drop) >= %d (no-drop)",
				drop.PODEMCalls, nodrop.PODEMCalls)
		}
		b.ReportMetric(float64(drop.PODEMCalls), "podem_calls_drop")
		b.ReportMetric(float64(nodrop.PODEMCalls), "podem_calls_nodrop")
		b.Logf("mul8 (%d faults): %d PODEM calls with dropping vs %d without (%.1fx fewer)",
			len(faults), drop.PODEMCalls, nodrop.PODEMCalls,
			float64(nodrop.PODEMCalls)/float64(drop.PODEMCalls))
	})
}

// coldView returns a clone of n, compiled, with an empty verdict table,
// made with the benchmark timer stopped.
func coldView(b *testing.B, n *netlist.Netlist) *netlist.Netlist {
	b.StopTimer()
	defer b.StartTimer()
	view := n.Clone()
	if _, err := sim.Compile(view); err != nil {
		b.Fatal(err)
	}
	return view
}

// BenchmarkClassifyFaultsMul8 times the PODEM classification of mul8's
// collapsed fault list — the safety cross-check's critical path.
//
// cold classifies a fresh clone per iteration, so every fault is
// searched: it reports the cost per search, the (deterministic)
// backtrack count and the mean gates evaluated per implication step; a
// full dual pass evaluates every combinational gate, reported as
// gate-evals/full-pass. warm classifies one netlist over and over, as
// every campaign job after the first does: every verdict is a table hit
// (hits/op), and ns/verdict is the cost of serving one.
func BenchmarkClassifyFaultsMul8(b *testing.B) {
	n := circuits.ArrayMultiplier(8)
	faults := fault.Collapse(n, fault.AllStuckAt(n))
	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		calls, backtracks := 0, 0
		for i := 0; i < b.N; i++ {
			cls, err := ClassifyFaults(coldView(b, n), faults, Options{})
			if err != nil {
				b.Fatal(err)
			}
			calls += cls.Calls
			backtracks += cls.Backtracks
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(calls), "ns/podem-call")
		b.ReportMetric(float64(backtracks)/float64(b.N), "backtracks/op")
		// The implication profile, from one raw pass outside the timer.
		b.StopTimer()
		eng, err := NewEngine(n, Options{})
		if err != nil {
			b.Fatal(err)
		}
		for _, f := range faults {
			eng.Generate(f)
		}
		b.ReportMetric(float64(eng.implyEvals)/float64(eng.implies), "gate-evals/imply")
		b.ReportMetric(float64(eng.c.ScheduleLen()), "gate-evals/full-pass")
	})
	b.Run("warm", func(b *testing.B) {
		view := coldView(b, n)
		if _, err := ClassifyFaults(view, faults, Options{}); err != nil {
			b.Fatal(err)
		}
		searches0, hits0 := obsPODEMCalls.Value(), obsVerdictHits.Value()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := ClassifyFaults(view, faults, Options{}); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		if s := obsPODEMCalls.Value() - searches0; s != 0 {
			b.Fatalf("a warm table ran %d searches", s)
		}
		hits := float64(obsVerdictHits.Value() - hits0)
		b.ReportMetric(hits/float64(b.N), "hits/op")
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/hits, "ns/verdict")
	})
}
