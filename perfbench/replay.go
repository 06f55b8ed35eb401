package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"time"

	"rescue/internal/atpg"
	"rescue/internal/campaign"
	"rescue/internal/circuits"
	"rescue/internal/core"
	"rescue/internal/fault"
	"rescue/internal/netlist"
	"rescue/internal/obs"
	"rescue/internal/sim"
)

// The traced run replays every job through core.RunStages, one stage
// per call, with a span and obs counter deltas around each call. Timing
// below the stage boundary waits for spans inside the program; copying
// stage internals here would break the first time a stage changes.

// span is one timed call into a module, with the obs counter deltas
// taken at the same boundaries.
type span struct {
	Seconds float64
	Deltas  map[string]float64
}

// traced runs f between two registry snapshots and records the span.
func traced(f func() error) (span, error) {
	before := obs.Default.Snapshot()
	start := time.Now()
	err := f()
	sec := time.Since(start).Seconds()
	after := obs.Default.Snapshot()
	d := make(map[string]float64, len(after))
	for k, v := range after {
		if dv := v - before[k]; dv != 0 {
			d[k] = dv
		}
	}
	return span{Seconds: sec, Deltas: d}, err
}

// replayCircuit is the replay's copy of the per-circuit inputs the
// campaign engine derives: the flow netlist (full-scan view of a
// sequential circuit) and its collapsed stuck-at fault list.
type replayCircuit struct {
	n      *netlist.Netlist
	faults fault.List
}

// stageTotals accumulates one stage's replayed spans.
type stageTotals struct {
	seconds    float64
	calls      int
	faults     int
	podem      float64
	backtracks float64
}

// replayer replays jobs one stage per core.RunStages call. A tracing
// replayer wraps each call in a span; an untraced one makes the same
// calls bare, so the two differ only by the tracing.
type replayer struct {
	trace    bool
	circuits map[string]*replayCircuit
	stages   map[core.StageID]*stageTotals
	counts   map[string]float64 // summed span deltas
	seconds  float64            // summed wall time of job calls
}

func newReplayer(trace bool) *replayer {
	rp := &replayer{
		trace:    trace,
		circuits: make(map[string]*replayCircuit),
		stages:   make(map[core.StageID]*stageTotals),
		counts:   make(map[string]float64),
	}
	for _, id := range core.AllStages() {
		rp.stages[id] = &stageTotals{}
	}
	return rp
}

func (rp *replayer) circuit(name string) (*replayCircuit, error) {
	if c, ok := rp.circuits[name]; ok {
		return c, nil
	}
	ctor, ok := circuits.Registry[name]
	if !ok {
		return nil, fmt.Errorf("replay: unknown circuit %q", name)
	}
	n := ctor()
	if n.IsSequential() {
		sv, err := atpg.ScanView(n)
		if err != nil {
			return nil, fmt.Errorf("replay: scan view of %s: %v", name, err)
		}
		n = sv.Comb
	}
	if _, err := sim.Compile(n); err != nil {
		return nil, fmt.Errorf("replay: compiling %s: %v", name, err)
	}
	c := &replayCircuit{n: n, faults: fault.Collapse(n, fault.AllStuckAt(n))}
	rp.circuits[name] = c
	return c, nil
}

// replayJob is one campaign job to replay and its matrix's base seed.
type replayJob struct {
	r    campaign.Result
	base int64
}

// replay replays jobs twice, traced and untraced, job by job with the
// order of the two alternating, each on its own circuits so both start
// with the netlists' caches cold. It renders the traced replay's
// per-layer metrics into out, with trace.overhead_share comparing the
// two replays' time for the same work, and returns the fidelity
// failures.
func replay(ctx context.Context, jobs []replayJob, out map[string]float64) []error {
	rt, ru := newReplayer(true), newReplayer(false)
	var errs []error
	for i, j := range jobs {
		pair := []*replayer{rt, ru}
		if i%2 == 1 {
			pair[0], pair[1] = ru, rt
		}
		for _, rp := range pair {
			start := time.Now()
			err := rp.job(ctx, j.r, j.base)
			rp.seconds += time.Since(start).Seconds()
			if err != nil && rp.trace {
				errs = append(errs, err)
			}
		}
	}
	rt.layers(out)
	out["trace.overhead_share"] = ratio(rt.seconds, ru.seconds) - 1
	return errs
}

// job replays one unsharded campaign job of a matrix with base seed
// base, and checks that the per-stage reports, merged, are byte for
// byte the report campaign.Run produced.
func (rp *replayer) job(ctx context.Context, r campaign.Result, base int64) error {
	j := r.Job
	if j.Shards > 1 {
		return fmt.Errorf("replay: %s is sharded; the benchmark runs no sharded matrix", j.Name())
	}
	c, err := rp.circuit(j.Circuit)
	if err != nil {
		return err
	}
	stages, err := j.Scenario.Stages()
	if err != nil {
		return err
	}
	coords := core.StageCoords{Circuit: j.Circuit, Environment: j.Environment, Technology: j.Technology, Shard: j.Shard, Shards: j.Shards}
	seeds := make(map[core.StageID]int64, len(stages))
	for _, id := range stages {
		seeds[id] = core.DeriveStageSeed(base, id, coords)
	}
	cfg := core.FlowConfig{
		Netlist:     c.n,
		Faults:      c.faults,
		Environment: campaign.Environments[j.Environment],
		Technology:  campaign.Technologies[j.Technology],
		Years:       j.Years,
		Patterns:    j.Patterns,
		Seed:        j.Seed,
		StageSeeds:  seeds,
	}
	merged := &core.Report{}
	for _, id := range stages {
		var rep *core.Report
		run := func() error {
			var err error
			rep, err = core.RunStages(ctx, cfg, id)
			return err
		}
		if rp.trace {
			sp, err := traced(run)
			if err != nil {
				return fmt.Errorf("replay %s stage %s: %v", j.Name(), id, err)
			}
			rp.add(id, sp, len(c.faults))
		} else if err := run(); err != nil {
			return fmt.Errorf("replay %s stage %s: %v", j.Name(), id, err)
		}
		merged.Design, merged.Years = rep.Design, rep.Years
		merged.Stages = append(merged.Stages, rep.Stages...)
		switch id {
		case core.StageQuality:
			merged.Quality = rep.Quality
		case core.StageReliability:
			merged.Reliability = rep.Reliability
		case core.StageSafety:
			merged.Safety = rep.Safety
		case core.StageSecurity:
			merged.Security = rep.Security
		}
	}
	got, err := json.Marshal(merged)
	if err != nil {
		return err
	}
	want, err := json.Marshal(r.Report)
	if err != nil {
		return err
	}
	if !bytes.Equal(got, want) {
		return fmt.Errorf("replay fidelity: %s per-stage report differs from campaign.Run's\n replay:   %s\n campaign: %s", j.Name(), got, want)
	}
	return nil
}

func (rp *replayer) add(id core.StageID, sp span, faults int) {
	t := rp.stages[id]
	t.seconds += sp.Seconds
	t.calls++
	t.faults += faults
	t.podem += sp.Deltas["atpg_podem_calls_total"]
	t.backtracks += sp.Deltas["atpg_backtracks_total"]
	for k, v := range sp.Deltas {
		rp.counts[k] += v
	}
}

// layers renders a traced replay's per-layer metrics.
func (rp *replayer) layers(out map[string]float64) {
	for _, id := range core.AllStages() {
		t := rp.stages[id]
		out["core."+id.String()+".s"] = t.seconds
		out["core."+id.String()+".calls"] = float64(t.calls)
	}
	q, s := rp.stages[core.StageQuality], rp.stages[core.StageSafety]
	out["atpg.podem_calls.quality"] = q.podem
	out["atpg.podem_calls.safety"] = s.podem
	out["atpg.backtracks.quality"] = q.backtracks
	out["atpg.backtracks.safety"] = s.backtracks
	out["atpg.us_per_podem_call"] = ratio(1e6*(q.seconds+s.seconds), q.podem+s.podem)
	out["atpg.safety.podem_calls_per_fault"] = ratio(s.podem, float64(s.faults))
	out["faultsim.patterns"] = rp.counts["faultsim_patterns_total"]
	out["sim.gate_evals"] = rp.counts["sim_gate_evals_total"]
	out["sim.cone_evals"] = rp.counts["sim_cone_evals_total"]
	hits, misses := rp.counts["cone_cache_hits_total"], rp.counts["cone_cache_misses_total"]
	out["netlist.cone_cache.hit_ratio"] = ratio(hits, hits+misses)
}

// ratio is a/b, or 0 when nothing was counted.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
