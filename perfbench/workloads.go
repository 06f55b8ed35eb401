package main

import (
	"fmt"
	"math/rand/v2"
	"time"

	"rescue/internal/campaign"
	"rescue/internal/circuits"
)

// The three workloads. Each stresses different layers, so a change to
// one layer predicts a gain on one workload and no change on another:
//
//   - holistic-registry is the end-to-end profile, PODEM-bound: mul8's
//     quality ATPG and safety cross-check set the critical path, and no
//     stage key repeats, so the stage cache and the fault-sim kernel do
//     almost nothing.
//   - reliability-sweep has zero PODEM calls: slicing and aging on the
//     scalar evaluator over 144 short jobs. It is the control for a
//     PODEM change and shows per-job scheduling overhead.
//   - server-mixed drives the multi-run HTTP server open-loop with
//     about 40% of its runs repeating an earlier matrix, exercising the
//     admission, fsync, queue and stage-cache layers the campaign
//     workloads skip.
const (
	holisticRegistry = "holistic-registry"
	reliabilitySweep = "reliability-sweep"
	serverMixed      = "server-mixed"
)

var workloadNames = []string{holisticRegistry, reliabilitySweep, serverMixed}

const (
	// basePool is how many campaign base seeds each campaign workload
	// draws from; every one has a stored digest.
	basePool = 12
	// holisticSeedsPerSample base seeds run back to back per sample:
	// 6 × 18 jobs reach the 100 job latencies a p90 needs, and several
	// seeds average out mul8's per-seed ATPG cost.
	holisticSeedsPerSample = 6
	// sweepSeedsPerSample × 144 jobs lengthens a sample past 2 s.
	sweepSeedsPerSample = 3

	campaignPatterns = 32
	sweepPatterns    = 4096
	agingYears       = 10

	// serverSeedPool base seeds × the mid-size circuits are the
	// server's 70 distinct matrices. 120 runs per sample give the p90
	// of result latency 12 samples beyond it.
	serverSeedPool      = 10
	serverRunsPerSample = 120

	// serverRate is the open-loop arrival rate (runs/s), about half the
	// server's capacity on a 2-vCPU host. serverSLOMs is the result
	// latency limit behind slo_miss_share. BENCHMARK.json's server-mixed
	// reason records both.
	serverRate  = 20
	serverSLOMs = 250
)

// serverCircuits is the mid-size registry set (80–250 gates). mul8 is
// left out: its ~2 s job would make the latency tail a lottery over
// arrival order.
var serverCircuits = []string{"alu8", "cmp8", "mul4", "parity64", "rca16", "rca32", "tmr8"}

func holisticMatrix(base int64) campaign.Matrix {
	return campaign.Matrix{
		Circuits:  circuits.Names(),
		Scenarios: []campaign.Scenario{campaign.ScenarioHolistic},
		Patterns:  campaignPatterns,
		Years:     agingYears,
		Seed:      base,
	}
}

func sweepMatrix(base int64) campaign.Matrix {
	return campaign.Matrix{
		Circuits:     circuits.Names(),
		Environments: []string{"sea-level", "LEO", "GEO", "avionics"},
		Technologies: []string{"28nm", "7nm"},
		Scenarios:    []campaign.Scenario{campaign.ScenarioReliability},
		Patterns:     sweepPatterns,
		Years:        agingYears,
		Seed:         base,
	}
}

func serverMatrix(circuit string, base int64) campaign.Matrix {
	return campaign.Matrix{
		Circuits:  []string{circuit},
		Scenarios: []campaign.Scenario{campaign.ScenarioHolistic},
		Patterns:  campaignPatterns,
		Years:     agingYears,
		Seed:      base,
	}
}

// inputPool lists every matrix a workload can run, whatever the seed.
func inputPool(workload string) []campaign.Matrix {
	var out []campaign.Matrix
	switch workload {
	case holisticRegistry, reliabilitySweep:
		for b := int64(1); b <= basePool; b++ {
			if workload == holisticRegistry {
				out = append(out, holisticMatrix(b))
			} else {
				out = append(out, sweepMatrix(b))
			}
		}
	case serverMixed:
		for _, c := range serverCircuits {
			for b := int64(1); b <= serverSeedPool; b++ {
				out = append(out, serverMatrix(c, b))
			}
		}
	}
	return out
}

func workloadRand(workload string, seed int64) *rand.Rand {
	var h uint64
	for _, c := range workload {
		h = h*31 + uint64(c)
	}
	return rand.New(rand.NewPCG(uint64(seed), h))
}

// campaignMatrices returns the matrices one sample of a campaign
// workload runs back to back: distinct base seeds drawn from the pool
// by the workload seed. Every sample of a run gets the same list.
func campaignMatrices(workload string, seed int64) ([]campaign.Matrix, error) {
	var k int
	var build func(int64) campaign.Matrix
	switch workload {
	case holisticRegistry:
		k, build = holisticSeedsPerSample, holisticMatrix
	case reliabilitySweep:
		k, build = sweepSeedsPerSample, sweepMatrix
	default:
		return nil, fmt.Errorf("%q is not a campaign workload", workload)
	}
	perm := workloadRand(workload, seed).Perm(basePool)
	out := make([]campaign.Matrix, k)
	for i := range out {
		out[i] = build(int64(perm[i] + 1))
	}
	return out, nil
}

// scheduledRun is one open-loop arrival: the matrix and when it is due,
// relative to the start of the schedule. PollPhase, in [0,
// pollInterval), is how long after admission the run's first status
// poll goes out.
type scheduledRun struct {
	Due       time.Duration
	Matrix    campaign.Matrix
	PollPhase time.Duration
}

// serverSchedule is the open-loop arrival list of one server sample:
// n runs at a fixed rate. The design is stratified so that the workload
// seed changes which matrices arrive when, but not how much work a
// sample holds: every mid-size circuit gets an equal share of the runs,
// each of its pool seeds arrives once as a fresh matrix (a stage-cache
// insert plus compute), and its remaining runs repeat one of those
// (stage-cache reads plus checkpoint writes). With 120 runs that is 70
// fresh and 50 repeats, so the median result lies among the fresh runs
// rather than in the gap between the two kinds. Arrivals do not wait
// for earlier results.
func serverSchedule(seed int64, n int, ratePerSec float64) []scheduledRun {
	rng := workloadRand(serverMixed, seed)
	order := make([]string, n)
	for i := range order {
		order[i] = serverCircuits[i%len(serverCircuits)]
	}
	rng.Shuffle(n, func(i, j int) { order[i], order[j] = order[j], order[i] })
	appearances := make(map[string]int)
	for _, c := range order {
		appearances[c]++
	}
	seeds := make(map[string][]int64, len(serverCircuits))
	for _, c := range serverCircuits {
		k := appearances[c]
		fresh := min(k, serverSeedPool)
		perm := rng.Perm(serverSeedPool)
		list := make([]int64, k)
		for i := range list {
			if i < fresh {
				list[i] = int64(perm[i] + 1)
			} else {
				list[i] = int64(perm[rng.IntN(fresh)] + 1)
			}
		}
		rng.Shuffle(k, func(i, j int) { list[i], list[j] = list[j], list[i] })
		seeds[c] = list
	}
	interval := time.Duration(float64(time.Second) / ratePerSec)
	out := make([]scheduledRun, n)
	for i, c := range order {
		b := seeds[c][0]
		seeds[c] = seeds[c][1:]
		out[i] = scheduledRun{Due: time.Duration(i) * interval, Matrix: serverMatrix(c, b)}
	}
	for i := range out {
		out[i].PollPhase = time.Duration(rng.Int64N(int64(pollInterval)))
	}
	return out
}
