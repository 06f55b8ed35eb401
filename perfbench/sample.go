package main

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"time"

	"rescue/internal/campaign"
	"rescue/internal/obs"
)

// sampleResult is what one sample process reports to the run. Every
// value is this sample's own; nothing is summed across samples.
type sampleResult struct {
	// Metrics are the end-to-end metrics, measured with tracing off.
	Metrics map[string]float64 `json:"metrics"`
	// Layers are the per-layer metrics of a traced sample.
	Layers map[string]float64 `json:"layers,omitempty"`
	// Work holds the campaign workloads' exact work counts, which must
	// repeat across the samples of one seed.
	Work      map[string]float64 `json:"work,omitempty"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	// Problems lists failed output checks: digest mismatches and replay
	// fidelity failures.
	Problems []string `json:"problems,omitempty"`
}

// sampleMode selects how far a sample process goes.
type sampleMode int

const (
	// modeSetup sets up, reports setup_s and stops: extra set-ups make
	// setup_s a median over more values than a run has samples.
	modeSetup sampleMode = iota
	// modeMeasure measures the end-to-end metrics with tracing off.
	modeMeasure
	// modeTrace measures, then replays the work for the per-layer
	// metrics.
	modeTrace
)

var sampleModes = map[string]sampleMode{"setup": modeSetup, "measure": modeMeasure, "trace": modeTrace}

func newSample() *sampleResult {
	return &sampleResult{Metrics: make(map[string]float64)}
}

func (s *sampleResult) problem(format string, args ...any) {
	s.Problems = append(s.Problems, fmt.Sprintf(format, args...))
}

// latencyMetrics sets the median and p90 of latencies (ms).
func (s *sampleResult) latencyMetrics(ms []float64) error {
	p90, err := tailPercentile(ms, 0.9)
	if err != nil {
		return fmt.Errorf("result latency: %v", err)
	}
	s.Metrics["result_latency_p50_ms"] = median(ms)
	s.Metrics["result_latency_p90_ms"] = p90
	return nil
}

// isWorkCount selects the registry counters whose per-sample deltas
// must repeat exactly at one seed: the ATPG, simulation and fault-sim
// work counts (timings excluded).
func isWorkCount(name string) bool {
	if !strings.HasSuffix(name, "_total") {
		return false
	}
	for _, p := range []string{"atpg_", "sim_", "faultsim_"} {
		if strings.HasPrefix(name, p) {
			return true
		}
	}
	return false
}

// campaignSample runs one sample of a campaign workload: its matrices
// back to back through campaign.Run in this (fresh) process, so the
// stage cache and circuit-artifact cache start cold. t0 is when the
// run started this sample's process.
func campaignSample(ctx context.Context, workload string, seed int64, mode sampleMode, t0 time.Time) (*sampleResult, error) {
	mats, err := campaignMatrices(workload, seed)
	if err != nil {
		return nil, err
	}
	digests, err := storedDigests()
	if err != nil {
		return nil, err
	}
	res := newSample()
	workers := runtime.NumCPU()
	before := obs.Default.Snapshot()
	res.Metrics["setup_s"] = time.Since(t0).Seconds()
	if mode == modeSetup {
		return res, nil
	}
	heap := startHeapPeak()

	var (
		sums        []*campaign.Summary
		wall, slots float64 // Σ Run wall, Σ wall × pool size
		jobSeconds  float64
		longest     float64
		latencies   []float64
	)
	for _, m := range mats {
		start := time.Now()
		sum, err := campaign.Run(ctx, m, campaign.Config{Parallelism: workers})
		w := time.Since(start).Seconds()
		if err != nil {
			return nil, fmt.Errorf("campaign.Run %s seed %d: %v", workload, m.Seed, err)
		}
		wall += w
		slots += w * float64(min(workers, sum.Jobs))
		for _, r := range sum.Results {
			res.Attempted++
			el := r.Elapsed.Seconds()
			jobSeconds += el
			longest = max(longest, el)
			latencies = append(latencies, 1000*el)
			if r.Err != "" {
				res.Failed++
			}
		}
		d, err := semanticDigest(sum)
		if err != nil {
			return nil, err
		}
		if want := digests[digestKey(workload, m)]; d != want {
			res.problem("%s seed %d: output digest %s, stored %s", workload, m.Seed, d, want)
		}
		sums = append(sums, sum)
	}
	after := obs.Default.Snapshot()
	res.Metrics["peak_heap_mb"] = heap.Stop()
	res.Metrics["jobs_per_sec"] = float64(res.Attempted-res.Failed) / wall
	res.Metrics["error_rate"] = float64(res.Failed) / float64(res.Attempted)
	if err := res.latencyMetrics(latencies); err != nil {
		return nil, err
	}
	res.Work = map[string]float64{"jobs": float64(res.Attempted)}
	for k, v := range after {
		if isWorkCount(k) {
			res.Work[k] = v - before[k]
		}
	}
	if mode != modeTrace {
		return res, nil
	}

	l := make(map[string]float64)
	delta := func(k string) float64 { return after[k] - before[k] }
	hits, misses, waits := delta("campaign_stage_cache_hits_total"), delta("campaign_stage_cache_misses_total"), delta("campaign_stage_cache_waits_total")
	l["campaign.busy_share"] = jobSeconds / slots
	l["campaign.longest_job_s"] = longest
	l["campaign.stage_cache.hit_ratio"] = ratio(hits, hits+misses+waits)
	l["campaign.stage_cache.waits"] = waits
	l["campaign.artifact_cache.misses"] = delta("artifact_cache_misses_total")
	var jobs []replayJob
	for i, sum := range sums {
		for _, r := range sum.Results {
			jobs = append(jobs, replayJob{r, mats[i].Seed})
		}
	}
	for _, err := range replay(ctx, jobs, l) {
		res.problem("%v", err)
	}
	for _, k := range serverLayerNames {
		l[k] = 0 // no server in a campaign workload
	}
	res.Layers = l
	return res, nil
}
