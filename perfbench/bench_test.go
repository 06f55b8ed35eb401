package main

import (
	"context"
	"encoding/json"
	"math"
	"net"
	"os"
	"reflect"
	"slices"
	"sort"
	"testing"
	"time"

	"rescue/internal/campaign"
	"rescue/internal/core"
)

func TestQuartilesMatchPython(t *testing.T) {
	// Expected values from Python's statistics.quantiles(xs, n=4) and
	// statistics.median(xs).
	for _, tc := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{5, 1}, 0, 3, 6},
		{[]float64{2.5, 9, 4, 7.25, 1, 3}, 2.125, 3.5, 7.6875},
	} {
		q1, q2, q3 := quartiles(tc.xs)
		if q1 != tc.q1 || q2 != tc.q2 || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", tc.xs, q1, q2, q3, tc.q1, tc.q2, tc.q3)
		}
		if m := median(tc.xs); m != tc.q2 {
			t.Errorf("median(%v) = %v, want %v", tc.xs, m, tc.q2)
		}
	}
	if q1, q2, q3 := quartiles([]float64{7}); q1 != 7 || q2 != 7 || q3 != 7 {
		t.Errorf("quartiles of one value = %v %v %v, want 7 7 7", q1, q2, q3)
	}
	s := summarize([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, "ms")
	if got, want := s.spread(), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, want)
	}
}

func TestTailPercentileNeedsTenBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[n-1-i] = float64(i + 1) // descending: the function must sort
		}
		return xs
	}
	if _, err := tailPercentile(seq(99), 0.9); err == nil {
		t.Error("p90 of 99 samples has 9 beyond it and must be refused")
	}
	v, err := tailPercentile(seq(100), 0.9)
	if err != nil || v != 90 {
		t.Errorf("p90 of 1..100 = %v, %v; want 90", v, err)
	}
	if _, err := tailPercentile(seq(19), 0.5); err == nil {
		t.Error("p50 of 19 samples has 9 beyond it and must be refused")
	}
	if v, err := tailPercentile(seq(20), 0.5); err != nil || v != 10 {
		t.Errorf("p50 of 1..20 = %v, %v; want 10", v, err)
	}
}

func TestServerScheduleIsSeeded(t *testing.T) {
	a := serverSchedule(7, serverRunsPerSample, 40)
	if b := serverSchedule(7, serverRunsPerSample, 40); !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave two different schedules")
	}
	if c := serverSchedule(8, serverRunsPerSample, 40); reflect.DeepEqual(a, c) {
		t.Error("seeds 7 and 8 gave the same schedule")
	}
	digests, err := storedDigests()
	if err != nil {
		t.Fatal(err)
	}
	distinct := make(map[string]bool)
	for i, r := range a {
		if want := time.Duration(i) * 25 * time.Millisecond; r.Due != want {
			t.Fatalf("run %d due at %v, want %v (fixed 40/s rate)", i, r.Due, want)
		}
		if r.PollPhase < 0 || r.PollPhase >= pollInterval {
			t.Errorf("run %d polls at phase %v, outside [0, %v)", i, r.PollPhase, pollInterval)
		}
		key := digestKey(serverMixed, r.Matrix)
		if digests[key] == "" {
			t.Errorf("run %d: no stored digest for %s", i, key)
		}
		distinct[key] = true
	}
	// Every pool matrix arrives once; the other runs repeat one.
	if len(distinct) != len(serverCircuits)*serverSeedPool {
		t.Errorf("%d distinct matrices, want the whole pool of %d", len(distinct), len(serverCircuits)*serverSeedPool)
	}
}

func TestCampaignMatricesAreSeeded(t *testing.T) {
	for _, w := range []string{holisticRegistry, reliabilitySweep} {
		a, err := campaignMatrices(w, 3)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := campaignMatrices(w, 3)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: the same seed gave different matrices", w)
		}
		seen := make(map[int64]bool)
		for _, m := range a {
			if seen[m.Seed] || m.Seed < 1 || m.Seed > basePool {
				t.Errorf("%s: base seed %d repeated or outside the pool", w, m.Seed)
			}
			seen[m.Seed] = true
		}
	}
}

func TestStoredDigestsCoverEveryInput(t *testing.T) {
	digests, err := storedDigests()
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, w := range workloadNames {
		for _, m := range inputPool(w) {
			n++
			if digests[digestKey(w, m)] == "" {
				t.Errorf("no stored digest for %s", digestKey(w, m))
			}
		}
	}
	if n != len(digests) {
		t.Errorf("%d stored digests for %d pool matrices", len(digests), n)
	}
}

func TestOpenLoopDoesNotWaitForEarlierRuns(t *testing.T) {
	sched := serverSchedule(1, 4, 100) // due every 10 ms
	later := make(chan struct{}, len(sched))
	out := driveOpenLoop(context.Background(), sched, func(_ context.Context, r scheduledRun, due time.Time) runOutcome {
		if r.Due > 0 {
			later <- struct{}{}
			return runOutcome{LagMs: ms(time.Since(due))}
		}
		// The first run stalls until every later run has been sent.
		for range len(sched) - 1 {
			select {
			case <-later:
			case <-time.After(5 * time.Second):
				return runOutcome{Err: "later runs waited for the first"}
			}
		}
		return runOutcome{}
	})
	if out.runs[0].Err != "" {
		t.Fatal(out.runs[0].Err)
	}
	for i, o := range out.runs[1:] {
		if o.LagMs < 0 {
			t.Errorf("run %d started %v ms before it was due", i+1, -o.LagMs)
		}
	}
}

func TestSubmitRunTimesLatencyFromDue(t *testing.T) {
	srv, err := campaign.NewServer(campaign.ServerConfig{BaseDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, stop := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ctx, ln) }()
	defer func() {
		stop()
		<-served
	}()
	base := "http://" + ln.Addr().String()
	client := newLoadClients()
	defer client.close()

	m := serverMatrix("c17", 1)
	sum, err := campaign.Run(context.Background(), m, campaign.Config{DisableStageCache: true})
	if err != nil {
		t.Fatal(err)
	}
	want, err := semanticDigest(sum)
	if err != nil {
		t.Fatal(err)
	}
	digests := map[string]string{digestKey(serverMixed, m): want}
	due := time.Now().Add(-200 * time.Millisecond) // the generator ran 200 ms late
	o := submitRun(ctx, client, base, scheduledRun{Matrix: m}, due, digests)
	if !o.ok() {
		t.Fatalf("run failed: %+v", o)
	}
	if o.LagMs < 200 {
		t.Errorf("lag %.1f ms, want at least the 200 ms the send was late", o.LagMs)
	}
	if o.LatencyMs < o.LagMs+o.AdmitMs+o.FetchMs {
		t.Errorf("latency %.1f ms is shorter than lag+admit+fetch %.1f ms: not timed from the due time",
			o.LatencyMs, o.LagMs+o.AdmitMs+o.FetchMs)
	}
	digests[digestKey(serverMixed, m)] = "0"
	if o := submitRun(ctx, client, base, scheduledRun{Matrix: m}, time.Now(), digests); o.Mismatch == "" || o.ok() {
		t.Errorf("a wrong result digest went unnoticed: %+v", o)
	}
}

func TestDigestIgnoresOnlySearchCost(t *testing.T) {
	rep := core.Report{
		Design: "x", Years: 10, Stages: []string{"quality", "reliability", "safety"},
		Quality:     core.QualityReport{Faults: 10, TestCoverage: 0.9, TestCount: 4, PODEMCalls: 5, Backtracks: 7},
		Reliability: core.ReliabilityReport{Faults: 10, SDCRate: 0.25},
		Safety:      core.SafetyReport{SPFM: 0.8, Suspicious: 1, CrossCheckBacktracks: 9},
	}
	digestOf := func(f func(*core.Report)) string {
		r := rep
		f(&r)
		sum := &campaign.Summary{Jobs: 1, Completed: 1, Results: []campaign.Result{{Job: campaign.Job{Circuit: "x"}, Report: &r}}}
		d, err := semanticDigest(sum)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	base := digestOf(func(*core.Report) {})
	for name, f := range map[string]func(*core.Report){
		"Quality.PODEMCalls":          func(r *core.Report) { r.Quality.PODEMCalls = 1 },
		"Quality.Backtracks":          func(r *core.Report) { r.Quality.Backtracks = 1 },
		"Safety.CrossCheckBacktracks": func(r *core.Report) { r.Safety.CrossCheckBacktracks = 1 },
	} {
		if digestOf(f) != base {
			t.Errorf("changing %s changed the digest; it is search cost, not a result", name)
		}
	}
	for name, f := range map[string]func(*core.Report){
		"Quality.TestCoverage": func(r *core.Report) { r.Quality.TestCoverage = 0.8 },
		"Quality.TestCount":    func(r *core.Report) { r.Quality.TestCount = 5 },
		"Reliability.SDCRate":  func(r *core.Report) { r.Reliability.SDCRate = 0.5 },
		"Safety.Suspicious":    func(r *core.Report) { r.Safety.Suspicious = 0 },
		"Stages":               func(r *core.Report) { r.Stages = r.Stages[:1] },
	} {
		if digestOf(f) == base {
			t.Errorf("changing %s left the digest unchanged", name)
		}
	}
	sum := &campaign.Summary{Results: []campaign.Result{{Report: &rep}}}
	if _, err := semanticDigest(sum); err != nil || rep.Quality.PODEMCalls != 5 || rep.Safety.CrossCheckBacktracks != 9 {
		t.Error("semanticDigest modified the report it hashed")
	}
}

func TestReplayMatchesCampaignRun(t *testing.T) {
	ctx := context.Background()
	m := campaign.Matrix{
		Circuits:     []string{"c17", "s27"}, // s27 is sequential: the replay takes its scan view
		Environments: []string{"sea-level", "LEO"},
		Scenarios:    []campaign.Scenario{campaign.ScenarioHolistic, campaign.ScenarioReliability},
		Patterns:     32, Years: agingYears, Seed: 5,
	}
	sum, err := campaign.Run(ctx, m, campaign.Config{})
	if err != nil {
		t.Fatal(err)
	}
	var jobs []replayJob
	for _, r := range sum.Results {
		jobs = append(jobs, replayJob{r, m.Seed})
	}
	l := make(map[string]float64)
	for _, err := range replay(ctx, jobs, l) {
		t.Error(err)
	}
	if l["core.quality.calls"] != 4 || l["core.reliability.calls"] != 8 {
		t.Errorf("stage calls quality %v reliability %v, want 4 and 8", l["core.quality.calls"], l["core.reliability.calls"])
	}
	if l["atpg.safety.podem_calls_per_fault"] <= 0 {
		t.Error("no safety PODEM calls counted inside the stage spans")
	}
	if _, ok := l["trace.overhead_share"]; !ok || l["trace.overhead_share"] <= -1 {
		t.Errorf("trace.overhead_share = %v, ok %v: the untraced replay was not timed", l["trace.overhead_share"], ok)
	}
	r := sum.Results[0]
	tampered := *r.Report
	tampered.Quality.TestCount++
	r.Report = &tampered
	if err := newReplayer(true).job(ctx, r, m.Seed); err == nil {
		t.Error("replay fidelity accepted a report that differs from the replay")
	}
}

func TestLayerMapMatchesSpec(t *testing.T) {
	spec, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile("layers.json")
	if err != nil {
		t.Fatal(err)
	}
	var lm struct {
		Layers []struct {
			Metric string `json:"metric"`
		} `json:"layers"`
	}
	if err := json.Unmarshal(raw, &lm); err != nil {
		t.Fatal(err)
	}
	var mapped, specified []string
	for _, l := range lm.Layers {
		mapped = append(mapped, l.Metric)
	}
	for _, m := range spec.PerLayer {
		specified = append(specified, m.Name)
	}
	sort.Strings(mapped)
	sort.Strings(specified)
	if !reflect.DeepEqual(mapped, specified) {
		t.Errorf("layers.json maps %v\nBENCHMARK.json lists %v", mapped, specified)
	}
	for _, n := range serverLayerNames {
		if !slices.Contains(specified, n) {
			t.Errorf("server layer %s missing from BENCHMARK.json", n)
		}
	}
}

func TestCompareRefusesMixedCohorts(t *testing.T) {
	a := &runRecord{Workload: holisticRegistry, Seed: 1, Seconds: 40, Cohort: cohort{Host: "h", NumCPU: 2, GOMAXPROCS: 2, GoVersion: "go1.24.0"}}
	b := *a
	if err := checkComparable(a, &b); err != nil {
		t.Errorf("same cohort and workload refused: %v", err)
	}
	for name, f := range map[string]func(*runRecord){
		"host":       func(r *runRecord) { r.Cohort.Host = "other" },
		"num_cpu":    func(r *runRecord) { r.Cohort.NumCPU = 4 },
		"GOMAXPROCS": func(r *runRecord) { r.Cohort.GOMAXPROCS = 1 },
		"Go version": func(r *runRecord) { r.Cohort.GoVersion = "go1.23.0" },
		"workload":   func(r *runRecord) { r.Workload = serverMixed },
		"trace mode": func(r *runRecord) { r.Trace = true },
		"seed":       func(r *runRecord) { r.Seed = 2 },
		"seconds":    func(r *runRecord) { r.Seconds = 20 },
	} {
		c := *a
		f(&c)
		if err := checkComparable(a, &c); err == nil {
			t.Errorf("records differing in %s were compared", name)
		}
	}
}
