package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptrace"
	"os"
	"runtime"
	"strconv"
	"sync"
	"time"

	"rescue/internal/campaign"
	"rescue/internal/obs"
)

// serverLayerNames are the per-layer metrics only server-mixed
// measures; the campaign workloads report them as 0.
var serverLayerNames = []string{
	"server.admit_p50_ms", "server.admit_p90_ms", "server.result_fetch_p50_ms",
	"server.queue_wait_mean_ms", "server.job_mean_ms",
	"server.rejected_share", "server.status_polls_per_run", "loadgen.lag_p90_ms",
}

// pollInterval is how often a client polls a run's state. It bounds how
// late a finished run is noticed, so it is small against serverSLOMs,
// and long enough that polling takes little CPU from the server's
// executors. Each run polls at its own seeded phase
// (scheduledRun.PollPhase), so results are not noticed in lockstep
// 20 ms steps after their POSTs.
const pollInterval = 20 * time.Millisecond

// runTimeout bounds one run from its due time to its result; a run that
// exceeds it counts as failed.
const runTimeout = 60 * time.Second

// runOutcome is what the load generator saw of one scheduled run. All
// times are measured from the run's due time or the request's start.
type runOutcome struct {
	LagMs     float64 // how late the POST got a connection to go out on
	AdmitMs   float64 // connection → 202, including the checkpoint fsync
	FetchMs   float64 // GET /result
	LatencyMs float64 // due time → /result body read
	Done      time.Time
	Polls     int
	Admitted  bool   // 202
	Refused   bool   // 429
	Err       string // the run failed, was canceled or timed out
	Mismatch  string // the result's digest differs from the stored one
	Matrix    campaign.Matrix
	Result    *campaign.Summary
}

func (o *runOutcome) ok() bool { return !o.Refused && o.Err == "" && o.Mismatch == "" }

// serverSample runs one server-mixed sample: a fresh campaign.Server on
// a fresh base directory under tmp, driven open-loop over loopback HTTP
// at serverRate, each result checked against its stored digest.
func serverSample(ctx context.Context, seed int64, mode sampleMode, t0 time.Time, tmp string) (*sampleResult, error) {
	digests, err := storedDigests()
	if err != nil {
		return nil, err
	}
	sched := serverSchedule(seed, serverRunsPerSample, serverRate)
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(tmp, "server-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	res := newSample()
	heap := startHeapPeak()
	srv, err := campaign.NewServer(campaign.ServerConfig{BaseDir: dir})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	serveCtx, stop := context.WithCancel(ctx)
	served := make(chan error, 1)
	go func() { served <- srv.Serve(serveCtx, ln) }()
	defer func() {
		stop()
		<-served
	}()
	client := newLoadClients()
	defer client.close()
	base := "http://" + ln.Addr().String()
	if err := getJSON(ctx, client.poll, base+"/runs", &campaign.RunsPage{}); err != nil {
		return nil, fmt.Errorf("first GET /runs: %v", err)
	}
	res.Metrics["setup_s"] = time.Since(t0).Seconds()
	if mode == modeSetup {
		heap.Stop()
		return res, nil
	}

	// The server runs in this process, so its /metrics counters are
	// obs.Default's.
	before := obs.Default.Snapshot()
	out := driveOpenLoop(ctx, sched, func(ctx context.Context, r scheduledRun, due time.Time) runOutcome {
		return submitRun(ctx, client, base, r, due, digests)
	})
	end := time.Now()
	after := obs.Default.Snapshot()
	res.Metrics["peak_heap_mb"] = heap.Stop()

	start := out.start
	var latencies, admits, fetches, lags []float64
	var lastResult time.Time
	onTime, refused, polls, admitted := 0, 0, 0, 0
	for i := range out.runs {
		o := &out.runs[i]
		res.Attempted++
		lags = append(lags, o.LagMs)
		if o.Refused {
			refused++
		}
		if o.Admitted {
			admitted++
			admits = append(admits, o.AdmitMs)
			polls += o.Polls
		}
		if !o.ok() {
			res.Failed++
			if o.Mismatch != "" {
				res.problem("%s", o.Mismatch)
			}
			continue
		}
		latencies = append(latencies, o.LatencyMs)
		fetches = append(fetches, o.FetchMs)
		if o.Done.After(lastResult) {
			lastResult = o.Done
		}
		if o.LatencyMs <= serverSLOMs {
			onTime++
		}
	}
	// The window runs from the first arrival to the last result, so
	// every completed run's result arrived within it.
	res.Metrics["jobs_per_sec"] = float64(len(latencies)) / lastResult.Sub(start).Seconds()
	res.Metrics["error_rate"] = float64(res.Failed) / float64(res.Attempted)
	res.Metrics["slo_miss_share"] = float64(res.Attempted-onTime) / float64(res.Attempted)
	if err := res.latencyMetrics(latencies); err != nil {
		return nil, err
	}
	if mode != modeTrace {
		return res, nil
	}

	l := make(map[string]float64)
	delta := func(k string) float64 { return after[k] - before[k] }
	l["server.admit_p50_ms"] = median(admits)
	if l["server.admit_p90_ms"], err = tailPercentile(admits, 0.9); err != nil {
		return nil, fmt.Errorf("admit latency: %v", err)
	}
	l["server.result_fetch_p50_ms"] = median(fetches)
	l["server.queue_wait_mean_ms"] = 1000 * ratio(delta("campaign_server_queue_wait_seconds_sum"), delta("campaign_server_queue_wait_seconds_count"))
	jobSeconds := delta("campaign_job_seconds_sum")
	l["server.job_mean_ms"] = 1000 * ratio(jobSeconds, delta("campaign_job_seconds_count"))
	l["server.rejected_share"] = float64(refused) / float64(res.Attempted)
	l["server.status_polls_per_run"] = ratio(float64(polls), float64(admitted))
	if l["loadgen.lag_p90_ms"], err = tailPercentile(lags, 0.9); err != nil {
		return nil, fmt.Errorf("generator lag: %v", err)
	}
	hits, misses, waits := delta("campaign_stage_cache_hits_total"), delta("campaign_stage_cache_misses_total"), delta("campaign_stage_cache_waits_total")
	l["campaign.busy_share"] = jobSeconds / (end.Sub(start).Seconds() * float64(runtime.NumCPU()))
	l["campaign.longest_job_s"] = 0 // the server does not expose per-job time
	l["campaign.stage_cache.hit_ratio"] = ratio(hits, hits+misses+waits)
	l["campaign.stage_cache.waits"] = waits
	l["campaign.artifact_cache.misses"] = delta("artifact_cache_misses_total")

	// Replay each distinct matrix the server ran, once, for the stage
	// and engine layers; repeats were served from the stage cache.
	var jobs []replayJob
	seen := make(map[string]bool)
	for _, o := range out.runs {
		key := digestKey(serverMixed, o.Matrix)
		if seen[key] || !o.ok() {
			continue
		}
		seen[key] = true
		for _, r := range o.Result.Results {
			jobs = append(jobs, replayJob{r, o.Matrix.Seed})
		}
	}
	for _, err := range replay(ctx, jobs, l) {
		res.problem("%v", err)
	}
	res.Layers = l
	return res, nil
}

// openLoop is the outcome of one open-loop schedule.
type openLoop struct {
	start time.Time
	runs  []runOutcome
}

// driveOpenLoop starts each run at its due time whether or not earlier
// runs have finished, and waits for all of them. Each run's latency is
// timed from its due time, so a stall that delays later sends is
// charged to those runs too.
func driveOpenLoop(ctx context.Context, sched []scheduledRun, drive func(context.Context, scheduledRun, time.Time) runOutcome) openLoop {
	out := openLoop{start: time.Now(), runs: make([]runOutcome, len(sched))}
	var wg sync.WaitGroup
	for i, r := range sched {
		due := out.start.Add(r.Due)
		time.Sleep(time.Until(due))
		wg.Add(1)
		go func() {
			defer wg.Done()
			out.runs[i] = drive(ctx, r, due)
		}()
	}
	wg.Wait()
	return out
}

// loadClients are the load generator's HTTP clients. POSTs have a
// connection of their own, so a due run never waits behind status polls
// for one; polls and result reads share the rest. Together they hold
// nproc connections (at least one each).
type loadClients struct{ post, poll *http.Client }

func newLoadClients() loadClients {
	return loadClients{post: pooled(1), poll: pooled(max(1, runtime.NumCPU()-1))}
}

func pooled(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns}}
}

func (c loadClients) close() {
	c.post.CloseIdleConnections()
	c.poll.CloseIdleConnections()
}

// submitRun submits one scheduled run, polls it to a terminal state,
// reads its result and checks the result's digest.
func submitRun(ctx context.Context, c loadClients, base string, r scheduledRun, due time.Time, digests map[string]string) (o runOutcome) {
	m := r.Matrix
	o.Matrix = m
	ctx, cancel := context.WithDeadline(ctx, due.Add(runTimeout))
	defer cancel()
	js, err := json.Marshal(m)
	if err != nil {
		o.Err = err.Error()
		return o
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/runs", bytes.NewReader(js))
	if err != nil {
		o.Err = err.Error()
		return o
	}
	req.Header.Set("Content-Type", "application/json")
	// The send starts when the POST has a connection: a wait for one is
	// the generator's lag, not the server's admission time.
	var sent time.Time
	req = req.WithContext(httptrace.WithClientTrace(ctx, &httptrace.ClientTrace{
		GotConn: func(httptrace.GotConnInfo) { sent = time.Now() },
	}))
	resp, err := c.post.Do(req)
	if err != nil {
		o.Err = err.Error()
		return o
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	o.LagMs = ms(sent.Sub(due))
	o.AdmitMs = ms(time.Since(sent))
	switch {
	case err != nil:
		o.Err = err.Error()
		return o
	case resp.StatusCode == http.StatusTooManyRequests:
		o.Refused = true
		return o
	case resp.StatusCode != http.StatusAccepted:
		o.Err = fmt.Sprintf("POST /runs: %d %s", resp.StatusCode, body)
		return o
	}
	o.Admitted = true
	var info campaign.RunInfo
	if err := json.Unmarshal(body, &info); err != nil {
		o.Err = err.Error()
		return o
	}
	runURL := fmt.Sprintf("%s/runs/%d", base, info.ID)
	next := time.Now().Add(r.PollPhase)
	for info.State == campaign.RunQueued || info.State == campaign.RunRunning {
		select {
		case <-time.After(time.Until(next)):
			next = next.Add(pollInterval)
		case <-ctx.Done():
			o.Err = "timed out waiting for run " + strconv.Itoa(info.ID)
			return o
		}
		o.Polls++
		if err := getJSON(ctx, c.poll, runURL, &info); err != nil {
			o.Err = err.Error()
			return o
		}
	}
	if info.State != campaign.RunDone {
		o.Err = fmt.Sprintf("run %d ended %s: %s", info.ID, info.State, info.Error)
		return o
	}
	fetch := time.Now()
	var sum campaign.Summary
	if err := getJSON(ctx, c.poll, runURL+"/result", &sum); err != nil {
		o.Err = err.Error()
		return o
	}
	o.Done = time.Now()
	o.FetchMs = ms(o.Done.Sub(fetch))
	o.LatencyMs = ms(o.Done.Sub(due))
	d, err := semanticDigest(&sum)
	if err != nil {
		o.Err = err.Error()
		return o
	}
	if want := digests[digestKey(serverMixed, m)]; d != want {
		o.Mismatch = fmt.Sprintf("%s seed %d: /result digest %s, stored %s", m.Circuits[0], m.Seed, d, want)
	}
	o.Result = &sum
	return o
}

func ms(d time.Duration) float64 { return d.Seconds() * 1000 }

// getJSON GETs url, reads the whole body and decodes it into v.
func getJSON(ctx context.Context, c *http.Client, url string, v any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := c.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %d %s", url, resp.StatusCode, body)
	}
	return json.Unmarshal(body, v)
}
