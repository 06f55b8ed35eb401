package campaign

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"time"

	"rescue/internal/obs"
)

// Service models one campaign run from admission to result and serves
// it over HTTP: /status answers with the per-aspect rollup-so-far, /jobs
// pages through per-job states, and /result serves the canonical
// campaign.json once the run is done. The handlers are safe against the
// in-flight worker pool, so a long campaign can be observed live. The
// same per-run API is mounted at the root by Handler and under
// /runs/{id} by the multi-run Server.
type Service struct {
	matrix  Matrix
	cfg     Config
	jobs    []Job
	workers int

	mu       sync.Mutex
	state    RunState
	results  map[int]Result
	sum      *Summary
	result   []byte // durable campaign.json of a recovered run; nil otherwise
	runErr   error
	started  time.Time // zero until Run is called
	finished time.Time // zero until the campaign ends
	replayed int       // checkpoint-replayed results (not executed here)
	// cacheBase is the process-wide stage-cache counter snapshot taken
	// when this run started; /status reports deltas against it so a
	// multi-run process never misattributes other runs' cache traffic.
	cacheBase StageCacheStatus
}

// RunState is the lifecycle of one campaign run: "queued" until Run
// starts, "running" while it runs, then runState's classification of
// its outcome.
type RunState string

const (
	// RunQueued: prepared (for the server: admitted and durably headered
	// on disk) but not executing.
	RunQueued RunState = "queued"
	// RunRunning: Run is executing the campaign.
	RunRunning RunState = "running"
	// RunDone: completed; the canonical campaign.json exists.
	RunDone RunState = "done"
	// RunFailed: the campaign itself errored (not merely job failures).
	RunFailed RunState = "failed"
	// RunCanceled: canceled while queued or running (DELETE, or a server
	// drain — drained runs resume from their checkpoint on restart).
	RunCanceled RunState = "canceled"
)

// drainTimeout bounds the graceful-shutdown drain of in-flight requests.
// readHeaderTimeout and idleTimeout bound how long a connection may
// dribble its request headers or sit idle between requests, so slow or
// abandoned clients cannot pin server goroutines.
const (
	drainTimeout      = 5 * time.Second
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

// NewService validates the matrix and prepares a queued service around
// it. Run starts the campaign; Handler (or Serve) answers concurrently
// from the first request on.
func NewService(m Matrix, cfg Config) (*Service, error) {
	jobs, err := m.Expand()
	if err != nil {
		return nil, err
	}
	workers := cfg.Parallelism
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	return &Service{
		matrix:  m,
		cfg:     cfg,
		jobs:    jobs,
		workers: workers,
		state:   RunQueued,
		results: make(map[int]Result, len(jobs)),
	}, nil
}

// recoveredService rebuilds the finished Service of a run whose
// campaign.json survived on disk. Its results answer /status and /jobs,
// and /result serves raw as-is: the Summary is never re-marshalled.
func recoveredService(m Matrix, cfg Config, raw []byte) (*Service, error) {
	var sum Summary
	if err := json.Unmarshal(raw, &sum); err != nil {
		return nil, fmt.Errorf("corrupt %s: %v", SummaryFile, err)
	}
	s, err := NewService(m, cfg)
	if err != nil {
		return nil, err
	}
	for _, r := range sum.Results {
		s.results[r.Job.ID] = r
	}
	s.state, s.sum, s.result = RunDone, &sum, raw
	return s, nil
}

// abort ends a run that never started, with err (which must wrap
// context.Canceled) as its outcome, and reports whether it did. Once Run
// has begun abort is a no-op: the caller cancels Run's context instead.
func (s *Service) abort(err error) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.state != RunQueued {
		return false
	}
	s.state, s.runErr = runState(err), err
	return true
}

// Run executes the campaign, recording every result for the HTTP API; a
// non-nil checkpoint makes the run durable (replayed jobs appear as
// already completed, new results hit the log before the API sees them).
// It blocks until the campaign finishes and must be called at most once;
// on a run aborted while queued it returns the abort error at once.
func (s *Service) Run(ctx context.Context, ck *Checkpoint) (*Summary, error) {
	cfg := s.cfg
	user := cfg.OnResult
	cfg.OnResult = func(r Result) {
		s.record(r)
		if user != nil {
			user(r)
		}
	}
	s.mu.Lock()
	if s.state != RunQueued {
		defer s.mu.Unlock()
		return s.sum, s.runErr
	}
	s.state = RunRunning
	s.cacheBase = stageCacheSnapshot()
	//lint:allow determinism live /status throughput display only; never serialized into campaign.json
	s.started = time.Now()
	s.mu.Unlock()
	var sum *Summary
	var err error
	if ck != nil {
		err = s.bind(ck)
		if err == nil {
			sum, err = ck.Run(ctx, cfg)
		}
	} else {
		sum, err = Run(ctx, s.matrix, cfg)
	}
	s.mu.Lock()
	s.state, s.sum, s.runErr = runState(err), sum, err
	//lint:allow determinism live /status throughput display only; never serialized into campaign.json
	s.finished = time.Now()
	s.mu.Unlock()
	return sum, err
}

// bind verifies the checkpoint belongs to this service's matrix and
// surfaces its replayed results through the API.
func (s *Service) bind(ck *Checkpoint) error {
	a, err := matrixIdentity(s.matrix)
	if err != nil {
		return err
	}
	b, err := matrixIdentity(ck.matrix)
	if err != nil {
		return err
	}
	if a != b {
		return fmt.Errorf("campaign: service and checkpoint matrices differ")
	}
	for _, r := range ck.Completed() {
		s.record(r)
	}
	s.mu.Lock()
	s.replayed = len(ck.Completed())
	s.mu.Unlock()
	return nil
}

func (s *Service) record(r Result) {
	s.mu.Lock()
	s.results[r.Job.ID] = r
	s.mu.Unlock()
}

// lifecycle returns the run's state and, once it ended in error, that
// error.
func (s *Service) lifecycle() (RunState, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.state, s.runErr
}

// ServiceStatus is the /status payload: campaign progress plus the
// per-aspect rollups aggregated over the results so far.
type ServiceStatus struct {
	// State is the run's RunState: "queued", "running", "done",
	// "canceled" or "failed" ("failed" meaning the campaign itself
	// errored, not that individual jobs failed — those count in Failed).
	State     string `json:"state"`
	Jobs      int    `json:"jobs"`
	Pending   int    `json:"pending"`
	Completed int    `json:"completed"`
	Failed    int    `json:"failed"`
	Canceled  int    `json:"canceled,omitempty"`
	Workers   int    `json:"workers"`
	// Replayed counts checkpoint-replayed results included in Completed;
	// throughput is computed over the executed remainder only.
	Replayed int `json:"replayed,omitempty"`
	// ElapsedSec is wall-clock since Run started (frozen at completion);
	// JobsPerSec is executed-jobs-so-far over that window — the
	// throughput-so-far of the live campaign.
	ElapsedSec float64 `json:"elapsed_sec"`
	JobsPerSec float64 `json:"jobs_per_sec"`
	Error      string  `json:"error,omitempty"`

	Quality     *QualityRollup     `json:"quality,omitempty"`
	Reliability *ReliabilityRollup `json:"reliability,omitempty"`
	Safety      *SafetyRollup      `json:"safety,omitempty"`
	Security    *SecurityRollup    `json:"security,omitempty"`

	// StageCache surfaces the cross-job stage cache's dedup
	// effectiveness (omitted when the run disables the cache, and
	// before Run starts: a run has no cache traffic of its own yet).
	StageCache *StageCacheStatus `json:"stage_cache,omitempty"`
}

// StageCacheStatus is the /status view of the stage cache. Hits,
// Misses, Waits and Evictions are this run's own traffic — deltas of
// the process-wide counters since the run started, so two campaigns
// sharing the process (the multi-run server's whole point) each report
// only their own dedup rate. InFlight, Entries and Bytes are
// point-in-time gauges of the shared cache itself. The raw cumulative
// series stay on /metrics.
type StageCacheStatus struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Waits     int64 `json:"waits"`
	InFlight  int64 `json:"in_flight"`
	Entries   int64 `json:"entries"`
	Bytes     int64 `json:"bytes"`
	Evictions int64 `json:"evictions,omitempty"`
}

// stageCacheSnapshot samples the cache's process-wide obs series.
func stageCacheSnapshot() StageCacheStatus {
	return StageCacheStatus{
		Hits:      obsStageCacheHits.Value(),
		Misses:    obsStageCacheMisses.Value(),
		Waits:     obsStageCacheWaits.Value(),
		InFlight:  obsStageCacheInflight.Value(),
		Entries:   obsStageCacheEntries.Value(),
		Bytes:     obsStageCacheBytes.Value(),
		Evictions: obsStageCacheEvicted.Value(),
	}
}

// stageCacheDelta subtracts the run-start snapshot base from the current
// counters, keeping the shared-state gauges as-is.
func stageCacheDelta(base StageCacheStatus) *StageCacheStatus {
	now := stageCacheSnapshot()
	return &StageCacheStatus{
		Hits:      now.Hits - base.Hits,
		Misses:    now.Misses - base.Misses,
		Waits:     now.Waits - base.Waits,
		Evictions: now.Evictions - base.Evictions,
		InFlight:  now.InFlight,
		Entries:   now.Entries,
		Bytes:     now.Bytes,
	}
}

// runState maps a finished campaign's error to its terminal RunState —
// the single definition behind /status, /result and the server's run
// listing, so they can never disagree about what "canceled" means.
func runState(err error) RunState {
	switch {
	case err == nil:
		return RunDone
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		return RunCanceled
	default:
		return RunFailed
	}
}

// Status aggregates the rollup-so-far. It is what /status serves.
func (s *Service) Status() ServiceStatus {
	s.mu.Lock()
	results := make([]Result, 0, len(s.results))
	for _, r := range s.results {
		results = append(results, r)
	}
	state, runErr, started, ended, replayed, base := s.state, s.runErr, s.started, s.finished, s.replayed, s.cacheBase
	s.mu.Unlock()
	sort.Slice(results, func(i, j int) bool { return results[i].Job.ID < results[j].Job.ID })
	agg := Aggregate(len(s.jobs), s.workers, results)
	st := ServiceStatus{
		State:       string(state),
		Jobs:        agg.Jobs,
		Pending:     agg.Jobs - len(results),
		Completed:   agg.Completed,
		Failed:      agg.Failed,
		Canceled:    agg.Canceled,
		Workers:     s.workers,
		Replayed:    replayed,
		Quality:     agg.Quality,
		Reliability: agg.Reliability,
		Safety:      agg.Safety,
		Security:    agg.Security,
	}
	if runErr != nil {
		st.Error = runErr.Error()
	}
	if !started.IsZero() {
		if !s.cfg.DisableStageCache {
			st.StageCache = stageCacheDelta(base)
		}
		if ended.IsZero() {
			//lint:allow determinism live /status throughput display only; never serialized into campaign.json
			ended = time.Now()
		}
		st.ElapsedSec = ended.Sub(started).Seconds()
		if executed := len(results) - replayed; executed > 0 && st.ElapsedSec > 0 {
			st.JobsPerSec = float64(executed) / st.ElapsedSec
		}
	}
	return st
}

// JobStatus is one entry of the /jobs page.
type JobStatus struct {
	ID     int    `json:"id"`
	Name   string `json:"name"`
	Status string `json:"status"` // "pending", "ok", "failed" or "canceled"
	Error  string `json:"error,omitempty"`
}

// JobsPage is the /jobs payload: one contiguous job-ID window over the
// expanded matrix.
type JobsPage struct {
	Total  int         `json:"total"`
	Offset int         `json:"offset"`
	Count  int         `json:"count"`
	Jobs   []JobStatus `json:"jobs"`
}

// Page-limit discipline, shared by every paged endpoint (Service.Jobs,
// Server.Runs): a non-positive limit means the default page, and no
// caller — programmatic or HTTP — ever gets more than maxPageLimit rows
// per call. The clamps live in pageWindow, not the HTTP handlers,
// because the expensive part (assembling rows under the store mutex)
// happens in the accessors: Jobs(0, 0) must not build the whole
// expanded matrix.
const (
	defaultPageLimit = 100
	maxPageLimit     = 1000
)

// pageWindow resolves a page request over total rows to the [lo, hi)
// window it serves. Negative offsets clamp to 0 here; the HTTP layer is
// stricter (pageParams rejects them with 400) so a malformed query fails
// loudly while programmatic callers stay total.
func pageWindow(offset, limit, total int) (lo, hi int) {
	if limit <= 0 {
		limit = defaultPageLimit
	}
	lo = min(max(offset, 0), total)
	// Adding the remainder rather than the limit cannot overflow.
	return lo, lo + min(limit, maxPageLimit, total-lo)
}

// pageParams parses a paged endpoint's offset and limit query
// parameters (absent means 0, i.e. the first default page). A malformed
// or negative value answers 400 and returns ok false.
func pageParams(w http.ResponseWriter, r *http.Request) (offset, limit int, ok bool) {
	q := r.URL.Query()
	var vals [2]int
	for i, name := range [...]string{"offset", "limit"} {
		raw := q.Get(name)
		if raw == "" {
			continue
		}
		v, err := strconv.Atoi(raw)
		if err != nil || v < 0 {
			writeJSON(w, http.StatusBadRequest, map[string]string{"error": fmt.Sprintf("bad %s parameter %q", name, raw)})
			return 0, 0, false
		}
		vals[i] = v
	}
	return vals[0], vals[1], true
}

// Jobs returns the [offset, offset+limit) window of per-job states in
// job-ID order, clamped per pageWindow. It is what /jobs serves.
func (s *Service) Jobs(offset, limit int) JobsPage {
	lo, hi := pageWindow(offset, limit, len(s.jobs))
	page := JobsPage{Total: len(s.jobs), Offset: lo, Jobs: make([]JobStatus, 0, hi-lo)}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, j := range s.jobs[lo:hi] {
		js := JobStatus{ID: j.ID, Name: j.Name(), Status: "pending"}
		if r, ok := s.results[j.ID]; ok {
			switch {
			case r.Canceled:
				js.Status = "canceled"
				js.Error = r.Err
			case r.Err != "":
				js.Status = "failed"
				js.Error = r.Err
			default:
				js.Status = "ok"
			}
		}
		page.Jobs = append(page.Jobs, js)
	}
	page.Count = len(page.Jobs)
	return page
}

// Handler returns the service's HTTP API:
//
//	GET /status  — ServiceStatus JSON (rollup-so-far + throughput-so-far)
//	GET /jobs    — JobsPage JSON; query params offset, limit (default 100)
//	GET /result  — the canonical campaign.json once done (409 before)
//	GET /metrics — the process-wide obs registry in Prometheus text format
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("GET /metrics", obs.Default.Handler())
	mountRunAPI(mux, "", func(http.ResponseWriter, *http.Request) *Service { return s })
	return mux
}

// mountRunAPI registers the per-run API — GET {prefix}/status,
// {prefix}/jobs and {prefix}/result — on mux. resolve maps a request to
// the Service answering it; when it returns nil it has already written
// the error response.
func mountRunAPI(mux *http.ServeMux, prefix string, resolve func(http.ResponseWriter, *http.Request) *Service) {
	handle := func(path string, h func(http.ResponseWriter, *http.Request, *Service)) {
		mux.HandleFunc("GET "+prefix+path, func(w http.ResponseWriter, r *http.Request) {
			if s := resolve(w, r); s != nil {
				h(w, r, s)
			}
		})
	}
	handle("/status", func(w http.ResponseWriter, _ *http.Request, s *Service) {
		writeJSON(w, http.StatusOK, s.Status())
	})
	handle("/jobs", func(w http.ResponseWriter, r *http.Request, s *Service) {
		// Jobs itself clamps (default page on limit<=0, maxPageLimit cap),
		// so an explicit limit=0 serves the default page, never the whole
		// expanded matrix.
		if offset, limit, ok := pageParams(w, r); ok {
			writeJSON(w, http.StatusOK, s.Jobs(offset, limit))
		}
	})
	handle("/result", func(w http.ResponseWriter, _ *http.Request, s *Service) {
		s.writeResult(w)
	})
}

// writeResult serves the canonical campaign result: the summary JSON
// once the run completed, 409 {"state":"queued"|"running"} before that,
// 409 {"state":"canceled"} for a canceled run (cancellation is a
// lifecycle conflict, not a server fault — matching /status's state
// machine), and 500 {"state":"failed"} only when the campaign itself
// errored.
func (s *Service) writeResult(w http.ResponseWriter) {
	s.mu.Lock()
	state, sum, js, runErr := s.state, s.sum, s.result, s.runErr
	s.mu.Unlock()
	switch state {
	case RunQueued, RunRunning:
		writeJSON(w, http.StatusConflict, map[string]string{"state": string(state), "error": "campaign still " + string(state)})
		return
	case RunCanceled, RunFailed:
		code := http.StatusConflict
		if state == RunFailed {
			code = http.StatusInternalServerError
		}
		writeJSON(w, code, map[string]string{"state": string(state), "error": runErr.Error()})
		return
	}
	if js == nil {
		var err error
		if js, err = sum.JSON(); err != nil {
			writeJSON(w, http.StatusInternalServerError, map[string]string{"state": string(RunFailed), "error": err.Error()})
			return
		}
		js = append(js, '\n')
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(js)
}

// ResultCount returns how many job results the service has recorded so
// far — replayed or executed, any outcome.
func (s *Service) ResultCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.results)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// Serve answers API requests on the listener until ctx is cancelled,
// then shuts down gracefully (see serveUntil). The campaign itself is
// driven by Run, typically in another goroutine.
func (s *Service) Serve(ctx context.Context, ln net.Listener) error {
	return serveUntil(ctx, ln, s.Handler(), nil)
}

// serveUntil answers h on the listener until ctx is cancelled, then
// shuts down gracefully: drain (when non-nil) and the HTTP server's own
// shutdown share one drainTimeout budget — new connections stop and
// in-flight requests finish before serveUntil returns. It is the one
// place an http.Server is built, so every API shares its timeouts.
func serveUntil(ctx context.Context, ln net.Listener, h http.Handler, drain func(context.Context) error) error {
	srv := &http.Server{Handler: h, ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout}
	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(ln) }()
	select {
	case err := <-errCh:
		if errors.Is(err, http.ErrServerClosed) {
			return nil
		}
		return err
	case <-ctx.Done():
	}
	shctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	var derr error
	if drain != nil {
		derr = drain(shctx)
	}
	herr := srv.Shutdown(shctx)
	<-errCh // Serve has returned http.ErrServerClosed
	return errors.Join(derr, herr)
}
