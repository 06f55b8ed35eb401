package campaign

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

// postRun submits a matrix to the server's handler and returns the
// status code and decoded body.
func postRun(t *testing.T, h http.Handler, m Matrix) (int, []byte) {
	t.Helper()
	js, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/runs", bytes.NewReader(js)))
	return rec.Code, rec.Body.Bytes()
}

func deleteRun(t *testing.T, h http.Handler, id int) (int, []byte) {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodDelete, fmt.Sprintf("/runs/%d", id), nil))
	return rec.Code, rec.Body.Bytes()
}

// waitRunState polls /runs/{id} until the run reaches want (or any
// terminal state) and returns the final RunInfo.
func waitRunState(t *testing.T, h http.Handler, id int, want RunState) RunInfo {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		code, body := get(t, h, fmt.Sprintf("/runs/%d", id))
		if code != http.StatusOK {
			t.Fatalf("GET /runs/%d: status %d (%s)", id, code, body)
		}
		info := decode[RunInfo](t, body)
		if info.State == want {
			return info
		}
		switch info.State {
		case RunDone, RunFailed, RunCanceled:
			t.Fatalf("run %d reached terminal state %q while waiting for %q (error %q)",
				id, info.State, want, info.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("run %d stuck in %q waiting for %q", id, info.State, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func newTestServer(t *testing.T, cfg ServerConfig) *Server {
	t.Helper()
	if cfg.BaseDir == "" {
		cfg.BaseDir = t.TempDir()
	}
	s, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})
	return s
}

// TestServerLifecycle drives one run end to end over the HTTP API and
// checks the byte-identity acceptance criterion: the served result and
// the run directory's campaign.json both match a standalone Run of the
// same matrix.
func TestServerLifecycle(t *testing.T) {
	m := testMatrix()
	want := uninterruptedJSON(t, m)
	s := newTestServer(t, ServerConfig{RunConfig: Config{Parallelism: 2}})
	h := s.Handler()

	code, body := postRun(t, h, m)
	if code != http.StatusAccepted {
		t.Fatalf("POST /runs: status %d (%s)", code, body)
	}
	info := decode[RunInfo](t, body)
	if info.Jobs != 12 {
		t.Fatalf("admitted run reports %d jobs, want 12", info.Jobs)
	}

	done := waitRunState(t, h, info.ID, RunDone)
	if done.Results != 12 {
		t.Errorf("done run reports %d results, want 12", done.Results)
	}

	st := decode[ServiceStatus](t, second(get(t, h, fmt.Sprintf("/runs/%d/status", info.ID))))
	if st.State != "done" || st.Completed != 12 {
		t.Errorf("/status = state %q completed %d, want done/12", st.State, st.Completed)
	}

	page := decode[JobsPage](t, second(get(t, h, fmt.Sprintf("/runs/%d/jobs?limit=5", info.ID))))
	if page.Total != 12 || page.Count != 5 {
		t.Errorf("/jobs page = total %d count %d, want 12/5", page.Total, page.Count)
	}

	code, res := get(t, h, fmt.Sprintf("/runs/%d/result", info.ID))
	if code != http.StatusOK {
		t.Fatalf("/result: status %d (%s)", code, res)
	}
	if !bytes.Equal(res, want) {
		t.Error("/result differs from a standalone Run of the same matrix")
	}
	if disk := readSummary(t, info.Dir); !bytes.Equal(disk, want) {
		t.Error("run directory campaign.json differs from a standalone Run")
	}

	list := decode[RunsPage](t, second(get(t, h, "/runs")))
	if list.Total != 1 || list.Runs[0].State != RunDone {
		t.Errorf("/runs listing = %+v", list)
	}
}

// TestServerConcurrentByteIdentical is the headline acceptance test: N
// runs POSTed concurrently — same matrix, so they hammer the shared
// stage and artifact caches against each other — each produce a
// campaign.json byte-identical to a standalone campaign.Run.
func TestServerConcurrentByteIdentical(t *testing.T) {
	m := testMatrix()
	want := uninterruptedJSON(t, m)
	s := newTestServer(t, ServerConfig{
		QueueCapacity: 16,
		MaxActiveRuns: 4,
		RunConfig:     Config{Parallelism: 2},
	})
	h := s.Handler()

	const n = 6
	ids := make([]int, n)
	var wg sync.WaitGroup
	var mu sync.Mutex
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			code, body := postRun(t, h, m)
			if code != http.StatusAccepted {
				t.Errorf("concurrent POST %d: status %d (%s)", i, code, body)
				return
			}
			info := decode[RunInfo](t, body)
			mu.Lock()
			ids[i] = info.ID
			mu.Unlock()
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	for _, id := range ids {
		info := waitRunState(t, h, id, RunDone)
		code, res := get(t, h, fmt.Sprintf("/runs/%d/result", id))
		if code != http.StatusOK {
			t.Fatalf("run %d /result: status %d", id, code)
		}
		if !bytes.Equal(res, want) {
			t.Errorf("run %d result differs from standalone Run", id)
		}
		if disk := readSummary(t, info.Dir); !bytes.Equal(disk, want) {
			t.Errorf("run %d campaign.json differs from standalone Run", id)
		}
	}
}

// blockingRunConfig returns a Config whose jobs block until release is
// closed — the lever every queue/backpressure test below leans on.
func blockingRunConfig(release <-chan struct{}) Config {
	return Config{
		Parallelism: 1,
		runJob: func(ctx context.Context, j Job) Result {
			select {
			case <-release:
			case <-ctx.Done():
				return Result{Job: j, Canceled: true, Err: ctx.Err().Error()}
			}
			return Result{Job: j, Err: "stub"}
		},
	}
}

// TestServerBackpressure pins the admission contract: once
// MaxActiveRuns runs are executing and QueueCapacity runs are queued,
// further POSTs get 429 with a Retry-After hint — and succeed again
// after capacity frees up.
func TestServerBackpressure(t *testing.T) {
	m := Matrix{Circuits: []string{"c17"}, Scenarios: []Scenario{ScenarioQuality}, Patterns: 8}
	release := make(chan struct{})
	s := newTestServer(t, ServerConfig{
		QueueCapacity: 2,
		MaxActiveRuns: 1,
		RetryAfterSec: 7,
		RunConfig:     blockingRunConfig(release),
	})
	h := s.Handler()

	// One run executing (blocked) + two queued fill the server. The
	// first must reach running before the queue fills, or its queue slot
	// still counts against the two that follow.
	var ids []int
	for i := 0; i < 3; i++ {
		code, body := postRun(t, h, m)
		if code != http.StatusAccepted {
			t.Fatalf("POST %d: status %d (%s)", i, code, body)
		}
		ids = append(ids, decode[RunInfo](t, body).ID)
		if i == 0 {
			waitRunState(t, h, ids[0], RunRunning)
		}
	}

	// The queue is full: concurrent POSTs must all bounce with 429.
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			js, _ := json.Marshal(m)
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/runs", bytes.NewReader(js)))
			if rec.Code != http.StatusTooManyRequests {
				t.Errorf("POST beyond capacity: status %d, want 429", rec.Code)
				return
			}
			if got := rec.Header().Get("Retry-After"); got != "7" {
				t.Errorf("Retry-After = %q, want %q", got, "7")
			}
		}()
	}
	wg.Wait()

	// Overflow must not have leaked run directories: exactly the three
	// admitted runs exist on disk.
	entries, err := os.ReadDir(s.cfg.BaseDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 3 {
		t.Errorf("%d run directories after overflow, want 3", len(entries))
	}

	// Capacity frees as runs finish; admission recovers.
	close(release)
	for _, id := range ids {
		waitRunState(t, h, id, RunDone)
	}
	if code, body := postRun(t, h, m); code != http.StatusAccepted {
		t.Errorf("POST after drain: status %d (%s)", code, body)
	}
}

// TestServerCancelQueued pins DELETE of a queued run: it never
// executes, its directory is removed, and a restart on the same base
// directory does not resurrect it.
func TestServerCancelQueued(t *testing.T) {
	m := Matrix{Circuits: []string{"c17"}, Scenarios: []Scenario{ScenarioQuality}, Patterns: 8}
	release := make(chan struct{})
	defer close(release)
	base := t.TempDir()
	s := newTestServer(t, ServerConfig{
		BaseDir:       base,
		QueueCapacity: 4,
		MaxActiveRuns: 1,
		RunConfig:     blockingRunConfig(release),
	})
	h := s.Handler()

	_, body := postRun(t, h, m)
	blocker := decode[RunInfo](t, body)
	waitRunState(t, h, blocker.ID, RunRunning)
	_, body = postRun(t, h, m)
	queued := decode[RunInfo](t, body)

	code, body := deleteRun(t, h, queued.ID)
	if code != http.StatusOK {
		t.Fatalf("DELETE queued run: status %d (%s)", code, body)
	}
	if st := decode[RunInfo](t, body).State; st != RunCanceled {
		t.Fatalf("canceled run state %q, want %q", st, RunCanceled)
	}
	if _, err := os.Stat(queued.Dir); !os.IsNotExist(err) {
		t.Errorf("canceled queued run kept its directory %s (err %v)", queued.Dir, err)
	}
	// Idempotence edge: a second DELETE conflicts instead of crashing.
	if code, _ := deleteRun(t, h, queued.ID); code != http.StatusConflict {
		t.Errorf("second DELETE: status %d, want 409", code)
	}
	// The canceled run must report 409 from /result and "canceled" from
	// /status while the server still knows it.
	code, body = get(t, h, fmt.Sprintf("/runs/%d/result", queued.ID))
	if code != http.StatusConflict {
		t.Errorf("/result of canceled run: status %d (%s)", code, body)
	}
	st := decode[ServiceStatus](t, second(get(t, h, fmt.Sprintf("/runs/%d/status", queued.ID))))
	if st.State != string(RunCanceled) {
		t.Errorf("/status of canceled run: state %q", st.State)
	}

	// It must never have executed.
	if got := decode[RunInfo](t, second(get(t, h, fmt.Sprintf("/runs/%d", queued.ID)))); got.Results != 0 {
		t.Errorf("canceled queued run executed %d jobs", got.Results)
	}
}

// TestServerShutdownResume pins the drain contract: Shutdown leaves
// queued and interrupted runs durable on disk, and a new server on the
// same base directory re-queues and finishes them — byte-identical to
// never having been interrupted. A third server serves them from disk
// with the same /status and /jobs the live runs answered, and a run
// DELETEd while queued never comes back.
func TestServerShutdownResume(t *testing.T) {
	m := testMatrix()
	want := uninterruptedJSON(t, m)
	base := t.TempDir()
	release := make(chan struct{})

	s1, err := NewServer(ServerConfig{
		BaseDir:       base,
		QueueCapacity: 4,
		MaxActiveRuns: 1,
		RunConfig:     blockingRunConfig(release),
	})
	if err != nil {
		t.Fatal(err)
	}
	h1 := s1.Handler()
	_, body := postRun(t, h1, m)
	running := decode[RunInfo](t, body)
	waitRunState(t, h1, running.ID, RunRunning)
	_, body = postRun(t, h1, m)
	queued := decode[RunInfo](t, body)
	_, body = postRun(t, h1, m)
	discarded := decode[RunInfo](t, body)
	if code, body := deleteRun(t, h1, discarded.ID); code != http.StatusOK {
		t.Fatalf("DELETE queued run: status %d (%s)", code, body)
	}
	if st := decode[ServiceStatus](t, second(get(t, h1, fmt.Sprintf("/runs/%d/status", discarded.ID)))); st.State != string(RunCanceled) {
		t.Errorf("DELETEd queued run /status state %q, want canceled", st.State)
	}
	code, res := get(t, h1, fmt.Sprintf("/runs/%d/result", discarded.ID))
	if code != http.StatusConflict || decode[map[string]string](t, res)["state"] != string(RunCanceled) {
		t.Errorf("DELETEd queued run /result = %d %s, want 409 canceled", code, res)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s1.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	close(release)
	// Draining must refuse new admissions.
	if code, _ := postRun(t, h1, m); code != http.StatusServiceUnavailable {
		t.Errorf("POST to draining server: status %d, want 503", code)
	}

	// Both run directories survived the drain.
	for _, id := range []int{running.ID, queued.ID} {
		if _, err := os.Stat(filepath.Join(base, runDirName(id), CheckpointFile)); err != nil {
			t.Fatalf("run %d lost its checkpoint across shutdown: %v", id, err)
		}
	}

	// A fresh server on the same directory recovers both and runs them
	// to completion with the real job runner.
	s2 := newTestServer(t, ServerConfig{
		BaseDir:       base,
		QueueCapacity: 4,
		MaxActiveRuns: 2,
		RunConfig:     Config{Parallelism: 2},
	})
	if got := s2.Recovered(); got != 2 {
		t.Fatalf("recovered %d runs, want 2", got)
	}
	h2 := s2.Handler()
	liveStatus := map[int]ServiceStatus{}
	liveJobs := map[int]JobsPage{}
	for _, id := range []int{running.ID, queued.ID} {
		waitRunState(t, h2, id, RunDone)
		code, res := get(t, h2, fmt.Sprintf("/runs/%d/result", id))
		if code != http.StatusOK {
			t.Fatalf("recovered run %d /result: status %d", id, code)
		}
		if !bytes.Equal(res, want) {
			t.Errorf("recovered run %d result differs from uninterrupted run", id)
		}
		liveStatus[id] = decode[ServiceStatus](t, second(get(t, h2, fmt.Sprintf("/runs/%d/status", id))))
		liveJobs[id] = decode[JobsPage](t, second(get(t, h2, fmt.Sprintf("/runs/%d/jobs", id))))
	}

	// A third server sees them as already done (a finished Service
	// rebuilt from campaign.json, result served from disk) and recovers
	// nothing into the queue.
	ctx2, cancel2 := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel2()
	if err := s2.Shutdown(ctx2); err != nil {
		t.Fatal(err)
	}
	s3 := newTestServer(t, ServerConfig{BaseDir: base, RunConfig: Config{Parallelism: 2}})
	if got := s3.Recovered(); got != 0 {
		t.Fatalf("completed runs re-queued at restart: %d", got)
	}
	h3 := s3.Handler()
	list := decode[RunsPage](t, second(get(t, h3, "/runs")))
	if list.Total != 2 {
		t.Fatalf("/runs after restart lists %d runs, want 2", list.Total)
	}
	if code, _ := get(t, h3, fmt.Sprintf("/runs/%d", discarded.ID)); code != http.StatusNotFound {
		t.Errorf("DELETEd queued run resurrected at restart: status %d, want 404", code)
	}
	for _, id := range []int{running.ID, queued.ID} {
		code, res := get(t, h3, fmt.Sprintf("/runs/%d/result", id))
		if code != http.StatusOK || !bytes.Equal(res, want) {
			t.Errorf("done run %d not served from disk after restart (status %d)", id, code)
		}
		// Counts and rollups match the live run's; throughput and
		// stage-cache traffic belong to the execution and are not
		// recovered.
		st := decode[ServiceStatus](t, second(get(t, h3, fmt.Sprintf("/runs/%d/status", id))))
		live := liveStatus[id]
		live.Replayed, live.ElapsedSec, live.JobsPerSec, live.StageCache = 0, 0, 0, nil
		if st.State != "done" || st.Completed != 12 || live.Quality == nil || live.Security == nil {
			t.Errorf("recovered-done run %d /status = %q/%d, live rollups %+v", id, st.State, st.Completed, live)
		}
		if !reflect.DeepEqual(st, live) {
			t.Errorf("recovered-done run %d /status = %+v, live %+v", id, st, live)
		}
		page := decode[JobsPage](t, second(get(t, h3, fmt.Sprintf("/runs/%d/jobs", id))))
		if !reflect.DeepEqual(page, liveJobs[id]) {
			t.Errorf("recovered-done run %d /jobs = %+v, live %+v", id, page, liveJobs[id])
		}
		if page.Total != 12 || page.Count != 12 {
			t.Errorf("recovered-done run %d /jobs = total %d count %d", id, page.Total, page.Count)
		}
	}
}

// TestServerCancelRunning pins DELETE of an executing run: the run
// stops, reports canceled, and — being an explicit discard — its
// directory is removed so a restart cannot resurrect it.
func TestServerCancelRunning(t *testing.T) {
	m := testMatrix()
	release := make(chan struct{})
	defer close(release)
	base := t.TempDir()
	s := newTestServer(t, ServerConfig{
		BaseDir:   base,
		RunConfig: blockingRunConfig(release),
	})
	h := s.Handler()
	_, body := postRun(t, h, m)
	info := decode[RunInfo](t, body)
	waitRunState(t, h, info.ID, RunRunning)

	if code, body := deleteRun(t, h, info.ID); code != http.StatusOK {
		t.Fatalf("DELETE running run: status %d (%s)", code, body)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		got := decode[RunInfo](t, second(get(t, h, fmt.Sprintf("/runs/%d", info.ID))))
		if got.State == RunCanceled {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("run stuck in %q after DELETE", got.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Poll for directory removal too: the executor deletes it after the
	// engine unwinds, slightly after the state flip.
	for {
		if _, err := os.Stat(info.Dir); os.IsNotExist(err) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("canceled running run kept its directory")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// hugePatternsBody asks for 2^40 patterns per job.
const hugePatternsBody = `{"circuits":["c17"],"patterns":1099511627776}`

// hugeYearsBody asks for an aging horizon far past MaxYears.
const hugeYearsBody = `{"circuits":["c17"],"scenarios":["reliability"],"years":1e30}`

// crossProductBody lists c17 and LEO n times each. Duplicates are
// legal, so the body asks for n*n jobs; at n = 80000 it still fits
// under maxSubmitBytes.
func crossProductBody(n int) string {
	return `{"circuits":["c17"` + strings.Repeat(`,"c17"`, n-1) +
		`],"environments":["LEO"` + strings.Repeat(`,"LEO"`, n-1) + `]}`
}

// TestServerRejectsBadSubmissions pins the admission validation edges:
// every rejected body answers its status before any run directory is
// created.
func TestServerRejectsBadSubmissions(t *testing.T) {
	s := newTestServer(t, ServerConfig{RunConfig: Config{Parallelism: 1}})
	h := s.Handler()

	valid := `{"circuits":["c17"]}`
	for _, tc := range []struct {
		name string
		body string
		want int
	}{
		{"malformed JSON", "{not json", http.StatusBadRequest},
		// A matrix that fails Expand (no circuits).
		{"empty matrix", `{"circuits":null}`, http.StatusBadRequest},
		{"negative patterns", `{"circuits":["c17"],"patterns":-5}`, http.StatusBadRequest},
		// Within the byte cap but over an admission ceiling.
		{"huge patterns", hugePatternsBody, http.StatusBadRequest},
		{"huge cross product", crossProductBody(80_000), http.StatusBadRequest},
		// Past the BTI model's range the slowdown used to read 0.
		{"huge years", hugeYearsBody, http.StatusBadRequest},
		// A misspelt field must not silently run at the default.
		{"unknown field", `{"circuits":["c17"],"pattern":4096}`, http.StatusBadRequest},
		{"second object", valid + valid, http.StatusBadRequest},
		{"trailing garbage", valid + "x", http.StatusBadRequest},
		{"trailing brace", valid + "}", http.StatusBadRequest},
		{"oversized spec", `{"circuits":["` + strings.Repeat("a", maxSubmitBytes) + `"]}`, http.StatusRequestEntityTooLarge},
		{"oversized trailing space", valid + strings.Repeat(" ", maxSubmitBytes), http.StatusRequestEntityTooLarge},
	} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/runs", strings.NewReader(tc.body)))
		if rec.Code != tc.want {
			t.Errorf("%s: status %d (%s), want %d", tc.name, rec.Code, rec.Body.Bytes(), tc.want)
		}
	}
	entries, err := os.ReadDir(s.cfg.BaseDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Errorf("rejected submissions left %d run directories behind", len(entries))
	}

	if code, _ := get(t, h, "/runs/999"); code != http.StatusNotFound {
		t.Errorf("unknown run: status %d, want 404", code)
	}
	if code, _ := get(t, h, "/runs/bogus"); code != http.StatusBadRequest {
		t.Errorf("non-numeric run id: status %d, want 400", code)
	}

	// The config rejects callbacks that cannot be shared across runs.
	if _, err := NewServer(ServerConfig{BaseDir: t.TempDir(), RunConfig: Config{OnResult: func(Result) {}}}); err == nil {
		t.Error("NewServer accepted a shared OnResult callback")
	}
	if _, err := NewServer(ServerConfig{}); err == nil {
		t.Error("NewServer accepted an empty BaseDir")
	}
}

// FuzzSubmit throws arbitrary bodies at POST /runs. Admitted runs block
// (blockingRunConfig) and never execute, so only admission is under
// test: every answer must be an admission outcome — 202, 400, 413, 429
// or 503, never a panic or a 500 — and the run directories on disk must
// be exactly the admitted runs.
func FuzzSubmit(f *testing.F) {
	for _, seed := range []string{
		`{"circuits":["c17"],"scenarios":["quality"],"patterns":8}`,
		`{"circuits":["c17","rca8"],"environments":["LEO"],"technologies":["28nm"],"years":5,"seed":3}`,
		`{"circuits":["alu8"],"scenarios":["safety"],"shards":4,"shard_threshold":1}`,
		`{"circuits":["c17"],"pattern":4096}`,
		`{"circuits":["c17"]}{"circuits":["c17"]}`,
		`{"circuits":["c17"],"years":-1}`,
		`{"circuits":["nope"]}`,
		`null`,
		`{not json`,
		``,
		hugePatternsBody,
		crossProductBody(300),
		hugeYearsBody,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		release := make(chan struct{}) // never closed: admitted runs never finish
		base := t.TempDir()
		s, err := NewServer(ServerConfig{
			BaseDir:       base,
			QueueCapacity: 1,
			MaxActiveRuns: 1,
			RunConfig:     blockingRunConfig(release),
		})
		if err != nil {
			t.Fatal(err)
		}
		h := s.Handler()
		admitted := 0
		post := func() {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/runs", bytes.NewReader(body)))
			switch rec.Code {
			case http.StatusAccepted:
				admitted++
			case http.StatusBadRequest, http.StatusRequestEntityTooLarge,
				http.StatusTooManyRequests, http.StatusServiceUnavailable:
			default:
				t.Fatalf("POST /runs %q: status %d (%s)", body, rec.Code, rec.Body.Bytes())
			}
		}
		// One executor plus one queue slot: a valid spec posted three
		// times overflows into 429, and once more after the drain into 503.
		for i := 0; i < 3; i++ {
			post()
		}
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Fatalf("shutdown: %v", err)
		}
		post()
		entries, err := os.ReadDir(base)
		if err != nil {
			t.Fatal(err)
		}
		if len(entries) != admitted {
			t.Fatalf("%d run directories for %d admitted runs (body %q)", len(entries), admitted, body)
		}
	})
}

// TestServerSubmitUndoKeepsRivalRun pins the undo path of a Submit that
// loses the race for the last queue slot: a rival Submit that landed in
// the listing behind the loser must survive the loser's rollback
// (splice by identity, never tail truncation).
func TestServerSubmitUndoKeepsRivalRun(t *testing.T) {
	m := Matrix{Circuits: []string{"c17"}, Scenarios: []Scenario{ScenarioQuality}, Patterns: 8}
	release := make(chan struct{})
	s := newTestServer(t, ServerConfig{
		QueueCapacity: 1,
		MaxActiveRuns: 1,
		RunConfig:     blockingRunConfig(release),
	})
	h := s.Handler()

	// One run occupies the only executor, leaving the single queue slot
	// empty.
	_, body := postRun(t, h, m)
	blocker := decode[RunInfo](t, body)
	waitRunState(t, h, blocker.ID, RunRunning)

	// While the victim Submit sits between its listing insert and its
	// queue offer, a rival Submit takes the last slot.
	var rival RunInfo
	var rivalErr error
	s.testBeforeOffer = func() {
		s.testBeforeOffer = nil // the rival's own Submit offers unimpeded
		rival, rivalErr = s.Submit(m)
	}
	if _, err := s.Submit(m); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("victim Submit error = %v, want ErrQueueFull", err)
	}
	if rivalErr != nil {
		t.Fatalf("rival Submit: %v", rivalErr)
	}

	// The listing must hold exactly the blocker and the rival — the
	// rival not evicted, no phantom entry for the destroyed victim.
	page := s.Runs(0, 0)
	if page.Total != 2 {
		t.Fatalf("/runs total = %d after undo, want 2", page.Total)
	}
	if page.Runs[1].ID != rival.ID {
		t.Fatalf("listing holds run %d after undo, want rival %d", page.Runs[1].ID, rival.ID)
	}
	if _, err := os.Stat(rival.Dir); err != nil {
		t.Fatalf("rival run lost its directory: %v", err)
	}

	// And the rival still executes to completion.
	close(release)
	waitRunState(t, h, blocker.ID, RunDone)
	waitRunState(t, h, rival.ID, RunDone)
}

// TestServerCancelRunningDuringDrain pins the classification of a run
// its tenant DELETEd while running when a server drain races the engine
// unwind: the explicit discard wins — the directory is removed and the
// run does not resurrect at the next start.
func TestServerCancelRunningDuringDrain(t *testing.T) {
	m := testMatrix()
	base := t.TempDir()
	gate := make(chan struct{})
	s, err := NewServer(ServerConfig{
		BaseDir: base,
		RunConfig: Config{
			Parallelism: 1,
			// Ignores cancellation until the gate opens, so the drain
			// reliably begins before the engine observes the DELETE.
			runJob: func(_ context.Context, j Job) Result {
				<-gate
				return Result{Job: j, Err: "stub"}
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	_, body := postRun(t, h, m)
	info := decode[RunInfo](t, body)
	waitRunState(t, h, info.ID, RunRunning)

	if code, body := deleteRun(t, h, info.ID); code != http.StatusOK {
		t.Fatalf("DELETE running run: status %d (%s)", code, body)
	}
	// Begin the drain, and only then let the engine unwind: at
	// classification time the server context is already cancelled.
	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		shutdownDone <- s.Shutdown(ctx)
	}()
	deadline := time.Now().Add(30 * time.Second)
	for s.ctx.Err() == nil {
		if time.Now().After(deadline) {
			t.Fatal("shutdown never cancelled the server context")
		}
		time.Sleep(time.Millisecond)
	}
	close(gate)
	if err := <-shutdownDone; err != nil {
		t.Fatalf("shutdown: %v", err)
	}

	if _, err := os.Stat(info.Dir); !os.IsNotExist(err) {
		t.Errorf("DELETEd run kept its directory across a racing drain (err %v)", err)
	}
	s2 := newTestServer(t, ServerConfig{BaseDir: base, RunConfig: Config{Parallelism: 1}})
	if got := s2.Recovered(); got != 0 {
		t.Errorf("DELETEd run resurrected at restart: recovered %d, want 0", got)
	}
}

// TestServerCancelQueuedAfterDrain pins DELETE of a queued run once
// Shutdown's drain has already closed its checkpoint log: the directory
// is still removed, so the canceled run cannot resurrect at the next
// server start.
func TestServerCancelQueuedAfterDrain(t *testing.T) {
	m := testMatrix()
	base := t.TempDir()
	release := make(chan struct{})
	defer close(release)
	s, err := NewServer(ServerConfig{
		BaseDir:       base,
		QueueCapacity: 4,
		MaxActiveRuns: 1,
		RunConfig:     blockingRunConfig(release),
	})
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	_, body := postRun(t, h, m)
	running := decode[RunInfo](t, body)
	waitRunState(t, h, running.ID, RunRunning)
	_, body = postRun(t, h, m)
	queued := decode[RunInfo](t, body)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}

	// The drain closed the queued run's checkpoint log; DELETE must
	// still remove its directory.
	if code, body := deleteRun(t, h, queued.ID); code != http.StatusOK {
		t.Fatalf("DELETE queued run after drain: status %d (%s)", code, body)
	}
	if _, err := os.Stat(queued.Dir); !os.IsNotExist(err) {
		t.Errorf("canceled queued run kept its directory after drain (err %v)", err)
	}

	// Only the drained running run resumes at the next start.
	s2 := newTestServer(t, ServerConfig{BaseDir: base, RunConfig: Config{Parallelism: 2}})
	if got := s2.Recovered(); got != 1 {
		t.Errorf("recovered %d runs, want only the drained running run", got)
	}
	if _, ok := s2.lookup(queued.ID); ok {
		t.Errorf("canceled queued run %d resurrected at restart", queued.ID)
	}
	waitRunState(t, s2.Handler(), running.ID, RunDone)
}

// TestServerSubmitInternalError pins the admission error split: a spec
// failing matrix validation is the client's fault (400, covered by
// TestServerRejectsBadSubmissions), but a server-side checkpoint
// failure on a valid spec answers 500.
func TestServerSubmitInternalError(t *testing.T) {
	m := testMatrix()
	base := t.TempDir()
	s := newTestServer(t, ServerConfig{BaseDir: base, RunConfig: Config{Parallelism: 2}})
	h := s.Handler()

	// Occupy the next run directory's path with a regular file: the
	// checkpoint's MkdirAll fails server-side on an otherwise valid spec.
	if err := os.WriteFile(filepath.Join(base, runDirName(0)), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	code, body := postRun(t, h, m)
	if code != http.StatusInternalServerError {
		t.Errorf("server-side admission failure: status %d (%s), want 500", code, body)
	}

	// The failure consumed only the colliding ID; a clean retry of the
	// same valid spec is admitted and completes.
	code, body = postRun(t, h, m)
	if code != http.StatusAccepted {
		t.Fatalf("retry after internal failure: status %d (%s)", code, body)
	}
	waitRunState(t, h, decode[RunInfo](t, body).ID, RunDone)
}

// TestServerRunsPaging pins /runs paging and the queue-state listing.
func TestServerRunsPaging(t *testing.T) {
	m := Matrix{Circuits: []string{"c17"}, Scenarios: []Scenario{ScenarioQuality}, Patterns: 8}
	release := make(chan struct{})
	defer close(release)
	s := newTestServer(t, ServerConfig{
		QueueCapacity: 8,
		MaxActiveRuns: 1,
		RunConfig:     blockingRunConfig(release),
	})
	h := s.Handler()
	for i := 0; i < 5; i++ {
		if code, body := postRun(t, h, m); code != http.StatusAccepted {
			t.Fatalf("POST %d: status %d (%s)", i, code, body)
		}
	}
	page := decode[RunsPage](t, second(get(t, h, "/runs?offset=1&limit=2")))
	if page.Total != 5 || page.Count != 2 || page.Runs[0].ID != 1 {
		t.Errorf("/runs?offset=1&limit=2 = total %d count %d first %d", page.Total, page.Count, page.Runs[0].ID)
	}
	if code, _ := get(t, h, "/runs?offset=-1"); code != http.StatusBadRequest {
		t.Errorf("/runs?offset=-1: status %d, want 400", code)
	}
	// At most one run is executing; the rest report queued.
	queued := 0
	for _, r := range decode[RunsPage](t, second(get(t, h, "/runs"))).Runs {
		if r.State == RunQueued {
			queued++
		}
	}
	if queued < 4 {
		t.Errorf("%d runs report queued, want >= 4", queued)
	}
}
