package service

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/jobs"
)

func jobsConfig(t *testing.T) Config {
	t.Helper()
	cfg := testConfig()
	cfg.JobsDir = t.TempDir()
	cfg.JobWorkers = 1
	cfg.JobLeaseTTL = 2 * time.Second
	return cfg
}

func startJobs(t *testing.T, s *Server) *jobs.Replay {
	t.Helper()
	rep, err := s.StartJobs()
	if err != nil {
		t.Fatalf("StartJobs: %v", err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := s.StopJobs(ctx); err != nil {
			t.Errorf("StopJobs: %v", err)
		}
	})
	return rep
}

func decodeJobStatus(t testing.TB, body string) JobStatus {
	t.Helper()
	var st JobStatus
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatalf("bad job status JSON: %v\n%s", err, body)
	}
	return st
}

// waitJob long-polls the job until it reaches a terminal state.
func waitJob(t *testing.T, h http.Handler, id string) JobStatus {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		code, body := get(t, h, "/v1/jobs/"+id+"?wait_ms=500")
		if code != http.StatusOK {
			t.Fatalf("GET job: status %d: %s", code, body)
		}
		st := decodeJobStatus(t, body)
		if st.State == string(jobs.StateDone) || st.State == string(jobs.StateFailed) {
			return st
		}
	}
	t.Fatalf("job %s never went terminal", id)
	return JobStatus{}
}

func TestJobLifecycle(t *testing.T) {
	s := New(jobsConfig(t))
	startJobs(t, s)
	h := s.Handler()

	body := fmt.Sprintf(`{"priority":"interactive","n":4,"on":%s}`, pointsJSON(oddParity(4)))
	req := httptest.NewRequest(http.MethodPost, "/v1/jobs", strings.NewReader(body))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusAccepted {
		t.Fatalf("submit: status %d: %s", w.Code, w.Body.String())
	}
	st := decodeJobStatus(t, w.Body.String())
	if st.ID == "" {
		t.Fatalf("submit returned no id: %s", w.Body.String())
	}
	if st.Priority != jobs.PriorityInteractive {
		t.Fatalf("priority = %q, want interactive", st.Priority)
	}
	if loc := w.Header().Get("Location"); loc != "/v1/jobs/"+st.ID {
		t.Fatalf("Location = %q", loc)
	}

	final := waitJob(t, h, st.ID)
	if final.State != string(jobs.StateDone) {
		t.Fatalf("state = %s (error %q), want done", final.State, final.Error)
	}
	var resp Response
	if err := json.Unmarshal(final.Result, &resp); err != nil {
		t.Fatalf("result not a Response: %v", err)
	}
	if resp.Error != "" || resp.Form == "" {
		t.Fatalf("bad embedded result: %+v", resp)
	}

	// The job's compute landed in the shared result cache: the same
	// function over the synchronous API is a hit.
	code, out := post(t, h, fmt.Sprintf(`{"n":4,"on":%s}`, pointsJSON(oddParity(4))))
	if code != http.StatusOK {
		t.Fatalf("minimize after job: status %d: %s", code, out)
	}
	if r := decodeResp(t, out); !r.Cached {
		t.Fatalf("minimize after job not cached: %+v", r)
	}

	code, out = get(t, h, "/statsz")
	if code != http.StatusOK {
		t.Fatalf("statsz: %d", code)
	}
	var sz Statsz
	if err := json.Unmarshal([]byte(out), &sz); err != nil {
		t.Fatalf("statsz JSON: %v", err)
	}
	if sz.JobsDone != 1 || sz.JobsQueued != 0 || sz.JobsRunning != 0 {
		t.Fatalf("statsz jobs: done=%d queued=%d running=%d", sz.JobsDone, sz.JobsQueued, sz.JobsRunning)
	}
	if sz.JobsByPriority[jobs.PriorityInteractive] != 1 {
		t.Fatalf("jobs_by_priority = %v", sz.JobsByPriority)
	}
}

func TestJobSubmitValidation(t *testing.T) {
	s := New(jobsConfig(t))
	startJobs(t, s)
	h := s.Handler()

	cases := []struct {
		name string
		body string
		want int
		sub  string
	}{
		{"bad algorithm", `{"n":3,"on":[1,2],"algorithm":"bogus"}`, http.StatusBadRequest, "algorithm"},
		{"no function", `{"priority":"bulk"}`, http.StatusBadRequest, ""},
		{"batch rejected", `{"requests":[{"n":3,"on":[1]}]}`, http.StatusBadRequest, "batch"},
		{"unknown priority", `{"priority":"urgent","n":3,"on":[1]}`, http.StatusBadRequest, "priority"},
		{"delta without warm cache", `{"base":"` + strings.Repeat("00", 32) + `","add":[1]}`, http.StatusBadRequest, "warm cache"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req := httptest.NewRequest(http.MethodPost, "/v1/jobs", strings.NewReader(tc.body))
			w := httptest.NewRecorder()
			h.ServeHTTP(w, req)
			if w.Code != tc.want {
				t.Fatalf("status %d, want %d: %s", w.Code, tc.want, w.Body.String())
			}
			if tc.sub != "" && !strings.Contains(w.Body.String(), tc.sub) {
				t.Fatalf("error %q does not mention %q", w.Body.String(), tc.sub)
			}
		})
	}

	// Nothing above may have reached the journal.
	assertNoEnqueueRecords(t, s.cfg.JobsDir)
}

func TestJobsDisabled501(t *testing.T) {
	s := New(testConfig()) // no JobsDir, no StartJobs
	h := s.Handler()
	req := httptest.NewRequest(http.MethodPost, "/v1/jobs", strings.NewReader(`{"n":3,"on":[1]}`))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusNotImplemented {
		t.Fatalf("submit: status %d, want 501", w.Code)
	}
	if code, _ := get(t, h, "/v1/jobs/j-1-dead"); code != http.StatusNotImplemented {
		t.Fatalf("get: status %d, want 501", code)
	}
}

func assertNoEnqueueRecords(t *testing.T, dir string) {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("read journal dir: %v", err)
	}
	for _, e := range ents {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatalf("read %s: %v", e.Name(), err)
		}
		if strings.Contains(string(data), `"op":"enq"`) {
			t.Fatalf("journal %s has an enqueue record:\n%s", e.Name(), data)
		}
	}
}

// A drained server must 503 a job submission BEFORE journaling it —
// journal-then-drop would accept work it never runs.
func TestJobSubmitDuringDrain503NotJournaled(t *testing.T) {
	s := New(jobsConfig(t))
	startJobs(t, s)
	h := s.Handler()

	s.SetDraining(true)
	req := httptest.NewRequest(http.MethodPost, "/v1/jobs",
		strings.NewReader(fmt.Sprintf(`{"n":3,"on":%s}`, pointsJSON(oddParity(3)))))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining: status %d, want 503", w.Code)
	}
	assertNoEnqueueRecords(t, s.cfg.JobsDir)
	s.SetDraining(false)
}

// A long-poll abandoned by its client must return with the request
// context and leak no goroutine — the wait is a select, not a watcher.
func TestJobLongPollCancelNoGoroutineLeak(t *testing.T) {
	s := New(jobsConfig(t))
	gate := make(chan struct{})
	s.testHookAfterAcquire = func(ctx context.Context) {
		select {
		case <-gate:
		case <-ctx.Done():
		}
	}
	startJobs(t, s)
	h := s.Handler()

	req := httptest.NewRequest(http.MethodPost, "/v1/jobs",
		strings.NewReader(fmt.Sprintf(`{"n":4,"on":%s}`, pointsJSON(oddParity(4)))))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusAccepted {
		t.Fatalf("submit: status %d: %s", w.Code, w.Body.String())
	}
	id := decodeJobStatus(t, w.Body.String()).ID

	before := runtime.NumGoroutine()
	for i := 0; i < 20; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		go func() { time.Sleep(5 * time.Millisecond); cancel() }()
		greq := httptest.NewRequest(http.MethodGet, "/v1/jobs/"+id+"?wait_ms=60000", nil).WithContext(ctx)
		gw := httptest.NewRecorder()
		start := time.Now()
		h.ServeHTTP(gw, greq)
		cancel()
		if elapsed := time.Since(start); elapsed > 5*time.Second {
			t.Fatalf("canceled long-poll took %v", elapsed)
		}
		if gw.Code != http.StatusOK {
			t.Fatalf("long-poll: status %d: %s", gw.Code, gw.Body.String())
		}
		if st := decodeJobStatus(t, gw.Body.String()); st.State == string(jobs.StateDone) {
			t.Fatalf("job finished while gated: %+v", st)
		}
	}
	// The selects unwound with their handlers; allow a little scheduler
	// noise but catch a per-poll watcher leak (20 would show plainly).
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) && runtime.NumGoroutine() > before+5 {
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before+5 {
		t.Fatalf("goroutines grew %d -> %d across canceled long-polls", before, after)
	}

	close(gate)
	if st := waitJob(t, h, id); st.State != string(jobs.StateDone) {
		t.Fatalf("job after release: %+v", st)
	}
}

// Kill-and-replay at the service layer: results journaled by one
// server warm the next server's result cache with no recompute.
func TestJobReplayWarmsCache(t *testing.T) {
	cfg := jobsConfig(t)

	s1 := New(cfg)
	if _, err := s1.StartJobs(); err != nil {
		t.Fatalf("StartJobs: %v", err)
	}
	h1 := s1.Handler()
	req := httptest.NewRequest(http.MethodPost, "/v1/jobs",
		strings.NewReader(fmt.Sprintf(`{"n":4,"on":%s}`, pointsJSON(oddParity(4)))))
	w := httptest.NewRecorder()
	h1.ServeHTTP(w, req)
	if w.Code != http.StatusAccepted {
		t.Fatalf("submit: status %d: %s", w.Code, w.Body.String())
	}
	id := decodeJobStatus(t, w.Body.String()).ID
	st := waitJob(t, h1, id)
	if st.State != string(jobs.StateDone) {
		t.Fatalf("job on s1: %+v", st)
	}
	var want Response
	if err := json.Unmarshal(st.Result, &want); err != nil {
		t.Fatalf("result: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s1.StopJobs(ctx); err != nil {
		t.Fatalf("StopJobs: %v", err)
	}

	// Second life: same journal dir, fresh cache.
	s2 := New(cfg)
	rep := startJobs(t, s2)
	if len(rep.Completed) != 1 || rep.Requeued != 0 {
		t.Fatalf("replay: completed=%d requeued=%d", len(rep.Completed), rep.Requeued)
	}
	h2 := s2.Handler()

	// The replayed job is still queryable, result intact.
	code, body := get(t, h2, "/v1/jobs/"+id)
	if code != http.StatusOK {
		t.Fatalf("GET replayed job: %d: %s", code, body)
	}
	if st2 := decodeJobStatus(t, body); st2.State != string(jobs.StateDone) {
		t.Fatalf("replayed job state: %+v", st2)
	}

	// And its warm blob repopulated fcache: the same function is an
	// immediate cache hit with the identical form.
	code, out := post(t, h2, fmt.Sprintf(`{"n":4,"on":%s}`, pointsJSON(oddParity(4))))
	if code != http.StatusOK {
		t.Fatalf("minimize on s2: %d: %s", code, out)
	}
	r := decodeResp(t, out)
	if !r.Cached {
		t.Fatalf("replay did not warm the cache: %+v", r)
	}
	if r.Form != want.Form || r.Key != want.Key {
		t.Fatalf("warmed entry differs: form %q vs %q, key %q vs %q", r.Form, want.Form, r.Key, want.Key)
	}

	var sz Statsz
	_, szBody := get(t, h2, "/statsz")
	if err := json.Unmarshal([]byte(szBody), &sz); err != nil {
		t.Fatalf("statsz: %v", err)
	}
	if sz.JobsReplayed != 1 {
		t.Fatalf("jobs_replayed = %d, want 1", sz.JobsReplayed)
	}
}

// A journaled job whose options no longer validate at execution time
// (here: a delta job replayed onto a server without the warm cache)
// must park as failed with the error preserved, not loop forever.
func TestJobInvalidAtExecutionFailsTerminally(t *testing.T) {
	cfg := jobsConfig(t)

	// Seed the journal out-of-band, as a previous server generation
	// would have: an accepted delta job that was never run.
	q, _, err := jobs.Open(jobs.Options{Dir: cfg.JobsDir})
	if err != nil {
		t.Fatalf("seed open: %v", err)
	}
	j, err := q.Enqueue(jobs.PriorityBatch,
		json.RawMessage(`{"base":"`+strings.Repeat("00", 32)+`","add":[1]}`))
	if err != nil {
		t.Fatalf("seed enqueue: %v", err)
	}
	if err := q.Close(); err != nil {
		t.Fatalf("seed close: %v", err)
	}

	s := New(cfg) // WarmCache off: the delta payload cannot run here
	rep := startJobs(t, s)
	if rep.Requeued != 1 {
		t.Fatalf("requeued = %d, want 1", rep.Requeued)
	}
	st := waitJob(t, s.Handler(), j.ID)
	if st.State != string(jobs.StateFailed) {
		t.Fatalf("state = %s, want failed", st.State)
	}
	if st.Error == "" {
		t.Fatalf("failed job lost its error: %+v", st)
	}
}

// A naive-baseline job journaled before the server stopped serving the
// baseline must replay to a failed terminal state carrying the
// unknown-algorithm error, not crash the worker or run the baseline.
func TestJobReplayNaiveFails(t *testing.T) {
	cfg := jobsConfig(t)
	q, _, err := jobs.Open(jobs.Options{Dir: cfg.JobsDir})
	if err != nil {
		t.Fatalf("seed open: %v", err)
	}
	j, err := q.Enqueue(jobs.PriorityBatch,
		json.RawMessage(fmt.Sprintf(`{"n":4,"on":%s,"algorithm":"naive"}`, pointsJSON(oddParity(4)))))
	if err != nil {
		t.Fatalf("seed enqueue: %v", err)
	}
	if err := q.Close(); err != nil {
		t.Fatalf("seed close: %v", err)
	}

	s := New(cfg)
	if rep := startJobs(t, s); rep.Requeued != 1 {
		t.Fatalf("requeued = %d, want 1", rep.Requeued)
	}
	st := waitJob(t, s.Handler(), j.ID)
	if st.State != string(jobs.StateFailed) {
		t.Fatalf("state = %s, want failed", st.State)
	}
	if !strings.Contains(st.Error, `unknown algorithm "naive"`) {
		t.Fatalf("failed job error = %q, want unknown algorithm", st.Error)
	}
	// The server still serves: the same function with the default
	// engine computes.
	if code, out := post(t, s.Handler(), fmt.Sprintf(`{"n":4,"on":%s}`, pointsJSON(oddParity(4)))); code != http.StatusOK {
		t.Fatalf("minimize after replay: %d: %s", code, out)
	}
}

// submitJob posts one job and returns its accepted status.
func submitJob(t *testing.T, h http.Handler, body string) JobStatus {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/v1/jobs", strings.NewReader(body))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusAccepted {
		t.Fatalf("submit %s: status %d: %s", body, w.Code, w.Body.String())
	}
	return decodeJobStatus(t, w.Body.String())
}

// doneResponse waits for job id and returns its embedded response,
// failing unless the job ended done.
func doneResponse(t *testing.T, h http.Handler, id string) Response {
	t.Helper()
	final := waitJob(t, h, id)
	if final.State != string(jobs.StateDone) {
		t.Fatalf("job %s: state = %s (error %q), want done", id, final.State, final.Error)
	}
	var resp Response
	if err := json.Unmarshal(final.Result, &resp); err != nil {
		t.Fatalf("job %s: result not a Response: %v", id, err)
	}
	return resp
}

// A job is bounded by its job deadline alone. The harness's per-output
// time budget (spptables' -budget) must not reach it: a job whose EPPP
// build outlasts Core.PerOutput still ends done.
func TestJobOutlastsPerOutputBudget(t *testing.T) {
	cfg := jobsConfig(t)
	cfg.Core.PerOutput = time.Microsecond
	s := New(cfg)
	startJobs(t, s)
	h := s.Handler()

	resp := doneResponse(t, h, submitJob(t, h, `{"bench":"adr4","output":0,"stats":true}`).ID)
	if resp.Literals != 20 {
		t.Errorf("adr4(0): %d literals, want 20", resp.Literals)
	}
	var build float64
	if resp.Stats != nil {
		for _, p := range resp.Stats.Phases {
			if p.Phase == "eppp" {
				build = p.Seconds
			}
		}
	}
	if build <= cfg.Core.PerOutput.Seconds() {
		t.Errorf("EPPP build took %gs, not longer than the %v per-output budget", build, cfg.Core.PerOutput)
	}
}

// A delta job on a real base_key resumes warm, and a second delta job
// chains on the base_key the first one returned.
func TestDeltaJobOnBaseKey(t *testing.T) {
	cfg := jobsConfig(t)
	cfg.WarmCache = true
	s := New(cfg)
	startJobs(t, s)
	h := s.Handler()

	code, body := post(t, h, fmt.Sprintf(`{"n":5,"on":%s}`, pointsJSON(oddParity(5))))
	if code != http.StatusOK {
		t.Fatalf("seed: status %d\n%s", code, body)
	}
	base := decodeResp(t, body).BaseKey
	if base == "" {
		t.Fatal("seed advertised no base_key")
	}

	r := doneResponse(t, h, submitJob(t, h, fmt.Sprintf(`{"base":%q,"add":[0],"remove":[1]}`, base)).ID)
	if r.Delta != "warm" || r.BaseKey == "" {
		t.Fatalf("delta job: delta %q base_key %q, want a warm resume with its own base_key", r.Delta, r.BaseKey)
	}
	verifyForm(t, 5, r.Form, editedParity(5, []uint64{0}, []uint64{1}))

	r = doneResponse(t, h, submitJob(t, h, fmt.Sprintf(`{"base":%q,"remove":[0]}`, r.BaseKey)).ID)
	if r.Delta != "warm" {
		t.Fatalf("chained delta job: delta %q, want warm", r.Delta)
	}
	verifyForm(t, 5, r.Form, editedParity(5, nil, []uint64{1}))
}
