package service

// The async job tier: minimizations too heavy for one HTTP request
// deadline are accepted into a journaled priority queue
// (internal/jobs) and drained by a bounded worker pool that runs each
// job through the same process() path as interactive requests — same
// admission gate, same result cache, same coalescing. Lifecycle:
//
//	accept  — POST /v1/jobs validates the request, journals it, and
//	          returns the job id with 202 before any compute starts.
//	journal — the enqueue record is durable before the job is visible;
//	          a crash after the 202 loses nothing.
//	lease   — a worker leases the job (priority order) and heartbeats
//	          while computing; a dead worker's lease expires and the
//	          job is retried up to Config.JobRetries times, then parked
//	          as failed with the error preserved.
//	compute — the job runs under Config.JobTimeout (not the interactive
//	          default), taking an admission slot like any engine run.
//	land    — the result lands in fcache under the canonical key, the
//	          response JSON plus a canonical-space warm blob land in the
//	          journal, and the job goes terminal exactly once.
//	replay  — on StartJobs the journal is replayed: completed jobs
//	          restore their results AND re-warm fcache (the warm blob
//	          is parsed back with core.ParseForm — no recompute), while
//	          incomplete jobs re-enqueue. A kill -9 mid-drain only
//	          re-runs work, never loses or duplicates it.
//
// Clients poll GET /v1/jobs/{id}, or long-poll it with ?wait_ms=N; the
// wait is select-based (no watcher goroutine), so an abandoned
// long-poll cancels cleanly with its request context.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/bfunc"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/fcache"
	"repro/internal/jobs"
)

// jobEnvelope is the POST /v1/jobs body: one minimize/delta Request
// plus a priority class. Batch envelopes are rejected — one job, one
// function.
type jobEnvelope struct {
	Priority string `json:"priority,omitempty"`
	Request
	Requests []Request `json:"requests,omitempty"`
}

// JobStatus is the job-facing API shape: the POST /v1/jobs response
// and every GET /v1/jobs/{id} response.
type JobStatus struct {
	ID       string `json:"id"`
	State    string `json:"state"`
	Priority string `json:"priority"`
	// Attempts counts lease-expiry retries so far.
	Attempts int `json:"attempts,omitempty"`
	// Position is the 1-based queue position while queued.
	Position int `json:"position,omitempty"`
	// RetryAfterMS hints when to poll next (also sent as a Retry-After
	// header, in seconds); only on non-terminal states.
	RetryAfterMS int64 `json:"retry_after_ms,omitempty"`
	// Result is the full minimize Response once done (and, for jobs
	// that failed inside the engines, the error-bearing response).
	Result json.RawMessage `json:"result,omitempty"`
	// Error is set on failed jobs.
	Error string `json:"error,omitempty"`
}

// jobWarmBlob is the journal side-channel that lets replay warm fcache
// without recomputing: the canonical-space function, its form (as
// text, re-parsed by core.ParseForm), and the exact cache key the
// entry lived under.
type jobWarmBlob struct {
	Key          string   `json:"key"`
	N            int      `json:"n"`
	On           []uint64 `json:"on"`
	Dc           []uint64 `json:"dc,omitempty"`
	Form         string   `json:"form"`
	EPPP         int      `json:"eppp,omitempty"`
	CoverOptimal bool     `json:"cover_optimal,omitempty"`
}

// StartJobs opens the journaled queue in Config.JobsDir, replays it —
// warming fcache from completed jobs and re-enqueueing incomplete ones
// — and starts the worker pool. It returns the replay summary.
func (s *Server) StartJobs() (*jobs.Replay, error) {
	if s.cfg.JobsDir == "" {
		return nil, errors.New("service: jobs tier needs Config.JobsDir")
	}
	s.jobMu.Lock()
	defer s.jobMu.Unlock()
	if s.jobq != nil {
		return nil, errors.New("service: jobs tier already started")
	}
	q, rep, err := jobs.Open(jobs.Options{
		Dir:        s.cfg.JobsDir,
		LeaseTTL:   s.cfg.JobLeaseTTL,
		MaxRetries: s.cfg.JobRetries,
		ResultTTL:  s.cfg.JobResultTTL,
	})
	if err != nil {
		return nil, err
	}

	for _, j := range rep.Completed {
		if j.State == jobs.StateDone && s.warmFromJournal(j.Warm) {
			s.jobsReplayed.Add(1)
		}
	}
	s.jobsRequeued.Store(int64(rep.Requeued))

	leaseCtx, stopLease := context.WithCancel(context.Background())
	hardCtx, stopHard := context.WithCancel(context.Background())
	s.jobq = q
	s.jobStopLease = stopLease
	s.jobStopHard = stopHard
	for i := 0; i < s.cfg.JobWorkers; i++ {
		s.jobWG.Add(1)
		go func() {
			defer s.jobWG.Done()
			s.jobWorker(leaseCtx, hardCtx)
		}()
	}
	return rep, nil
}

// StopJobs drains the worker pool: no new leases are taken, running
// computes get until ctx's deadline to finish, then are cancelled and
// their jobs released back to the queue (the journal re-runs them next
// start). Finally the queue is closed.
func (s *Server) StopJobs(ctx context.Context) error {
	s.jobMu.Lock()
	q := s.jobq
	stopLease, stopHard := s.jobStopLease, s.jobStopHard
	s.jobMu.Unlock()
	if q == nil {
		return nil
	}
	stopLease()
	done := make(chan struct{})
	go func() { s.jobWG.Wait(); close(done) }()
	select {
	case <-done:
	case <-ctx.Done():
		stopHard() // cut running computes loose; they Release their jobs
		<-done
	}
	stopHard()
	return q.Close()
}

// warmFromJournal rebuilds one result-cache entry from a replayed warm
// blob. Malformed or stale blobs are skipped (the journal is trusted
// for job state, not beyond): the key must re-derive from the stored
// canonical function's shape via the stored tag-bearing key, and the
// form must parse and re-canonicalize.
func (s *Server) warmFromJournal(blob json.RawMessage) bool {
	if len(blob) == 0 {
		return false
	}
	var wb jobWarmBlob
	if err := json.Unmarshal(blob, &wb); err != nil {
		return false
	}
	key, err := fcache.ParseKey(wb.Key)
	if err != nil {
		return false
	}
	if wb.N < 1 || len(wb.On) == 0 {
		return false
	}
	form, err := core.ParseForm(wb.N, wb.Form)
	if err != nil {
		return false
	}
	canon := bfunc.NewDC(wb.N, wb.On, wb.Dc)
	s.cache.Put(key, cacheEntry{
		canon:        canon,
		form:         engine.SPPForm{F: form},
		kind:         "spp",
		eppp:         wb.EPPP,
		coverOptimal: wb.CoverOptimal,
	})
	return true
}

// jobWorker leases and executes jobs until the lease context ends.
func (s *Server) jobWorker(leaseCtx, hardCtx context.Context) {
	for {
		lease, err := s.jobq.Lease(leaseCtx)
		if err != nil {
			return
		}
		s.executeJob(hardCtx, lease)
	}
}

// jobTimeout bounds one job compute: the request's own timeout_ms if
// set, capped by (and defaulting to) Config.JobTimeout — deliberately
// not the interactive DefaultTimeout, since outliving interactive
// budgets is the tier's whole point.
func (s *Server) jobTimeout(q Request) time.Duration {
	d := s.cfg.JobTimeout
	if q.TimeoutMS > 0 {
		d = min(time.Duration(q.TimeoutMS)*time.Millisecond, d)
	}
	return d
}

// executeJob runs one leased job through process() with a heartbeat
// keeping the lease alive, then resolves it exactly once. A hardCtx
// cancellation (graceful shutdown) releases the job back to the queue
// instead of failing it.
func (s *Server) executeJob(hardCtx context.Context, lease *jobs.Lease) {
	var req Request
	if err := json.Unmarshal(lease.Job.Payload, &req); err != nil {
		lease.Fail("undecodable job payload: " + err.Error())
		return
	}
	// The job's priority class rides into the admission gate, where a
	// full gate sheds bulk work earlier than interactive work.
	jobCtx, cancel := context.WithTimeout(withPriority(hardCtx, lease.Job.Priority), s.jobTimeout(req))
	defer cancel()

	// Heartbeat at a third of the TTL; losing the lease (reclaimed
	// after a stall) cancels the compute so the retry does not race a
	// half-finished duplicate for the admission gate.
	hbStop := make(chan struct{})
	hbDone := make(chan struct{})
	ttl := s.cfg.JobLeaseTTL
	go func() {
		defer close(hbDone)
		t := time.NewTicker(ttl / 3)
		defer t.Stop()
		for {
			select {
			case <-hbStop:
				return
			case <-t.C:
				if !lease.Heartbeat() {
					cancel()
					return
				}
			}
		}
	}()

	resp := s.process(jobCtx, req)
	close(hbStop)
	<-hbDone
	s.record(resp.outcome)

	if hardCtx.Err() != nil && resp.Error != "" {
		// Shutdown interrupted the compute: not a job failure. Put it
		// back; the journal re-runs it next start.
		lease.Release()
		return
	}
	body, err := json.Marshal(resp)
	if err != nil {
		lease.Fail("unencodable result: " + err.Error())
		return
	}
	if resp.Error != "" {
		// Deterministic failure (bad request, budget, timeout under the
		// job deadline): terminal immediately — retrying cannot help.
		lease.Fail(resp.Error)
		return
	}
	lease.Done(body, s.warmBlobFor(resp))
}

// warmBlobFor captures the canonical-space cache entry behind a
// successful response so journal replay can re-warm fcache. Responses
// without a cache key (delta chains) yield no blob, and neither do
// non-SPP entries: the blob stores the form as text re-parsed by
// core.ParseForm, which only speaks the SPP grammar. Portfolio results
// simply recompute on replay instead of round-tripping lossily.
func (s *Server) warmBlobFor(resp Response) json.RawMessage {
	if resp.Key == "" {
		return nil
	}
	key, err := fcache.ParseKey(resp.Key)
	if err != nil {
		return nil
	}
	e, ok := s.cache.Get(key)
	if !ok || e.canon == nil || e.kind != "spp" {
		return nil
	}
	blob, err := json.Marshal(jobWarmBlob{
		Key:          resp.Key,
		N:            e.canon.N(),
		On:           e.canon.On(),
		Dc:           e.canon.DC(),
		Form:         e.form.String(),
		EPPP:         e.eppp,
		CoverOptimal: e.coverOptimal,
	})
	if err != nil {
		return nil
	}
	return blob
}

// handleJobSubmit accepts one job: POST /v1/jobs. Validation happens
// before the journal write, and draining refuses the request before
// either — a drained server must never journal-then-drop.
func (s *Server) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	if s.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, Response{Error: "server draining"})
		return
	}
	s.jobMu.Lock()
	q := s.jobq
	s.jobMu.Unlock()
	if q == nil {
		writeJSON(w, http.StatusNotImplemented, Response{Error: "jobs tier disabled (start sppserve with -jobs-dir)"})
		return
	}
	// One token per submission, charged before the body is decoded —
	// over-quota tenants cannot make the server parse anything.
	if s.quotas != nil {
		tenant := tenantFrom(r)
		if wait, ok := s.quotas.take(tenant, 1, time.Now()); !ok {
			s.statsMu.Lock()
			s.ctr.shedQuota++
			s.statsMu.Unlock()
			ms := max(wait.Milliseconds(), 1)
			w.Header().Set("Retry-After", retryAfterSeconds(ms))
			writeJSON(w, http.StatusTooManyRequests, Response{
				Error:        fmt.Sprintf("tenant %q over quota (%.3g req/s)", tenant, s.quotas.rps),
				Code:         "quota_exhausted",
				RetryAfterMS: ms,
			})
			return
		}
	}
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	var env jobEnvelope
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&env); err != nil {
		status := http.StatusBadRequest
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			status = http.StatusRequestEntityTooLarge
		}
		writeJSON(w, status, Response{Error: "bad request: " + err.Error()})
		return
	}
	if env.Requests != nil {
		writeJSON(w, http.StatusBadRequest, Response{Error: "batch envelopes are not jobs: submit one job per request"})
		return
	}
	if _, err := jobs.NormalizePriority(env.Priority); err != nil {
		writeJSON(w, http.StatusBadRequest, Response{Error: err.Error()})
		return
	}
	// Reject garbage before it reaches the journal. Delta jobs get the
	// cheap checks only (the base may legitimately appear or vanish
	// between accept and compute).
	if env.Base == "" {
		f, err := resolveFunction(env.Request)
		if err != nil {
			writeJSON(w, http.StatusBadRequest, Response{Error: err.Error()})
			return
		}
		if _, err := s.normalizeForm(env.Request, f.N()); err != nil {
			writeJSON(w, http.StatusBadRequest, Response{Error: err.Error()})
			return
		}
	} else {
		if !s.cfg.WarmCache {
			writeJSON(w, http.StatusBadRequest, Response{Error: "delta jobs need the warm cache (-warm-cache)"})
			return
		}
		if env.Request.Form != "" && env.Request.Form != "spp" {
			writeJSON(w, http.StatusConflict, Response{Error: fmt.Sprintf(
				"delta jobs support form \"spp\", not %q: resubmit the full function", env.Request.Form)})
			return
		}
		if _, err := fcache.ParseKey(env.Base); err != nil {
			writeJSON(w, http.StatusBadRequest, Response{Error: err.Error()})
			return
		}
	}
	payload, err := json.Marshal(env.Request)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, Response{Error: err.Error()})
		return
	}
	j, err := q.Enqueue(env.Priority, payload)
	if err != nil {
		status := http.StatusInternalServerError
		if errors.Is(err, jobs.ErrClosed) {
			status = http.StatusServiceUnavailable
		}
		writeJSON(w, status, Response{Error: err.Error()})
		return
	}
	_, pos, _ := q.Get(j.ID)
	st := s.jobStatus(j, pos)
	w.Header().Set("Location", "/v1/jobs/"+j.ID)
	writeJSON(w, http.StatusAccepted, st)
}

// handleJobGet serves GET /v1/jobs/{id}, with optional long-poll via
// ?wait_ms=N (capped at Config.MaxTimeout). The wait selects on the
// job's terminal channel against the request context and a timer — no
// goroutine is spawned, so a client that hangs up leaks nothing.
func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	s.jobMu.Lock()
	q := s.jobq
	s.jobMu.Unlock()
	if q == nil {
		writeJSON(w, http.StatusNotImplemented, Response{Error: "jobs tier disabled (start sppserve with -jobs-dir)"})
		return
	}
	id := strings.TrimPrefix(r.URL.Path, "/v1/jobs/")
	if id == "" || strings.Contains(id, "/") {
		writeJSON(w, http.StatusNotFound, Response{Error: "no such job"})
		return
	}
	j, pos, ok := q.Get(id)
	if !ok {
		writeJSON(w, http.StatusNotFound, Response{Error: "no such job"})
		return
	}

	if wait := parseWaitMS(r); wait > 0 && !j.State.Terminal() {
		if capd := s.cfg.MaxTimeout; wait > capd {
			wait = capd
		}
		final, ok := q.Watch(id)
		if ok {
			timer := time.NewTimer(wait)
			select {
			case <-final:
			case <-r.Context().Done():
			case <-timer.C:
			}
			timer.Stop()
			j, pos, ok = q.Get(id)
			if !ok { // trimmed while waiting
				writeJSON(w, http.StatusNotFound, Response{Error: "no such job"})
				return
			}
		}
	}

	st := s.jobStatus(j, pos)
	if st.RetryAfterMS > 0 {
		// Rounded up, never down: a 1500ms hint truncated to 1s makes
		// every client poll early.
		w.Header().Set("Retry-After", retryAfterSeconds(st.RetryAfterMS))
	}
	writeJSON(w, http.StatusOK, st)
}

// maxWaitMS caps ?wait_ms= long-polls at a day — far above
// Config.MaxTimeout (which still applies), but low enough that the
// millisecond-to-Duration conversion can never overflow.
const maxWaitMS = 24 * 60 * 60 * 1000

func parseWaitMS(r *http.Request) time.Duration {
	v := r.URL.Query().Get("wait_ms")
	if v == "" {
		return 0
	}
	ms, err := strconv.ParseInt(v, 10, 64)
	if err != nil {
		// An out-of-range positive number is an emphatic "wait long",
		// not garbage: clamp instead of silently disabling the wait.
		if errors.Is(err, strconv.ErrRange) && !strings.HasPrefix(strings.TrimSpace(v), "-") {
			ms = maxWaitMS
		} else {
			return 0
		}
	}
	if ms <= 0 {
		return 0
	}
	return time.Duration(min(ms, maxWaitMS)) * time.Millisecond
}

// jobStatus shapes one queue snapshot for the API, with a crude
// poll-again hint: queued jobs scale with their position over the
// worker pool, running ones suggest a short beat.
func (s *Server) jobStatus(j jobs.Job, pos int) JobStatus {
	st := JobStatus{
		ID:       j.ID,
		State:    string(j.State),
		Priority: j.Priority,
		Attempts: j.Attempts,
	}
	switch j.State {
	case jobs.StateQueued:
		st.Position = pos
		per := int64(500)
		workers := int64(max(s.cfg.JobWorkers, 1))
		st.RetryAfterMS = min(max(per*int64(pos)/workers, 250), 15000)
	case jobs.StateRunning:
		st.RetryAfterMS = 500
	case jobs.StateDone:
		st.Result = j.Result
	case jobs.StateFailed:
		st.Error = j.Error
		st.Result = j.Result
	}
	return st
}
