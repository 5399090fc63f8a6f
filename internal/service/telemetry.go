package service

// The always-on telemetry capture: a background sampler snapshots the
// /statsz counter families every Config.FTDCInterval into an
// internal/ftdc disk ring (delta-encoded, crash-tolerant), and
// GET /statsz/history replays the ring — including segments written by
// a previous process, so the history survives a kill -9. The live side
// of the same signals (queue-wait p99, per-class backlog) is what the
// admission layer sheds on; the capture exists so an operator can see
// why requests were shed after the fact.

import (
	"errors"
	"net/http"
	"sort"
	"strconv"
	"time"

	"repro/internal/ftdc"
	"repro/internal/jobs"
)

// telemetrySample snapshots every counter family as a sorted
// (names, values) pair — the stable metric schema one ftdc segment
// carries. Names are family-dotted (docs/stats-schema.md).
func (s *Server) telemetrySample() ([]string, []int64) {
	cst := s.cache.Stats()
	s.statsMu.Lock()
	ctr := s.ctr
	s.statsMu.Unlock()
	var jst jobs.Stats
	s.jobMu.Lock()
	if s.jobq != nil {
		jst = s.jobq.Stats()
	}
	s.jobMu.Unlock()

	m := map[string]int64{
		"admission.admitted":          ctr.admitted,
		"admission.queue_wait_p99_ms": s.waits.p99(time.Now()).Milliseconds(),
		"admission.shed_deadline":     ctr.shedDeadline,
		"admission.shed_quota":        ctr.shedQuota,
		"cache.bytes":                 cst.Bytes,
		"cache.evictions":             int64(cst.Evictions),
		"cache.hits":                  ctr.hits,
		"cache.len":                   int64(s.cache.Len()),
		"cache.misses":                ctr.misses,
		"canon.inexact":               ctr.canonInexact,
		"coalesce.detached":           ctr.detached,
		"coalesce.waiters":            ctr.waiters,
		"delta.base_miss":             ctr.deltaBaseMiss,
		"delta.cold":                  ctr.deltaCold,
		"delta.trivial":               ctr.deltaTrivial,
		"delta.warm":                  ctr.deltaWarm,
		"engine.cancelled":            ctr.engineCancelled,
		"engine.races":                ctr.engineRaces,
		"jobs.compactions":            jst.Compactions,
		"jobs.done":                   jst.Done,
		"jobs.failed":                 jst.Failed,
		"jobs.queued":                 int64(jst.Queued),
		"jobs.retried":                jst.Retried,
		"jobs.running":                int64(jst.Running),
		"serve.errors":                ctr.errors,
		"serve.in_flight":             int64(len(s.slots)),
		"serve.served":                ctr.served,
	}
	for _, p := range jobs.Priorities() {
		m["jobs.backlog."+p] = int64(jst.QueuedByPriority[p])
	}
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	values := make([]int64, len(names))
	for i, name := range names {
		values[i] = m[name]
	}
	return names, values
}

// StartTelemetry opens the ftdc ring in Config.FTDCDir and starts the
// sampling loop. Idempotent start is an error, like StartJobs.
func (s *Server) StartTelemetry() error {
	if s.cfg.FTDCDir == "" {
		return errors.New("service: telemetry needs Config.FTDCDir")
	}
	s.ftdcMu.Lock()
	defer s.ftdcMu.Unlock()
	if s.ftdcW != nil {
		return errors.New("service: telemetry already started")
	}
	w, err := ftdc.NewWriter(s.cfg.FTDCDir, ftdc.Options{})
	if err != nil {
		return err
	}
	s.ftdcW = w
	s.ftdcStop = make(chan struct{})
	s.ftdcWG.Add(1)
	go s.telemetryLoop(s.ftdcStop)
	return nil
}

func (s *Server) telemetryLoop(stop <-chan struct{}) {
	defer s.ftdcWG.Done()
	t := time.NewTicker(s.cfg.FTDCInterval)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case now := <-t.C:
			names, values := s.telemetrySample()
			// Append errors (disk full, dir removed) drop the sample,
			// not the service: telemetry must never take serving down.
			s.ftdcMu.Lock()
			if s.ftdcW != nil {
				_ = s.ftdcW.Append(now, names, values)
			}
			s.ftdcMu.Unlock()
		}
	}
}

// StopTelemetry stops the sampler and fsyncs the open segment.
func (s *Server) StopTelemetry() {
	s.ftdcMu.Lock()
	stop := s.ftdcStop
	s.ftdcStop = nil
	s.ftdcMu.Unlock()
	if stop == nil {
		return
	}
	close(stop)
	s.ftdcWG.Wait()
	s.ftdcMu.Lock()
	if s.ftdcW != nil {
		_ = s.ftdcW.Close()
		s.ftdcW = nil
	}
	s.ftdcMu.Unlock()
}

// historyResponse is the GET /statsz/history payload: columnar samples
// (metrics names the columns of every v row) replayed from the ftdc
// ring, oldest first.
type historyResponse struct {
	Schema  string          `json:"schema"`
	Metrics []string        `json:"metrics"`
	Samples []historySample `json:"samples"`
	// Truncated reports a crash-cut tail record in the newest segment
	// (dropped; everything before it is intact). Segments is how many
	// ring segments backed the replay.
	Truncated bool `json:"truncated,omitempty"`
	Segments  int  `json:"segments"`
}

type historySample struct {
	// T is the sample time in Unix milliseconds.
	T int64 `json:"t"`
	// V holds one value per entry of Metrics, in order.
	V []int64 `json:"v"`
}

// handleStatszHistory replays the telemetry ring: GET
// /statsz/history?last=N returns the newest N samples (default 600 —
// ten minutes at the default 1s interval). It reads the segment files,
// not the live writer, so it also serves history recorded by a
// previous process after a crash.
func (s *Server) handleStatszHistory(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	if s.cfg.FTDCDir == "" {
		writeJSON(w, http.StatusNotImplemented,
			Response{Error: "telemetry disabled (start sppserve with -ftdc-dir)"})
		return
	}
	last := 600
	if v := r.URL.Query().Get("last"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			writeJSON(w, http.StatusBadRequest, Response{Error: "last must be a positive integer"})
			return
		}
		last = n
	}
	h, err := ftdc.ReadDir(s.cfg.FTDCDir)
	if err != nil {
		writeJSON(w, http.StatusInternalServerError, Response{Error: "telemetry read: " + err.Error()})
		return
	}
	samples := h.Samples
	if len(samples) > last {
		samples = samples[len(samples)-last:]
	}
	// Column set: union of the kept samples' metrics (stable across a
	// deploy; a restart that changes the metric schema just widens the
	// union, with 0 for samples predating a column).
	set := make(map[string]struct{})
	for _, sm := range samples {
		for name := range sm.Values {
			set[name] = struct{}{}
		}
	}
	metrics := make([]string, 0, len(set))
	for name := range set {
		metrics = append(metrics, name)
	}
	sort.Strings(metrics)
	out := historyResponse{
		Schema:    "spp-ftdc-history/v1",
		Metrics:   metrics,
		Samples:   make([]historySample, len(samples)),
		Truncated: h.Truncated,
		Segments:  h.Segments,
	}
	for i, sm := range samples {
		v := make([]int64, len(metrics))
		for j, name := range metrics {
			v[j] = sm.Values[name]
		}
		out.Samples[i] = historySample{T: sm.UnixMS, V: v}
	}
	writeJSON(w, http.StatusOK, out)
}
