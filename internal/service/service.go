// Package service implements the long-running logic-minimization HTTP
// service behind cmd/sppserve: a JSON API over the portfolio engine
// (internal/engine — SPP, SOP, ESOP and DSOP backends behind one
// interface) with a sharded canonical-function result cache
// (internal/fcache), request coalescing for concurrent identical
// misses, a bounded admission gate around the compute path, per-request
// deadlines plumbed as context into the engines, and an observability
// endpoint serving the spp-stats/v1 reports of recent runs.
//
// Endpoints:
//
//	POST /v1/minimize  — minimize one function, or a batch via the
//	                     "requests" array; responses carry the SPP form,
//	                     its metrics, cache status and elapsed time.
//	GET  /healthz      — liveness plus the draining flag.
//	GET  /statsz       — service counters and the spp-stats-run/v1
//	                     report of the last N cold runs.
//
// Two requests whose functions differ only by an input-variable
// permutation or by DC-set spelling hit the same cache entry: the
// function is canonicalized (fcache.CanonicalizeExact, under the request
// deadline) before the key lookup, and the cached canonical-space form
// is mapped back through the inverse permutation on the way out.
// Results cache per-(canonical key, backend salt) — docs/forms.md is
// the normative contract for the "form" request field, including the
// form=auto portfolio race.
//
// The serving hot path is built so that only actual engine runs occupy
// admission slots. A request resolves and canonicalizes its function,
// then: a cache hit returns immediately (no slot); a miss enters a
// per-key singleflight (fcache.Group) where one leader takes a slot and
// computes under its own deadline while identical concurrent requests
// wait slot-free for the broadcast result, detaching with their own
// 504/499 when their deadline dies first. Batch items run through a
// bounded per-batch worker pool (Config.BatchWorkers), so intra-batch
// duplicates coalesce exactly like cross-request ones. See
// ARCHITECTURE.md "The serving path" for the state machine.
package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bench"
	"repro/internal/bfunc"
	"repro/internal/bitvec"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/fcache"
	"repro/internal/ftdc"
	"repro/internal/harness"
	"repro/internal/jobs"
	"repro/internal/stats"
)

// Config tunes the server. The zero value gets sensible defaults from
// New.
type Config struct {
	// Core bounds each minimization (budgets, worker counts), shared
	// with the table harness so sppserve and spptables read the same
	// flags.
	Core harness.Config
	// MaxConcurrent is the admission-gate width: how many engine runs
	// may occupy the pipeline at once. Cache hits and coalesced waiters
	// do not consume slots. Default 2.
	MaxConcurrent int
	// CacheSize is the canonical-function LRU capacity. Default 256.
	CacheSize int
	// CacheShards overrides the result-cache shard count (rounded to a
	// power of two; 0 = automatic, see fcache.NewSharded).
	CacheShards int
	// BatchWorkers bounds how many items of one batch run concurrently
	// (each compute still needs an admission slot). 1 = strictly
	// serial. Default 4.
	BatchWorkers int
	// DefaultTimeout applies to requests that set no timeout_ms.
	// Default 30s.
	DefaultTimeout time.Duration
	// MaxTimeout caps request-supplied timeouts. Default 2m.
	MaxTimeout time.Duration
	// HistorySize is how many recent cold-run reports /statsz returns.
	// Default 32.
	HistorySize int
	// MaxBodyBytes caps the /v1/minimize request body; oversized bodies
	// get 413. Default 8 MiB.
	MaxBodyBytes int64
	// MaxBatch caps the number of requests in one batch envelope.
	// Default 64.
	MaxBatch int
	// CacheBytes bounds the result cache's resident payload bytes
	// (entries are charged their estimated footprint, warm states
	// included, and evicted LRU-first past the budget). Default 256 MiB.
	CacheBytes int64
	// WarmCache retains a warm engine state alongside every exact
	// result, keyed by the exact (request-space) function, enabling the
	// delta request path. Exact computes then run the warm engine —
	// same cost, canonical candidate order, serial EPPP build — so that
	// full and delta results are mutually byte-identical. Off by
	// default.
	WarmCache bool
	// DeltaMaxDirty is the care-set churn fraction above which a delta
	// request falls back to a cold run instead of patching the warm
	// state. Default 0.25.
	DeltaMaxDirty float64
	// JobsDir enables the async job tier when non-empty: POST /v1/jobs
	// journals work here and a worker pool drains it (see jobs.go and
	// internal/jobs). The tier starts with StartJobs, not New.
	JobsDir string
	// JobWorkers bounds how many jobs compute concurrently (each still
	// takes an admission slot). Default 2.
	JobWorkers int
	// JobRetries caps lease-expiry retries before a job is parked as
	// failed. Default 2.
	JobRetries int
	// JobLeaseTTL is how long a job lease survives without a worker
	// heartbeat. Default 30s.
	JobLeaseTTL time.Duration
	// JobTimeout bounds one job compute (and caps job-supplied
	// timeout_ms); deliberately much larger than DefaultTimeout.
	// Default 10m.
	JobTimeout time.Duration
	// Forms lists the enabled portfolio backends ("spp", "sop",
	// "esop", "dsop"); empty enables all of them. Requests naming a
	// disabled form get 400; form=auto races only the enabled ones.
	// Unknown names panic in New — a deployment config error.
	Forms []string
	// JobResultTTL keeps the outcome of a terminal job queryable for
	// this long after KeepDone trims it, so pollers never see a freshly
	// finished job 404. Default 15m; negative disables.
	JobResultTTL time.Duration
	// FTDCDir enables the always-on telemetry ring when non-empty:
	// StartTelemetry samples the /statsz counter families there every
	// FTDCInterval (internal/ftdc segments), and GET /statsz/history
	// replays them. The capture is crash-tolerant — a kill -9 loses at
	// most the partial tail record.
	FTDCDir string
	// FTDCInterval is the telemetry sampling period. Default 1s.
	FTDCInterval time.Duration
	// FTDCSegmentSamples and FTDCMaxSegments bound the on-disk ring
	// (samples per segment file, segment files kept). Defaults from
	// internal/ftdc (512 and 8 — with a 1s interval, about 68 minutes
	// of history).
	FTDCSegmentSamples int
	FTDCMaxSegments    int
	// QuotaRPS enables per-tenant admission quotas when positive:
	// each tenant (X-Tenant header, "default" unset) gets a token
	// bucket refilling at this rate. A minimize request charges one
	// token per item; a job submission charges one. Exhaustion is a
	// fast 429 + Retry-After. Off (0) by default.
	QuotaRPS float64
	// QuotaBurst is the bucket depth. Default ceil(QuotaRPS), min 1.
	QuotaBurst int
}

// Request is one minimization job. Exactly one function source must be
// set: explicit minterms (N+On, optional Dc), a named built-in
// benchmark (Bench, optional Output), or inline PLA text (PLA, optional
// Output).
type Request struct {
	N  int      `json:"n,omitempty"`
	On []uint64 `json:"on,omitempty"`
	Dc []uint64 `json:"dc,omitempty"`

	Bench  string `json:"bench,omitempty"`
	PLA    string `json:"pla,omitempty"`
	Output int    `json:"output,omitempty"`

	// Form selects the output representation: "spp" (default), "sop",
	// "esop", "dsop", or "auto" to race every eligible backend and
	// return the cheapest form by literal count. docs/forms.md is the
	// normative contract.
	Form string `json:"form,omitempty"`
	// AcceptLiterals, with form=auto only, switches the race to
	// first-acceptable mode: the first backend at or under this literal
	// count wins immediately and the rest are cancelled. 0 (default)
	// keeps the deterministic best-cost race.
	AcceptLiterals int `json:"accept_literals,omitempty"`

	// Algorithm selects the SPP engine (form "spp" only): "exact"
	// (default), "naive", or "sppk" (the SPP_k heuristic, degree K).
	Algorithm string `json:"algorithm,omitempty"`
	K         int    `json:"k,omitempty"`

	ExactCover bool `json:"exact_cover,omitempty"`
	FactorCost bool `json:"factor_cost,omitempty"`

	// Base, when set, makes this a delta request: the function is the
	// base entry's function (identified by a base_key from an earlier
	// response) edited by Add/Remove/DcAdd/DcRemove, minimized by
	// patching the retained warm state. No other function source may be
	// set. Requires Config.WarmCache; an unknown or evicted base yields
	// 409 with code "cold_run_required".
	Base     string   `json:"base,omitempty"`
	Add      []uint64 `json:"add,omitempty"`
	Remove   []uint64 `json:"remove,omitempty"`
	DcAdd    []uint64 `json:"dc_add,omitempty"`
	DcRemove []uint64 `json:"dc_remove,omitempty"`

	// TimeoutMS bounds this request's wall clock, queue wait included;
	// 0 means the server default. Capped at Config.MaxTimeout. Batch
	// items are additionally bounded by the batch deadline (the max of
	// the items' timeouts).
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// NoCache bypasses the result cache and the coalescing group — the
	// result is always freshly computed, never served from (or as) a
	// shared in-flight result. It still populates the cache.
	NoCache bool `json:"no_cache,omitempty"`
	// Stats embeds this run's spp-stats/v1 report in the response
	// (cold computes only; cached and coalesced responses ran nothing).
	Stats bool `json:"stats,omitempty"`
}

// envelope is the /v1/minimize body: either a bare Request or a batch.
type envelope struct {
	Request
	Requests []Request `json:"requests,omitempty"`
}

// outcome classifies how one request was resolved, for the coherent
// counter update in record. The zero value is outcomeError so every
// failure path defaults safely.
type outcome uint8

const (
	outcomeError     outcome = iota // failed (bad request, budget, expiry, ...)
	outcomeHit                      // served from the result cache
	outcomeComputed                 // ran the engines (leader or NoCache)
	outcomeCoalesced                // served from a concurrent leader's flight
	outcomeDetached                 // waiter expired before the leader finished
)

// Response is the result of one Request.
type Response struct {
	Form     string `json:"form,omitempty"`
	Literals int    `json:"literals"`
	NumTerms int    `json:"num_terms"`
	// FormKind names the backend that produced the form ("spp", "sop",
	// "esop", "dsop") — with form=auto, the race winner.
	FormKind     string `json:"form_kind,omitempty"`
	EPPP         int    `json:"eppp,omitempty"`
	CoverOptimal bool   `json:"cover_optimal"`
	Cached       bool   `json:"cached"`
	// Coalesced marks a response served by waiting on a concurrent
	// identical request's computation rather than by cache lookup or a
	// fresh run (such responses also report Cached, since they were
	// served without computing).
	Coalesced bool   `json:"coalesced,omitempty"`
	Key       string `json:"key,omitempty"`
	// BaseKey is the token delta requests chain on: the warm-state
	// cache key of this response's exact function. Present when the
	// server retains warm state for it; it may be evicted later, in
	// which case a delta against it returns 409 "cold_run_required".
	BaseKey string `json:"base_key,omitempty"`
	// Delta reports how a delta request was satisfied: "warm" (patched
	// resume), "cold" (fallback full run), or "trivial" (edit emptied
	// the ON-set; no engine ran).
	Delta     string        `json:"delta,omitempty"`
	ElapsedNS int64         `json:"elapsed_ns"`
	Stats     *stats.Report `json:"stats,omitempty"`
	Error     string        `json:"error,omitempty"`
	// Code is a machine-readable error discriminator
	// ("cold_run_required" on 409, "shed" and "quota_exhausted" on
	// 429).
	Code string `json:"code,omitempty"`
	// RetryAfterMS accompanies 429 responses (shed or over-quota): how
	// long the admission layer predicts the client should back off.
	// Also sent as a Retry-After header (in whole seconds) on single
	// responses; batch items carry it here only.
	RetryAfterMS int64 `json:"retry_after_ms,omitempty"`

	status  int     // HTTP status for single-request responses
	outcome outcome // counter classification, see record
}

// batchResponse wraps the per-item results of a batch request. Errors
// that fail the batch as a whole (oversized/empty batch) are reported
// in the top-level Error with an empty Results, so batch clients always
// get the {"results": ...} shape back; per-item failures (deadlines
// included) are reported on the items themselves. (Errors raised before
// the body is parsed — draining, malformed JSON, oversized body —
// cannot know the request shape and use the single-response envelope,
// whose top-level "error" field matches this one.)
type batchResponse struct {
	Results []Response `json:"results"`
	Error   string     `json:"error,omitempty"`
}

// Statsz is the /statsz payload: service counters plus the recent-run
// report ring (docs/stats-schema.md documents the run schema). The
// request counters are written under one lock in a single critical
// section per request and snapshotted under the same lock, so every
// snapshot — even mid-traffic — satisfies
//
//	Served == CacheHits + CacheMisses + CoalesceWaiters
//
// exactly, with CoalesceDetached <= Errors.
type Statsz struct {
	Served int64 `json:"served"`
	// CacheHits counts requests served from the result cache;
	// CacheMisses counts requests that ran the engines (flight leaders
	// and no_cache requests).
	CacheHits   int64 `json:"cache_hits"`
	CacheMisses int64 `json:"cache_misses"`
	Errors      int64 `json:"errors"`
	// CoalesceWaiters counts requests served by joining a concurrent
	// identical request's in-flight computation; CoalesceDetached
	// counts waiters whose own deadline expired first (also included
	// in Errors).
	CoalesceWaiters  int64 `json:"coalesce_waiters"`
	CoalesceDetached int64 `json:"coalesce_detached"`
	// Delta-path counters: warm resumes computed, cold fallbacks (churn
	// over -delta-max-dirty), base-key misses (409), and edits that
	// emptied the ON-set (served trivially, no engine).
	DeltaWarm     int64 `json:"delta_warm"`
	DeltaCold     int64 `json:"delta_cold_fallback"`
	DeltaBaseMiss int64 `json:"delta_base_miss"`
	DeltaTrivial  int64 `json:"delta_trivial"`
	// Cover-phase split of the warm resumes: DeltaCoverReused counts
	// resumes whose covering solution was served entirely by replaying
	// the snapshot's pick trace; DeltaCoverResolved counts resumes that
	// had to re-enter greedy/B&B selection for part of the cover.
	// Reused + Resolved == DeltaWarm for greedy-cover workloads.
	DeltaCoverReused   int64 `json:"delta_cover_reused"`
	DeltaCoverResolved int64 `json:"delta_cover_resolved"`
	// Portfolio-engine counters: EngineRaces counts form=auto requests
	// that actually raced backends (all-cached auto requests are plain
	// cache hits); EngineWinsByForm tallies which backend won each race
	// (sums to EngineRaces); EngineCancelled counts backends cut off by
	// a first-acceptable (accept_literals) early win.
	EngineRaces      int64            `json:"engine_races"`
	EngineWinsByForm map[string]int64 `json:"engine_wins_by_form,omitempty"`
	EngineCancelled  int64            `json:"engine_cancelled"`
	// CanonInexact counts requests whose canonicalization tie-break ran
	// past its work budget, so their key is not permutation-invariant:
	// each permuted variant of such a function is a first sight of its
	// own.
	CanonInexact int64 `json:"canon_inexact"`
	// Cache-internal counters, aggregated over the LRU shards. These
	// count raw cache operations (a request may probe more than once on
	// collision or retry), unlike the request-level counters above.
	CacheEvictions int64 `json:"cache_evictions"`
	// CacheBytes is the resident payload weight of the result cache
	// (forms, canonical functions and retained warm states);
	// CacheRejected counts entries too large for a shard's byte budget
	// to ever admit.
	CacheBytes    int64 `json:"cache_bytes"`
	CacheRejected int64 `json:"cache_rejected"`
	CacheShards   int   `json:"cache_shards"`
	CacheLen      int   `json:"cache_len"`
	InFlight      int   `json:"in_flight"`
	Draining      bool  `json:"draining"`
	// Job-tier counters (all zero when the tier is disabled).
	// JobsQueued/JobsRunning are current occupancy; JobsDone, JobsFailed
	// and JobsRetried are cumulative including journal-replayed history.
	// JobsReplayed counts completed jobs whose journaled results
	// re-warmed fcache at the last StartJobs; JobsRequeued counts the
	// incomplete jobs it re-enqueued. JobsByPriority counts accepted
	// jobs per priority class.
	JobsQueued     int64            `json:"jobs_queued"`
	JobsRunning    int64            `json:"jobs_running"`
	JobsDone       int64            `json:"jobs_done"`
	JobsFailed     int64            `json:"jobs_failed"`
	JobsRetried    int64            `json:"jobs_retried"`
	JobsReplayed   int64            `json:"jobs_replayed"`
	JobsRequeued   int64            `json:"jobs_requeued"`
	JobsByPriority map[string]int64 `json:"jobs_by_priority,omitempty"`
	// JobsCompactions counts online journal compactions (the startup
	// one included); JobsQueuedByPriority is the current backlog per
	// priority class — the admission layer's per-class pressure signal.
	JobsCompactions      int64          `json:"jobs_compactions"`
	JobsQueuedByPriority map[string]int `json:"jobs_queued_by_priority,omitempty"`
	// Admission-layer counters (docs/stats-schema.md): AdmissionAdmitted
	// counts engine runs that took a gate slot, split by priority class
	// in AdmissionByPriority; ShedDeadline counts requests rejected
	// because the predicted queue wait exceeded their deadline budget;
	// QuotaRejected counts per-tenant token-bucket rejections (both shed
	// families answer 429 + Retry-After and are included in Errors only
	// when a request was actually processed — quota rejections happen
	// before processing and count in neither Served nor Errors).
	// QueueWaitP99MS is the live shedding signal: the 99th-percentile
	// admission queue wait over the recent window, 0 when nothing has
	// queued lately.
	AdmissionAdmitted   int64            `json:"admission_admitted"`
	AdmissionByPriority map[string]int64 `json:"admission_by_priority,omitempty"`
	ShedDeadline        int64            `json:"shed_deadline"`
	QuotaRejected       int64            `json:"quota_rejected"`
	QueueWaitP99MS      int64            `json:"queue_wait_p99_ms"`
	Runs                *stats.RunReport `json:"runs"`
}

// cacheEntry is one result-cache value, living in one of three
// disjoint key spaces of the same LRU:
//
//   - canonical entries (key = canonical key ⊕ backend salt): canon is
//     kept for an Equal check on hit, so even a SHA-256 collision
//     cannot serve a wrong form; every warm field is nil/zero.
//   - warm state entries (key = fcache.WarmStateKey of the canonical
//     function): warm is the resumable engine state, form/eppp/
//     coverOptimal the canonical-space result it produced. One heavy
//     snapshot per canonical class — every permuted-equivalent client
//     shares it, so a fleet of equivalent functions charges
//     -cache-bytes once.
//   - warm pointer entries (key = fcache.WarmPointerKey of the exact
//     request-space function — the base_key clients chain deltas on):
//     fn is the submitter's request-space function, perm its map into
//     the canonical space the form and warm state live in, and warmRef
//     the state entry's key (hasWarmRef set). warm itself is nil —
//     pointers are thin.
//
// Pointer entries are keyed by the exact function — not the canonical
// class — because delta edits arrive in the client's variable order and
// permuted-equivalent clients must not chain on each other's keys; the
// per-client permutation lives in the pointer and is applied at the
// edges, while the snapshot behind it is shared.
type cacheEntry struct {
	canon *bfunc.Func
	form  engine.Form
	// kind is the backend tag the form came from ("spp", "sop", ...).
	kind         string
	eppp         int
	coverOptimal bool

	fn         *bfunc.Func
	perm       []int
	warm       *core.WarmState
	tag        string
	warmRef    fcache.Key
	hasWarmRef bool
}

// entryWeight estimates an entry's resident footprint for the
// size-aware cache: point sets, form terms, and the warm state's own
// accounting.
func entryWeight(e cacheEntry) int64 {
	w := int64(256)
	if e.canon != nil {
		w += int64(len(e.canon.On())+len(e.canon.DC())) * 8
	}
	if e.fn != nil {
		w += int64(len(e.fn.On())+len(e.fn.DC())) * 8
	}
	w += int64(len(e.perm)) * 8
	if e.form != nil {
		w += e.form.Bytes()
	}
	if e.warm != nil {
		w += e.warm.Bytes()
	}
	return w
}

// counters is the coherent request-counter block: every field is
// written under Server.statsMu in a single critical section per
// request, so any locked snapshot is internally consistent.
type counters struct {
	served, errors    int64
	hits, misses      int64
	waiters, detached int64

	deltaWarm, deltaCold                int64
	deltaBaseMiss, deltaTrivial         int64
	deltaCoverReused, deltaCoverResolve int64

	engineRaces, engineCancelled int64
	winsByForm                   map[string]int64

	canonInexact int64

	admitted           int64
	admittedByPriority map[string]int64
	shedDeadline       int64
	shedQuota          int64
}

// Server is the minimization service. Create with New; expose with
// Handler.
type Server struct {
	cfg      Config
	registry *engine.Registry
	cache    *fcache.Cache[cacheEntry]
	flights  fcache.Group[cacheEntry]
	slots    chan struct{}

	statsMu sync.Mutex
	ctr     counters

	// Admission layer: recent queue-wait observations feed the shed
	// predictor; quotas is nil unless Config.QuotaRPS is set.
	waits  *waitRing
	quotas *quotas

	// Telemetry capture (nil until StartTelemetry).
	ftdcMu   sync.Mutex
	ftdcW    *ftdc.Writer
	ftdcStop chan struct{}
	ftdcWG   sync.WaitGroup

	draining atomic.Bool

	// Job tier (nil until StartJobs). jobMu guards the handle; the
	// queue itself is internally synchronized.
	jobMu        sync.Mutex
	jobq         *jobs.Queue
	jobStopLease context.CancelFunc
	jobStopHard  context.CancelFunc
	jobWG        sync.WaitGroup
	jobsReplayed atomic.Int64
	jobsRequeued atomic.Int64

	mu      sync.Mutex
	history []*stats.Report // ring, oldest first
	runSeq  int64

	// testHookAfterAcquire, when set, runs after a compute takes its
	// admission slot and before minimization — tests use it to hold
	// slots open deterministically.
	testHookAfterAcquire func(ctx context.Context)
}

// New builds a server, applying defaults for zero config fields.
func New(cfg Config) *Server {
	if cfg.MaxConcurrent <= 0 {
		cfg.MaxConcurrent = 2
	}
	if cfg.CacheSize <= 0 {
		cfg.CacheSize = 256
	}
	if cfg.BatchWorkers <= 0 {
		cfg.BatchWorkers = 4
	}
	if cfg.DefaultTimeout <= 0 {
		cfg.DefaultTimeout = 30 * time.Second
	}
	if cfg.MaxTimeout <= 0 {
		cfg.MaxTimeout = 2 * time.Minute
	}
	if cfg.HistorySize <= 0 {
		cfg.HistorySize = 32
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 8 << 20
	}
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = 64
	}
	if cfg.CacheBytes <= 0 {
		cfg.CacheBytes = 256 << 20
	}
	if cfg.DeltaMaxDirty <= 0 {
		cfg.DeltaMaxDirty = 0.25
	}
	if cfg.JobWorkers <= 0 {
		cfg.JobWorkers = 2
	}
	if cfg.JobRetries <= 0 {
		cfg.JobRetries = 2
	}
	if cfg.JobLeaseTTL <= 0 {
		cfg.JobLeaseTTL = 30 * time.Second
	}
	if cfg.JobTimeout <= 0 {
		cfg.JobTimeout = 10 * time.Minute
	}
	switch {
	case cfg.JobResultTTL == 0:
		cfg.JobResultTTL = 15 * time.Minute
	case cfg.JobResultTTL < 0:
		cfg.JobResultTTL = 0
	}
	if cfg.FTDCInterval <= 0 {
		cfg.FTDCInterval = time.Second
	}
	if cfg.Core.PerOutput == 0 && cfg.Core.MaxCandidates == 0 {
		cfg.Core = harness.DefaultConfig()
	}
	registry, err := engine.NewRegistry(cfg.Forms...)
	if err != nil {
		panic("service: " + err.Error())
	}
	s := &Server{
		cfg:      cfg,
		registry: registry,
		cache:    fcache.NewWeighted(cfg.CacheSize, cfg.CacheBytes, cfg.CacheShards, entryWeight),
		slots:    make(chan struct{}, cfg.MaxConcurrent),
		waits:    newWaitRing(512, 30*time.Second),
	}
	if cfg.QuotaRPS > 0 {
		s.quotas = newQuotas(cfg.QuotaRPS, cfg.QuotaBurst)
	}
	return s
}

// Handler returns the HTTP routes.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/minimize", s.handleMinimize)
	mux.HandleFunc("/v1/jobs", s.handleJobSubmit)
	mux.HandleFunc("/v1/jobs/", s.handleJobGet)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/statsz", s.handleStatsz)
	mux.HandleFunc("/statsz/history", s.handleStatszHistory)
	return mux
}

// SetDraining flips the draining flag: while set, new minimize
// requests are refused with 503 so http.Server.Shutdown can drain the
// in-flight ones. Reported by /healthz and /statsz.
func (s *Server) SetDraining(d bool) { s.draining.Store(d) }

// FinalReport snapshots the run history for the shutdown flush.
func (s *Server) FinalReport() *stats.RunReport {
	s.mu.Lock()
	defer s.mu.Unlock()
	return stats.NewRunReport(s.history...)
}

// record folds one request outcome into the coherent counter block.
// Exactly one call per processed request keeps the Statsz invariant
// (served == hits + misses + waiters) true under any interleaving.
func (s *Server) record(o outcome) {
	s.statsMu.Lock()
	switch o {
	case outcomeHit:
		s.ctr.served++
		s.ctr.hits++
	case outcomeComputed:
		s.ctr.served++
		s.ctr.misses++
	case outcomeCoalesced:
		s.ctr.served++
		s.ctr.waiters++
	case outcomeDetached:
		s.ctr.errors++
		s.ctr.detached++
	default:
		s.ctr.errors++
	}
	s.statsMu.Unlock()
}

// bump increments one informational counter (the delta-path and
// canonicalization counters) under the same lock as the coherent
// block; these counters are not part of the served invariant.
func (s *Server) bump(field *int64) {
	s.statsMu.Lock()
	*field++
	s.statsMu.Unlock()
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"status":   "ok",
		"draining": s.draining.Load(),
	})
}

func (s *Server) handleStatsz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	s.mu.Lock()
	runs := stats.NewRunReport(s.history...)
	s.mu.Unlock()
	cst := s.cache.Stats()
	s.statsMu.Lock()
	ctr := s.ctr // one coherent snapshot of all request counters
	var wins map[string]int64
	if len(ctr.winsByForm) > 0 {
		wins = make(map[string]int64, len(ctr.winsByForm))
		for k, v := range ctr.winsByForm {
			wins[k] = v
		}
	}
	var admittedBy map[string]int64
	if len(ctr.admittedByPriority) > 0 {
		admittedBy = make(map[string]int64, len(ctr.admittedByPriority))
		for k, v := range ctr.admittedByPriority {
			admittedBy[k] = v
		}
	}
	s.statsMu.Unlock()
	var jst jobs.Stats
	s.jobMu.Lock()
	if s.jobq != nil {
		jst = s.jobq.Stats()
	}
	s.jobMu.Unlock()
	writeJSON(w, http.StatusOK, Statsz{
		Served:               ctr.served,
		CacheHits:            ctr.hits,
		CacheMisses:          ctr.misses,
		Errors:               ctr.errors,
		CoalesceWaiters:      ctr.waiters,
		CoalesceDetached:     ctr.detached,
		DeltaWarm:            ctr.deltaWarm,
		DeltaCold:            ctr.deltaCold,
		DeltaBaseMiss:        ctr.deltaBaseMiss,
		DeltaTrivial:         ctr.deltaTrivial,
		DeltaCoverReused:     ctr.deltaCoverReused,
		DeltaCoverResolved:   ctr.deltaCoverResolve,
		EngineRaces:          ctr.engineRaces,
		EngineWinsByForm:     wins,
		EngineCancelled:      ctr.engineCancelled,
		CanonInexact:         ctr.canonInexact,
		CacheEvictions:       int64(cst.Evictions),
		CacheBytes:           cst.Bytes,
		CacheRejected:        int64(cst.Rejected),
		CacheShards:          cst.Shards,
		CacheLen:             s.cache.Len(),
		InFlight:             len(s.slots),
		Draining:             s.draining.Load(),
		JobsQueued:           int64(jst.Queued),
		JobsRunning:          int64(jst.Running),
		JobsDone:             jst.Done,
		JobsFailed:           jst.Failed,
		JobsRetried:          jst.Retried,
		JobsReplayed:         s.jobsReplayed.Load(),
		JobsRequeued:         s.jobsRequeued.Load(),
		JobsByPriority:       jst.ByPriority,
		JobsCompactions:      jst.Compactions,
		JobsQueuedByPriority: jst.QueuedByPriority,
		AdmissionAdmitted:    ctr.admitted,
		AdmissionByPriority:  admittedBy,
		ShedDeadline:         ctr.shedDeadline,
		QuotaRejected:        ctr.shedQuota,
		QueueWaitP99MS:       s.waits.p99(time.Now()).Milliseconds(),
		Runs:                 runs,
	})
}

func (s *Server) handleMinimize(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	if s.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, Response{Error: "server draining"})
		return
	}
	// The priority class rides a header, not the body, so admission can
	// read it before any decoding. Sync requests default to interactive.
	prio := jobs.PriorityInteractive
	if p := r.Header.Get("X-Priority"); p != "" {
		var err error
		if prio, err = jobs.NormalizePriority(p); err != nil {
			writeJSON(w, http.StatusBadRequest, Response{Error: err.Error()})
			return
		}
	}
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	env, err := decodeEnvelope(r.Body)
	if err != nil {
		status := http.StatusBadRequest
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			status = http.StatusRequestEntityTooLarge
		}
		writeJSON(w, status, Response{Error: "bad request: " + err.Error()})
		return
	}
	batch := env.Requests != nil
	reqs := env.Requests
	if !batch {
		reqs = []Request{env.Request}
	}
	// Whole-batch failures from here on keep the batch response shape.
	batchFail := func(status int, msg string) {
		if batch {
			writeJSON(w, status, batchResponse{Results: []Response{}, Error: msg})
		} else {
			writeJSON(w, status, Response{Error: msg})
		}
	}
	if len(reqs) == 0 {
		batchFail(http.StatusBadRequest, "empty batch")
		return
	}
	if len(reqs) > s.cfg.MaxBatch {
		batchFail(http.StatusRequestEntityTooLarge,
			fmt.Sprintf("batch of %d exceeds limit %d", len(reqs), s.cfg.MaxBatch))
		return
	}
	// Per-tenant quota: one token per item, charged before any compute.
	// Rejections happen before processing, so they touch neither the
	// Served/Errors invariant nor the cache — just the quota counter.
	if s.quotas != nil {
		tenant := tenantFrom(r)
		if wait, ok := s.quotas.take(tenant, len(reqs), time.Now()); !ok {
			s.statsMu.Lock()
			s.ctr.shedQuota++
			s.statsMu.Unlock()
			ms := max(wait.Milliseconds(), 1)
			w.Header().Set("Retry-After", retryAfterSeconds(ms))
			msg := fmt.Sprintf("tenant %q over quota (%.3g req/s)", tenant, s.quotas.rps)
			if batch {
				writeJSON(w, http.StatusTooManyRequests, batchResponse{Results: []Response{}, Error: msg})
			} else {
				writeJSON(w, http.StatusTooManyRequests,
					Response{Error: msg, Code: "quota_exhausted", RetryAfterMS: ms})
			}
			return
		}
	}

	// The batch deadline is the max of its items' timeouts; each item
	// additionally runs under its own (shorter or equal) deadline. Both
	// cover queue wait.
	var timeout time.Duration
	for _, q := range reqs {
		timeout = max(timeout, s.timeout(q))
	}
	ctx, cancel := context.WithTimeout(withPriority(r.Context(), prio), timeout)
	defer cancel()

	results := make([]Response, len(reqs))
	workers := min(s.cfg.BatchWorkers, len(reqs))
	runItem := func(i int) {
		itemCtx, itemCancel := context.WithTimeout(ctx, s.timeout(reqs[i]))
		results[i] = s.process(itemCtx, reqs[i])
		itemCancel()
		s.record(results[i].outcome)
	}
	if workers <= 1 {
		for i := range reqs {
			runItem(i)
		}
	} else {
		// Bounded per-batch pool; results land at their item index, so
		// ordering stays deterministic no matter who finishes first.
		// Intra-batch duplicates coalesce via the flight group instead
		// of relying on serial ordering.
		idx := make(chan int)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range idx {
					runItem(i)
				}
			}()
		}
		for i := range reqs {
			idx <- i
		}
		close(idx)
		wg.Wait()
	}

	if batch {
		writeJSON(w, http.StatusOK, batchResponse{Results: results})
		return
	}
	res := results[0]
	status := res.status
	if status == 0 {
		status = http.StatusOK
	}
	if res.RetryAfterMS > 0 {
		w.Header().Set("Retry-After", retryAfterSeconds(res.RetryAfterMS))
	}
	writeJSON(w, status, res)
}

// decodeEnvelope decodes a /v1/minimize body, rejecting unknown fields.
func decodeEnvelope(body io.Reader) (envelope, error) {
	var env envelope
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	err := dec.Decode(&env)
	return env, err
}

func (s *Server) timeout(q Request) time.Duration {
	d := s.cfg.DefaultTimeout
	if q.TimeoutMS > 0 {
		d = time.Duration(q.TimeoutMS) * time.Millisecond
	}
	return min(d, s.cfg.MaxTimeout)
}

// process runs one request through the serving pipeline: validate,
// canonicalize, key the result by the canonical key and the backend's
// salt, resolve it (cache → coalesce → compute), and build the
// response. Delta requests key by their edited function instead (see
// processDelta). Every response is stamped with the request's elapsed
// time.
func (s *Server) process(ctx context.Context, q Request) (resp Response) {
	start := time.Now()
	defer func() { resp.ElapsedNS = time.Since(start).Nanoseconds() }()
	if q.Base != "" {
		return s.processDelta(ctx, q)
	}
	f, err := resolveFunction(q)
	if err != nil {
		return badRequest(err)
	}
	if q, err = s.normalizeForm(q, f.N()); err != nil {
		return badRequest(err)
	}
	// Canonicalization honors the request deadline. It runs before
	// (and outside) the admission slot, so cache hits complete without
	// queueing at all. Its refinement sorts every point's signature once
	// per round, up to n rounds, and the deadline is what stops it.
	// fcache's work budget bounds only the tie-break, which scores its
	// leaves on truth tables when the function is dense and on sorted
	// point lists otherwise; a tie-break cut off by the budget is
	// counted, since its key is not permutation-invariant.
	canonKey, perm, canon, exact, err := fcache.CanonicalizeExact(ctx, f)
	if err != nil {
		return failure(ctx, err, outcomeError)
	}
	if !exact {
		s.bump(&s.ctr.canonInexact)
	}
	if q.Form == "auto" {
		return s.processAuto(ctx, q, canon, canonKey, perm)
	}
	return s.processForm(ctx, q, f, canon, canonKey, perm)
}

// flight is one request's cacheable computation, as resolve sees it.
type flight struct {
	// key is the cache and coalescing key; valid pins a cached or
	// broadcast entry to the request's own function, so a key collision
	// never serves a wrong form.
	key   fcache.Key
	valid func(cacheEntry) bool
	// mint, when set, serves a cache miss from state already resident
	// under another key, before any flight starts; it counts as a hit.
	mint func() (cacheEntry, bool)
	// compute runs the engines under its own admission slot and
	// populates the cache. waiters, non-nil only for a flight leader,
	// reports how many coalesced requests ride on the run.
	compute func(waiters func() int64) (cacheEntry, *stats.Report, error)
}

// resolve is the serving path's one cache → coalesce → compute state
// machine (ARCHITECTURE.md "Hot-path state machine"). A validated
// cache entry is a hit, served without a slot. On a miss the request
// leads or joins the key's flight: the leader computes under its own
// deadline while identical concurrent requests wait slot-free for its
// broadcast, each detaching on its own expiry. no_cache requests skip
// both the cache read and the flight — they are never served a shared
// result — but their computes still populate the cache.
//
// On success the outcome is outcomeHit, outcomeComputed (with the
// run's report) or outcomeCoalesced; on failure it is outcomeError or
// outcomeDetached.
func (s *Server) resolve(ctx context.Context, fl flight, noCache bool) (cacheEntry, *stats.Report, outcome, error) {
	if noCache {
		return computed(fl.compute(nil))
	}
	if e, ok := s.cache.GetIf(fl.key, fl.valid); ok {
		return e, nil, outcomeHit, nil
	}
	if fl.mint != nil {
		if e, ok := fl.mint(); ok {
			return e, nil, outcomeHit, nil
		}
	}
	var rep *stats.Report
	e, oc, err := s.flights.Do(ctx, fl.key, func(waiters func() int64) (cacheEntry, error) {
		e, r, err := fl.compute(waiters)
		rep = r
		return e, err
	})
	switch {
	case oc == fcache.Detached:
		return cacheEntry{}, nil, outcomeDetached, fmt.Errorf("coalesced wait: %w", err)
	case oc == fcache.Joined && fl.valid(e):
		return e, nil, outcomeCoalesced, nil
	case oc == fcache.Joined:
		// Key collision against a concurrent leader's different
		// function: compute this one directly. (The stored-entry
		// collision case is handled by GetIf, which evicts.)
		return computed(fl.compute(nil))
	}
	return computed(e, rep, err)
}

// computed classifies a compute's result for resolve.
func computed(e cacheEntry, rep *stats.Report, err error) (cacheEntry, *stats.Report, outcome, error) {
	if err != nil {
		return cacheEntry{}, nil, outcomeError, err
	}
	return e, rep, outcomeComputed, nil
}

// render builds the response for a resolved entry: the form mapped
// through inv into the client's variable order, the cache flags of the
// outcome, and — when the request asked for stats — the report of the
// run that computed it (cached and coalesced responses ran nothing).
// Callers add the key fields of their path.
func render(q Request, e cacheEntry, inv []int, oc outcome, rep *stats.Report) Response {
	form := e.form.Permute(inv)
	resp := Response{
		Form:         form.String(),
		Literals:     form.Literals(),
		NumTerms:     form.NumTerms(),
		FormKind:     e.kind,
		EPPP:         e.eppp,
		CoverOptimal: e.coverOptimal,
		Cached:       oc != outcomeComputed,
		Coalesced:    oc == outcomeCoalesced,
		outcome:      oc,
	}
	if q.Stats && oc == outcomeComputed {
		resp.Stats = rep
	}
	return resp
}

// failure maps an in-flight failure to its response. The request's own
// expiry wins over whatever error it surfaced as: an engine abort that
// races the deadline must report 504 (or the 499-style client cancel),
// never a blanket 500 — and never shadow a real 4xx (bad request,
// budget) with the expiry status.
func failure(ctx context.Context, err error, oc outcome) Response {
	status := statusFor(err)
	if status == http.StatusInternalServerError {
		if ce := ctx.Err(); ce != nil {
			status = statusFor(ce)
		}
	}
	return applyShed(Response{Error: err.Error(), status: status, outcome: oc}, err)
}

// badRequest is the 400 response to a request that fails validation.
func badRequest(err error) Response {
	return Response{Error: err.Error(), status: http.StatusBadRequest}
}

// run is one engine run: fn executes under an admission slot with a
// fresh recorder, and the run's report is filed into the /statsz
// history under label. waiters, when non-nil, reports how many
// coalesced requests rode on the run (recorded as the
// serve.flight_waiters sched counter).
func (s *Server) run(ctx context.Context, label string, waiters func() int64, fn func(rec *stats.Recorder) error) (*stats.Report, error) {
	release, err := s.acquireSlot(ctx)
	if err != nil {
		return nil, err
	}
	defer release()
	rec := stats.New()
	if err := fn(rec); err != nil {
		return nil, err
	}
	// A deadline that expires inside the covering search yields a valid
	// but truncated form (cover.Exact degrades to its incumbent). Serve
	// nothing rather than cache a deadline-shaped result.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return s.recordRun(rec, label, waiters), nil
}

// computeWarm is exact SPP with warm retention, the one SPP-specific
// run: the warm engine (core.MinimizeExactWarm — the spp backend's
// cost, in canonical candidate order with a serial EPPP build, so full
// and delta results are mutually byte-identical). It caches the result
// under key like any backend run, the resumable state once per
// canonical class under its warm state key, and a thin pointer for
// this client under warmKey, the base_key its deltas chain on.
func (s *Server) computeWarm(ctx context.Context, key, warmKey fcache.Key, f, canon *bfunc.Func, perm []int, tag string, opts engine.Options, waiters func() int64) (cacheEntry, *stats.Report, error) {
	var res *core.Result
	var ws *core.WarmState
	rep, err := s.run(ctx, "exact", waiters, func(rec *stats.Recorder) (err error) {
		opts.Core.Stats = rec
		res, ws, err = core.MinimizeExactWarm(canon, opts.Core)
		return err
	})
	if err != nil {
		return cacheEntry{}, nil, err
	}
	e := cacheEntry{
		canon:        canon,
		form:         engine.SPPForm{F: res.Form},
		kind:         "spp",
		eppp:         res.Build.EPPP,
		coverOptimal: res.CoverOptimal,
	}
	s.cache.Put(key, e)
	skey := fcache.WarmStateKey(fcache.KeyOf(canon), tag)
	s.cache.Put(skey, warmStateEntry(e, ws, tag))
	s.cache.Put(warmKey, warmPointer(e, f, perm, tag, skey))
	return e, rep, nil
}

// keepsBaseKey reports whether a served exact SPP answer of f may
// advertise warmKey as its base_key: the client's own pointer is
// resident, or is minted on the spot from the shared canonical warm
// state of its class. Permuted-equivalent clients thus chain deltas
// without ever computing cold themselves.
func (s *Server) keepsBaseKey(e cacheEntry, warmKey fcache.Key, f, canon *bfunc.Func, perm []int, tag string) bool {
	if pe, ok := s.cache.Get(warmKey); ok && pe.hasWarmRef && pe.fn.Equal(f) {
		return true
	}
	skey := fcache.WarmStateKey(fcache.KeyOf(canon), tag)
	se, ok := s.cache.Get(skey)
	if !ok || se.warm == nil || !se.warm.Function().Equal(canon) {
		return false
	}
	s.cache.Put(warmKey, warmPointer(e, f, perm, tag, skey))
	return true
}

// warmStateEntry is the cache entry holding a resumable warm state and
// the canonical-space result it produced.
func warmStateEntry(res cacheEntry, ws *core.WarmState, tag string) cacheEntry {
	return cacheEntry{
		form:         res.form,
		kind:         res.kind,
		eppp:         res.eppp,
		coverOptimal: res.coverOptimal,
		warm:         ws,
		tag:          tag,
	}
}

// warmPointer is the thin pointer entry a client chains deltas on: its
// request-space function fn, perm into the canonical space of the warm
// state at state, and that state's result.
func warmPointer(res cacheEntry, fn *bfunc.Func, perm []int, tag string, state fcache.Key) cacheEntry {
	return cacheEntry{
		form:         res.form,
		kind:         res.kind,
		eppp:         res.eppp,
		coverOptimal: res.coverOptimal,
		fn:           fn,
		perm:         perm,
		tag:          tag,
		warmRef:      state,
		hasWarmRef:   true,
	}
}

// acquireSlot takes one admission-gate slot, honoring the context while
// queued; the returned release must be called when the compute ends.
//
// A free slot admits immediately and records nothing. A full gate first
// runs the shed check — if the predicted queue wait (recent p99) would
// eat the request's deadline budget, it is rejected now with a
// shedError (429 + Retry-After) instead of queueing toward a certain
// 504 — and then queues, feeding the observed wait (timeouts included,
// as a floor) back into the predictor.
func (s *Server) acquireSlot(ctx context.Context) (func(), error) {
	release := func() { <-s.slots }
	acquired := func() (func(), error) {
		if s.testHookAfterAcquire != nil {
			s.testHookAfterAcquire(ctx)
		}
		if err := ctx.Err(); err != nil {
			release()
			return nil, err
		}
		s.statsMu.Lock()
		s.ctr.admitted++
		if s.ctr.admittedByPriority == nil {
			s.ctr.admittedByPriority = make(map[string]int64)
		}
		s.ctr.admittedByPriority[priorityFrom(ctx)]++
		s.statsMu.Unlock()
		return release, nil
	}
	select {
	case s.slots <- struct{}{}:
		return acquired()
	default:
	}
	if err := s.shedCheck(ctx); err != nil {
		return nil, err
	}
	start := time.Now()
	select {
	case s.slots <- struct{}{}:
		s.waits.observe(time.Now(), time.Since(start))
	case <-ctx.Done():
		s.waits.observe(time.Now(), time.Since(start))
		return nil, fmt.Errorf("queue wait: %w", ctx.Err())
	}
	return acquired()
}

// recordRun files one engine run's report into the /statsz history
// ring.
func (s *Server) recordRun(rec *stats.Recorder, name string, waiters func() int64) *stats.Report {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.runSeq++
	rep := rec.Report(fmt.Sprintf("serve/%d/%s", s.runSeq, name))
	rep.CoverWorkers = s.cfg.Core.CoverWorkers
	if waiters != nil {
		if w := waiters(); w > 0 {
			if rep.Sched == nil {
				rep.Sched = make(map[string]int64)
			}
			rep.Sched["serve.flight_waiters"] = w
		}
	}
	s.history = append(s.history, rep)
	if len(s.history) > s.cfg.HistorySize {
		s.history = s.history[1:]
	}
	return rep
}

// processDelta serves a delta request: resolve the base warm entry,
// validate and translate the edit into the base's canonical space, and
// either serve trivially (ON-set emptied), fall back to a cold run
// (churn above DeltaMaxDirty, with the fallback re-entering process as
// an explicit-minterm request), or resume the warm state — through the
// same resolve as full requests, keyed by the edited function's own
// warm pointer key so identical concurrent deltas coalesce.
func (s *Server) processDelta(ctx context.Context, q Request) Response {
	coldRequired := func(why string) Response {
		s.bump(&s.ctr.deltaBaseMiss)
		return Response{
			Error:  fmt.Sprintf("delta base unavailable (%s): resubmit the full function", why),
			Code:   "cold_run_required",
			status: http.StatusConflict,
		}
	}

	if q.N != 0 || len(q.On) > 0 || len(q.Dc) > 0 || q.Bench != "" || q.PLA != "" {
		return badRequest(errors.New("delta request must not carry a function source"))
	}
	if q.NoCache {
		return badRequest(errors.New("no_cache is incompatible with delta requests (the base lives in the cache)"))
	}
	if q.Form != "" && q.Form != "spp" {
		// Only the SPP backend retains resumable warm state; other forms
		// must resubmit the full edited function.
		return Response{
			Error:  fmt.Sprintf("delta requests support form \"spp\", not %q: resubmit the full function", q.Form),
			Code:   "delta_unsupported_form",
			status: http.StatusConflict,
		}
	}
	if q.Algorithm != "" && q.Algorithm != "exact" {
		return badRequest(fmt.Errorf("delta requests support algorithm \"exact\", not %q", q.Algorithm))
	}
	if !s.cfg.WarmCache {
		return coldRequired("warm cache disabled")
	}
	bkey, err := fcache.ParseKey(q.Base)
	if err != nil {
		return badRequest(err)
	}
	// Plain Get, not GetIf: a canonical key passed as base must not
	// evict the (perfectly valid) canonical entry it points at. Only
	// spp runs leave warm pointers, so a base implies the spp backend.
	base, ok := s.cache.Get(bkey)
	spp, enabled := s.registry.Get("spp")
	if !ok || !enabled || !base.hasWarmRef || base.fn == nil {
		return coldRequired("unknown or evicted base key")
	}
	// A resume is an exact SPP run under the request's options, salted
	// like the full request that would compute the same result.
	opts := s.engineOptions(ctx, Request{Algorithm: "exact", ExactCover: q.ExactCover, FactorCost: q.FactorCost})
	if tag := spp.Salt(opts); tag != base.tag {
		return badRequest(fmt.Errorf("delta options (%s) differ from the base entry's (%s)", tag, base.tag))
	}
	// The pointer names the shared canonical-space snapshot; both can be
	// evicted independently, and a stale/collided state must never be
	// resumed — the Equal check pins it to this base's canonical
	// function before any edit math trusts it.
	st, ok := s.cache.Get(base.warmRef)
	if !ok || st.warm == nil {
		return coldRequired("warm state evicted")
	}
	canonBase := permuteFunc(base.fn, base.perm)
	if !st.warm.Function().Equal(canonBase) {
		return coldRequired("warm state does not match the base function")
	}
	warm := st.warm

	n := base.fn.N()
	limit := uint64(1) << uint(n)
	mapPts := func(pts []uint64) ([]uint64, error) {
		if len(pts) == 0 {
			return nil, nil
		}
		out := make([]uint64, len(pts))
		for i, p := range pts {
			if p >= limit {
				return nil, fmt.Errorf("delta point %d outside B^%d", p, n)
			}
			out[i] = bitvec.PermutePoint(p, n, base.perm)
		}
		return out, nil
	}
	var cd core.Delta
	var mapErr error
	if cd.AddOn, mapErr = mapPts(q.Add); mapErr == nil {
		if cd.RemoveOn, mapErr = mapPts(q.Remove); mapErr == nil {
			if cd.AddDC, mapErr = mapPts(q.DcAdd); mapErr == nil {
				cd.RemoveDC, mapErr = mapPts(q.DcRemove)
			}
		}
	}
	if mapErr != nil {
		return badRequest(mapErr)
	}
	editedCanon, err := warm.Apply(cd)
	if err != nil {
		return badRequest(err)
	}

	// An edit that empties the ON-set is the constant-0 function: serve
	// it without entering the engine (and without caching — there is no
	// warm state to retain for it, and nothing to chain a delta on).
	if editedCanon.OnCount() == 0 {
		s.bump(&s.ctr.deltaTrivial)
		return Response{
			Form:         "0",
			FormKind:     "spp",
			CoverOptimal: true,
			Delta:        "trivial",
			outcome:      outcomeComputed,
		}
	}

	// The edited function in the client's (request) variable space: the
	// base entry's perm maps request→canonical, so invert it.
	inv := fcache.InversePerm(base.perm)
	invPts := func(pts []uint64) []uint64 {
		out := make([]uint64, len(pts))
		for i, p := range pts {
			out[i] = bitvec.PermutePoint(p, n, inv)
		}
		return out
	}
	edited := bfunc.NewDC(n, invPts(editedCanon.On()), invPts(editedCanon.DC()))

	churn, err := warm.Churn(cd)
	if err != nil {
		return badRequest(err)
	}
	care := len(base.fn.On()) + len(base.fn.DC())
	if care < 1 {
		care = 1
	}
	if float64(churn)/float64(care) > s.cfg.DeltaMaxDirty {
		// Too dirty to patch profitably: rerun cold on the edited
		// function. Warm entries only exist for functions small enough
		// to respell as explicit minterms, which resolveFunction caps
		// at n ≤ 30.
		if n > 30 {
			return coldRequired("edit too large to patch and function too wide to respell")
		}
		s.bump(&s.ctr.deltaCold)
		resp := s.process(ctx, Request{
			N: n, On: edited.On(), Dc: edited.DC(),
			ExactCover: q.ExactCover, FactorCost: q.FactorCost,
			TimeoutMS: q.TimeoutMS, Stats: q.Stats,
		})
		resp.Delta = "cold"
		return resp
	}

	wkey := fcache.WarmPointerKey(fcache.KeyOf(edited), base.tag)
	e, rep, oc, err := s.resolve(ctx, flight{
		key:   wkey,
		valid: func(e cacheEntry) bool { return e.hasWarmRef && e.fn != nil && e.fn.Equal(edited) },
		// No pointer for this client's edited function, but a
		// permuted-equivalent client (or an equivalent chain) may have
		// left the shared canonical snapshot of the same edit: mint a
		// thin pointer at this client's key and serve without resuming.
		mint: func() (cacheEntry, bool) {
			skey := fcache.WarmStateKey(fcache.KeyOf(editedCanon), base.tag)
			se, ok := s.cache.Get(skey)
			if !ok || se.warm == nil || !se.warm.Function().Equal(editedCanon) {
				return cacheEntry{}, false
			}
			e := warmPointer(se, edited, base.perm, base.tag, skey)
			s.cache.Put(wkey, e)
			return e, true
		},
		compute: func(waiters func() int64) (cacheEntry, *stats.Report, error) {
			return s.computeDelta(ctx, base, warm, cd, edited, editedCanon, wkey, opts, waiters)
		},
	}, false)
	if err != nil {
		return failure(ctx, err, oc)
	}
	resp := render(q, e, fcache.InversePerm(e.perm), oc, rep)
	resp.BaseKey = wkey.String()
	resp.Delta = "warm"
	return resp
}

// computeDelta resumes the base warm state under the translated delta —
// holding an admission slot like any engine run — and stores the
// resumed state at the edited function's canonical warm-state key plus
// a thin pointer entry at wkey for this client to chain on. Each
// successful resume counts once in delta_warm and once in either
// delta_cover_reused or delta_cover_resolved.
func (s *Server) computeDelta(ctx context.Context, base cacheEntry, warm *core.WarmState, cd core.Delta, edited, editedCanon *bfunc.Func, wkey fcache.Key, opts engine.Options, waiters func() int64) (cacheEntry, *stats.Report, error) {
	var res *core.Result
	var nws *core.WarmState
	rep, err := s.run(ctx, "delta", waiters, func(rec *stats.Recorder) (err error) {
		opts.Core.Stats = rec
		res, nws, err = core.ResumeExact(warm, cd, opts.Core)
		return err
	})
	if err != nil {
		return cacheEntry{}, nil, err
	}
	s.statsMu.Lock()
	s.ctr.deltaWarm++
	if res.CoverReused {
		s.ctr.deltaCoverReused++
	} else {
		s.ctr.deltaCoverResolve++
	}
	s.statsMu.Unlock()

	r := cacheEntry{
		form:         engine.SPPForm{F: res.Form},
		kind:         "spp",
		eppp:         res.Build.EPPP,
		coverOptimal: res.CoverOptimal,
	}
	skey := fcache.WarmStateKey(fcache.KeyOf(editedCanon), base.tag)
	s.cache.Put(skey, warmStateEntry(r, nws, base.tag))
	e := warmPointer(r, edited, base.perm, base.tag, skey)
	s.cache.Put(wkey, e)
	return e, rep, nil
}

func resolveFunction(q Request) (*bfunc.Func, error) {
	sources := 0
	if len(q.On) > 0 || q.N > 0 {
		sources++
	}
	if q.Bench != "" {
		sources++
	}
	if q.PLA != "" {
		sources++
	}
	if sources != 1 {
		return nil, errors.New("exactly one of (n,on), bench, pla must be set")
	}
	switch {
	case q.Bench != "":
		m, err := bench.Load(q.Bench)
		if err != nil {
			return nil, err
		}
		return pickOutput(m, q.Output)
	case q.PLA != "":
		m, err := bfunc.ParsePLA(strings.NewReader(q.PLA), "request")
		if err != nil {
			return nil, err
		}
		return pickOutput(m, q.Output)
	default:
		if q.N < 1 || q.N > bitvec.MaxVars {
			return nil, fmt.Errorf("n=%d outside [1, %d]", q.N, bitvec.MaxVars)
		}
		if q.N > 30 {
			return nil, fmt.Errorf("n=%d too large for explicit minterms (max 30)", q.N)
		}
		limit := uint64(1) << uint(q.N)
		for _, p := range append(append([]uint64{}, q.On...), q.Dc...) {
			if p >= limit {
				return nil, fmt.Errorf("point %d outside B^%d", p, q.N)
			}
		}
		if len(q.On) == 0 {
			return nil, errors.New("empty ON-set")
		}
		return bfunc.NewDC(q.N, q.On, q.Dc), nil
	}
}

func pickOutput(m *bfunc.Multi, idx int) (*bfunc.Func, error) {
	if idx < 0 || idx >= m.NOutputs() {
		return nil, fmt.Errorf("output %d outside [0, %d)", idx, m.NOutputs())
	}
	return m.Output(idx), nil
}

// permuteFunc maps a request-space function into canonical space under
// perm (perm[i] is the canonical variable for request variable i).
func permuteFunc(f *bfunc.Func, perm []int) *bfunc.Func {
	n := f.N()
	mapAll := func(pts []uint64) []uint64 {
		out := make([]uint64, len(pts))
		for i, p := range pts {
			out[i] = bitvec.PermutePoint(p, n, perm)
		}
		return out
	}
	return bfunc.NewDC(n, mapAll(f.On()), mapAll(f.DC()))
}

func statusFor(err error) int {
	var se *shedError
	switch {
	case errors.As(err, &se):
		return http.StatusTooManyRequests
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		return 499 // client closed request (nginx convention)
	case errors.Is(err, core.ErrBudget):
		return http.StatusUnprocessableEntity
	default:
		return http.StatusInternalServerError
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}
