// Command sppload is a closed-loop load benchmark for the minimization
// service: it drives an in-process httptest server with concurrent
// clients through the serving path (request coalescing, sharded cache,
// slot-free hits, concurrent batch items).
//
// The default scenario, serve, runs two mixes:
//
//	stampede — every client requests the same cold key at once, for a
//	           series of fresh keys: the pathological thundering herd.
//	           The headline number is duplicate_computes: identical
//	           concurrent requests that each ran the engines. Coalescing
//	           drives it to 0.
//	zipf     — a zipf-distributed repeat-heavy key mix, the steady-state
//	           shape of real traffic. The headline number is
//	           throughput_rps: slot-free cache hits and coalesced
//	           waiters let hot keys be served at client concurrency
//	           instead of admission width.
//
// Their per-run throughput, p50/p99 latency, coalesce rate and
// duplicate-compute counts replace the "current" rows of the report at
// -out (default BENCH_serve.json). The pre-coalescing "baseline" rows
// recorded there are kept as they are, and the speedup summaries
// compare against them. Any non-200 response fails the run.
//
// A second scenario, selected with -scenario edit-loop, benchmarks the
// incremental re-minimization path instead: every client owns a
// distinct base function and random-walks it, changing -edit-k minterms
// per step. Warm mode chains delta requests ({"base": ..., "add": ...,
// "remove": ...}) against a -warm-cache server; cold mode re-submits
// the full edited function each step. Both modes walk identical edit
// scripts, so they minimize the same functions. Results go to
// BENCH_delta.json (spp-bench-delta/v1) with an edit_loop_speedup
// summary.
//
// A third scenario, -scenario jobs, drives the async job tier: each
// closed-loop client owns a priority class, submits jobs through POST
// /v1/jobs and long-polls each to a terminal state, recording
// submit-to-done latency per class. The results merge into the
// existing BENCH_serve.json (a "jobs" section plus jobs_* summary
// keys) rather than replacing the serve results.
//
// A fourth scenario, -scenario form-mix, measures the portfolio engine
// (docs/forms.md): every function is minimized once per explicit form
// (spp, sop, esop, dsop) on one server, then raced with form=auto on a
// fresh server. Per-form win rates (from /statsz engine_wins_by_form),
// mean costs and the race overhead — auto latency over the winning
// form's own explicit latency — merge into BENCH_serve.json as a
// "form_mix" section, and every auto cost is checked against the
// minimum explicit cost (the determinism contract). Every response,
// explicit or auto, is counted by status, and any non-200 fails the
// run.
//
// A fifth scenario, -scenario overload, measures the adaptive
// admission layer: phase 1 runs distinct cold computes with clients ==
// admission width (the at-capacity goodput baseline), phase 2 re-runs
// identical work on a fresh server at several times capacity with
// deadlines too tight for the queue, where the deadline-aware shed
// path must reject doomed requests instantly (429 + Retry-After)
// instead of letting them queue into 504s and waste slots. The merged
// report (section "overload", overload_* summary keys) records goodput
// in both phases, the shed count and the shed-response latency;
// -assert-goodput-flat turns the three contract points into a CI gate
// (goodput within 10% of at-capacity, every 429 carries Retry-After,
// sheds answered in under 10ms).
//
// With -baseline pointing at a checked-in report, sppload doubles as a
// CI regression gate: -assert-dup-computes fails the serve scenario if
// its duplicate computes exceed the report's current rows, and
// -assert-cover-split additionally fails the edit-loop if the warm
// covering speedup collapses below a third of the baseline's.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/engine"
	"repro/internal/harness"
	"repro/internal/service"
	"repro/internal/stats"
)

type runResult struct {
	Scenario   string `json:"scenario"`
	Mode       string `json:"mode"`
	Clients    int    `json:"clients"`
	Requests   int    `json:"requests"`
	UniqueKeys int    `json:"unique_keys"`

	ElapsedMS     float64 `json:"elapsed_ms"`
	ThroughputRPS float64 `json:"throughput_rps"`
	P50MS         float64 `json:"p50_ms"`
	P99MS         float64 `json:"p99_ms"`

	// CoalesceRate is coalesce_waiters / served: the share of requests
	// answered by riding a concurrent identical computation.
	CoalesceRate float64 `json:"coalesce_rate"`
	// DuplicateComputes counts engine runs beyond one per distinct
	// function: cache_misses - unique_keys. The coalescing path keeps
	// this at 0.
	DuplicateComputes int64 `json:"duplicate_computes"`

	CacheHits       int64 `json:"cache_hits"`
	CacheMisses     int64 `json:"cache_misses"`
	CoalesceWaiters int64 `json:"coalesce_waiters"`
	Errors          int64 `json:"errors"`
	// Non200 counts the responses that were not 200, by HTTP status (0
	// for a request that got no response). Any entry fails the run.
	Non200 map[int]int `json:"non_200,omitempty"`
}

type report struct {
	Schema    string            `json:"schema"`
	Generated string            `json:"generated"`
	Config    map[string]any    `json:"config"`
	Results   []runResult       `json:"results"`
	Jobs      []jobRunResult    `json:"jobs,omitempty"`
	FormMix   []formMixResult   `json:"form_mix,omitempty"`
	Overload  []overloadResult  `json:"overload,omitempty"`
	Summary   map[string]string `json:"summary"`
}

// overloadResult is one phase of the overload scenario: identical cold
// work at capacity ("at-capacity") and at a multiple of it
// ("overload"), where goodput must hold and doomed requests must be
// shed fast.
type overloadResult struct {
	Scenario string `json:"scenario"` // always "overload"
	Phase    string `json:"phase"`    // "at-capacity" or "overload"
	Clients  int    `json:"clients"`
	Gate     int    `json:"gate"`

	Successes int     `json:"successes"`
	ElapsedMS float64 `json:"elapsed_ms"`
	// GoodputRPS counts full-size computes per second. In the overload
	// phase that is the patient work only: impatient probes carry tiny
	// functions, and any that slip through a free slot are excluded so
	// cheap computes cannot pad the ratio against at-capacity.
	GoodputRPS float64 `json:"goodput_rps"`
	// SuccessP50MS is the p50 latency of successful requests (queue
	// wait included).
	SuccessP50MS float64 `json:"success_p50_ms"`

	// Shed429 counts requests rejected by the admission layer;
	// ShedP50MS is how fast those rejections came back (the shed
	// contract: before the queue wait, not after) and ShedRetryAfterOK
	// how many carried a Retry-After header.
	Shed429          int     `json:"shed_429"`
	ShedP50MS        float64 `json:"shed_p50_ms"`
	ShedRetryAfterOK int     `json:"shed_retry_after_ok"`
	// Timeouts counts 504s: requests that queued (or computed) into
	// their deadline instead of being shed up front.
	Timeouts int `json:"timeouts"`

	ShedDeadline   int64 `json:"statsz_shed_deadline"`
	QueueWaitP99MS int64 `json:"statsz_queue_wait_p99_ms"`
}

// formMixResult is one form's slice of the form-mix scenario: cold
// explicit-request latency and cost per backend, plus — on the "auto"
// row — the race's win share and overhead against the winning form's
// own explicit latency.
type formMixResult struct {
	Scenario string `json:"scenario"` // always "form-mix"
	Form     string `json:"form"`
	Requests int    `json:"requests"`

	P50MS        float64 `json:"p50_ms"`
	MeanMS       float64 `json:"mean_ms"`
	MeanLiterals float64 `json:"mean_literals"`
	// WinRate is the share of auto races this backend won (explicit
	// rows; from /statsz engine_wins_by_form after the auto phase).
	WinRate float64 `json:"win_rate,omitempty"`
	// RaceOverhead (auto row only) is mean(auto latency / the winning
	// form's explicit latency on the same function): the price of
	// racing everyone versus knowing the right backend in advance.
	RaceOverhead float64 `json:"race_overhead,omitempty"`
	// BestCostMatches (auto row only) counts functions whose auto cost
	// equaled the minimum over the explicit runs — the determinism
	// contract, which must hold for every function.
	BestCostMatches int `json:"best_cost_matches,omitempty"`

	Errors int `json:"errors"`
	// Non200 counts the responses that were not 200, by HTTP status (0
	// for a request that got no response). Any entry fails the run.
	Non200 map[int]int `json:"non_200,omitempty"`
}

// jobRunResult is one priority class's slice of the jobs scenario:
// closed-loop submit-to-done latency through the async tier.
type jobRunResult struct {
	Scenario string `json:"scenario"` // always "jobs"
	Priority string `json:"priority"`
	Jobs     int    `json:"jobs"`

	ElapsedMS float64 `json:"elapsed_ms"`
	JobsPerS  float64 `json:"jobs_per_s"`
	// Submit-to-done wall time: 202 accept through the terminal state
	// observed by the poller, queue wait included.
	P50MS  float64 `json:"p50_ms"`
	P99MS  float64 `json:"p99_ms"`
	MeanMS float64 `json:"mean_ms"`

	Failed int `json:"failed"`
}

func main() {
	out := flag.String("out", "", "output JSON path (- for stdout; default BENCH_serve.json, or BENCH_delta.json for -scenario edit-loop)")
	scenario := flag.String("scenario", "serve", "benchmark scenario: serve (stampede+zipf), edit-loop (delta vs cold re-submits), jobs (async tier), form-mix (portfolio race win rates and overhead) or overload (adaptive admission at 4x capacity)")
	clients := flag.Int("clients", 8, "concurrent closed-loop clients")
	keys := flag.Int("keys", 40, "distinct functions in the zipf mix")
	requests := flag.Int("requests", 400, "total requests in the zipf scenario")
	rounds := flag.Int("rounds", 10, "cold keys in the stampede scenario")
	maxConcurrent := flag.Int("max-concurrent", 8, "zipf-scenario admission width")
	zipfS := flag.Float64("zipf-s", 1.2, "zipf skew (s > 1)")
	nvars := flag.Int("nvars", 9, "variables per benchmark function")
	onBase := flag.Int("on-base", 128, "smallest ON-set size")
	window := flag.Int("window", 32, "zipf requests between hot-set shifts")
	edits := flag.Int("edits", 25, "edit-loop steps per client")
	editK := flag.Int("edit-k", 2, "minterms changed per edit-loop step (alternating add/remove)")
	quick := flag.Bool("quick", false, "small fast run for CI smoke")
	assertCoverSplit := flag.Bool("assert-cover-split", false, "edit-loop only: exit 1 unless the warm per-run covering time beats cold (CI regression gate)")
	baseline := flag.String("baseline", "", "checked-in report to gate against (BENCH_serve.json for serve, BENCH_delta.json for edit-loop)")
	assertDup := flag.Bool("assert-dup-computes", false, "serve only: exit 1 if duplicate computes exceed the -baseline report's current rows (CI regression gate)")
	assertFlat := flag.Bool("assert-goodput-flat", false, "overload only: exit 1 unless goodput at 4x capacity stays within 10% of at-capacity, every 429 carries Retry-After and shed p50 < 10ms (CI regression gate)")
	flag.Parse()

	if *scenario == "edit-loop" {
		if *quick {
			*clients, *edits = 2, 6
		} else if *clients == 8 {
			*clients = 4 // default: 4 clients x 25 edits = a 100-edit loop
		}
		if *out == "" {
			*out = "BENCH_delta.json"
		}
		runEditLoopScenario(*out, *clients, *edits, *editK, *nvars, *onBase, *quick, *assertCoverSplit, *baseline)
		return
	}
	if *scenario == "form-mix" {
		if *quick {
			*keys, *nvars, *onBase = 5, 7, 24
		} else if *keys == 40 {
			*keys = 12 // every key runs once per form plus one auto race
		}
		if *out == "" {
			*out = "BENCH_serve.json"
		}
		runFormMixScenario(*out, *keys, *nvars, *onBase, *maxConcurrent, *quick)
		return
	}
	if *scenario == "jobs" {
		if *quick {
			*clients, *requests = 3, 18
		} else if *requests == 400 {
			// The zipf default would mean 400 distinct cold computes
			// growing to the ON-size cap; 60 keeps the full run in
			// tens of seconds while still loading every class.
			*requests = 60
		}
		if *out == "" {
			*out = "BENCH_serve.json"
		}
		runJobsScenario(*out, *clients, *requests, *maxConcurrent, *nvars, *onBase, *quick)
		return
	}
	if *scenario == "overload" {
		if *quick {
			*requests = 32
		} else if *requests == 400 {
			// requests here is the per-phase success target; 64 cold
			// computes per phase keeps the full run under a minute
			// while giving each of the paired rounds a sample big
			// enough that box noise does not dominate the ratio.
			*requests = 64
		}
		// The shed-latency contract is graded in wall-clock
		// milliseconds, so the default function size is tuned for
		// boxes with few cores: computes of tens of milliseconds keep
		// the admission gate saturated without drowning the core the
		// shed responses also need.
		if *nvars == 9 {
			*nvars = 8
		}
		if *onBase == 128 {
			*onBase = 56
		}
		if *out == "" {
			*out = "BENCH_serve.json"
		}
		runOverloadScenario(*out, *requests, *nvars, *onBase, *quick, *assertFlat)
		return
	}
	if *out == "" {
		*out = "BENCH_serve.json"
	}
	if *quick {
		*clients, *keys, *requests, *rounds, *window = 4, 10, 64, 3, 16
	}

	rep := openServeReport(*out)
	for k, v := range map[string]any{
		"clients":        *clients,
		"keys":           *keys,
		"requests":       *requests,
		"rounds":         *rounds,
		"max_concurrent": *maxConcurrent,
		"zipf_s":         *zipfS,
		"window":         *window,
		"nvars":          *nvars,
		"on_base":        *onBase,
		"quick":          *quick,
	} {
		rep.Config[k] = v
	}

	bodies := makeBodies(max(*keys, *rounds), *nvars, *onBase, 2)
	runs := []runResult{
		// The stampede runs at admission width == clients, so duplicate
		// computes measure coalescing rather than admission-gate
		// serialization.
		runStampede(*clients, *clients, *rounds, bodies),
		runZipf(*maxConcurrent, *clients, *requests, *keys, *window, *zipfS, bodies),
	}
	non200 := 0
	for _, res := range runs {
		fmt.Printf("%-9s %-8s  %7.1f req/s  p50 %6.2fms  p99 %7.2fms  dup-computes %3d  coalesce %4.0f%%\n",
			res.Scenario, res.Mode, res.ThroughputRPS, res.P50MS, res.P99MS,
			res.DuplicateComputes, 100*res.CoalesceRate)
		for code, n := range res.Non200 {
			fmt.Fprintf(os.Stderr, "sppload: %s: %d responses with status %d\n", res.Scenario, n, code)
			non200 += n
		}
		if cur := find(rep.Results, res.Scenario, "current"); cur != nil {
			*cur = res
		} else {
			rep.Results = append(rep.Results, res)
		}
		if base := find(rep.Results, res.Scenario, "baseline"); base != nil && base.ThroughputRPS > 0 {
			rep.Summary[res.Scenario+"_speedup"] = fmt.Sprintf("%.2fx", res.ThroughputRPS/base.ThroughputRPS)
			rep.Summary[res.Scenario+"_duplicate_computes"] = fmt.Sprintf("%d -> %d", base.DuplicateComputes, res.DuplicateComputes)
		}
	}
	writeReport(*out, rep)
	for _, scenario := range []string{"stampede", "zipf"} {
		for _, k := range []string{scenario + "_speedup", scenario + "_duplicate_computes"} {
			if v, ok := rep.Summary[k]; ok {
				fmt.Printf("summary %s = %s\n", k, v)
			}
		}
	}

	failed := non200 > 0
	if *assertDup {
		if *baseline == "" {
			fmt.Fprintln(os.Stderr, "sppload: -assert-dup-computes needs -baseline")
			os.Exit(1)
		}
		base, err := loadServeReport(*baseline)
		if err != nil {
			fmt.Fprintln(os.Stderr, "sppload: baseline:", err)
			os.Exit(1)
		}
		for _, got := range runs {
			want := find(base.Results, got.Scenario, "current")
			if want != nil && got.DuplicateComputes > want.DuplicateComputes {
				fmt.Fprintf(os.Stderr, "sppload: dup-computes assertion failed: %s %d > baseline %d\n",
					got.Scenario, got.DuplicateComputes, want.DuplicateComputes)
				failed = true
			}
		}
	}
	if failed {
		os.Exit(1)
	}
}

// loadServeReport reads a spp-bench-serve/v1 report from disk.
func loadServeReport(path string) (*report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep report
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, err
	}
	if rep.Schema != "spp-bench-serve/v1" {
		return nil, fmt.Errorf("%s: schema %q, want spp-bench-serve/v1", path, rep.Schema)
	}
	return &rep, nil
}

// openServeReport loads the serve report at out for a scenario to merge
// its own sections into, or starts a fresh one when there is no usable
// report there (or out is stdout).
func openServeReport(out string) *report {
	rep, err := loadServeReport(out)
	if err != nil {
		rep = &report{Schema: "spp-bench-serve/v1"}
	}
	if rep.Config == nil {
		rep.Config = map[string]any{}
	}
	if rep.Summary == nil {
		rep.Summary = map[string]string{}
	}
	rep.Generated = time.Now().UTC().Format(time.RFC3339)
	return rep
}

// writeReport writes v as indented JSON to out ("-" for stdout),
// exiting on failure.
func writeReport(out string, v any) {
	var w io.Writer = os.Stdout
	if out != "-" {
		f, err := os.Create(out)
		if err != nil {
			fmt.Fprintln(os.Stderr, "sppload:", err)
			os.Exit(1)
		}
		defer f.Close()
		w = f
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		fmt.Fprintln(os.Stderr, "sppload:", err)
		os.Exit(1)
	}
}

// makeBodies builds count distinct request bodies whose functions are
// pairwise P-inequivalent (distinct ON-set sizes cannot permute onto
// each other), so each body occupies its own cache key. The ON sets are
// pseudo-random over nvars variables and sized to make each cold
// compute take real engine time — a cache hit must be measurably
// cheaper than a compute for the scenarios to mean anything.
func makeBodies(count, nvars, onBase, onStep int) []string {
	rng := rand.New(rand.NewSource(1))
	space := 1 << nvars
	bodies := make([]string, count)
	for i := range bodies {
		size := onBase + i*onStep
		if size > space/2 {
			size = space / 2
		}
		seen := make(map[int]bool)
		pts := make([]string, 0, size)
		for len(pts) < size {
			p := rng.Intn(space)
			if !seen[p] {
				seen[p] = true
				pts = append(pts, fmt.Sprint(p))
			}
		}
		bodies[i] = fmt.Sprintf(`{"n":%d,"on":[%s]}`, nvars, strings.Join(pts, ","))
	}
	return bodies
}

func newServer(maxConcurrent int) (*httptest.Server, func() service.Statsz) {
	cfg := service.Config{
		Core:          harness.DefaultConfig(),
		MaxConcurrent: maxConcurrent,
		CacheSize:     1024,
	}
	srv := service.New(cfg)
	ts := httptest.NewServer(srv.Handler())
	statsz := func() service.Statsz {
		resp, err := http.Get(ts.URL + "/statsz")
		if err != nil {
			panic(err)
		}
		defer resp.Body.Close()
		var st service.Statsz
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			panic(err)
		}
		return st
	}
	return ts, statsz
}

// post sends one minimize body and returns its latency and HTTP status
// (0 when the request never got a response).
func post(client *http.Client, url, body string) (time.Duration, int) {
	start := time.Now()
	resp, err := client.Post(url+"/v1/minimize", "application/json", strings.NewReader(body))
	if err != nil {
		return time.Since(start), 0
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return time.Since(start), resp.StatusCode
}

// runStampede fires all clients at the same cold key simultaneously,
// once per round with a fresh key each round.
func runStampede(maxConcurrent, clients, rounds int, bodies []string) runResult {
	ts, statsz := newServer(maxConcurrent)
	defer ts.Close()
	client := &http.Client{}

	var mu sync.Mutex
	var lats []time.Duration
	codes := map[int]int{}
	start := time.Now()
	for r := 0; r < rounds; r++ {
		body := bodies[r]
		begin := make(chan struct{})
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-begin
				d, code := post(client, ts.URL, body)
				mu.Lock()
				lats = append(lats, d)
				codes[code]++
				mu.Unlock()
			}()
		}
		close(begin)
		wg.Wait()
	}
	elapsed := time.Since(start)

	st := statsz()
	return summarize("stampede", clients, rounds, lats, codes, elapsed, st)
}

// runZipf is the steady-state closed loop: each client draws its next
// key from a zipf distribution as soon as the previous request
// completes. The hot set drifts — every window requests the whole key
// distribution shifts by one — so the mix stays repeat-heavy while new
// hot keys keep arriving cold at all clients at once, the way real
// traffic rolls its working set. (On every shift, coalescing computes
// the new hot key once, not once per concurrent client.)
func runZipf(maxConcurrent, clients, requests, keys, window int, s float64, bodies []string) runResult {
	ts, statsz := newServer(maxConcurrent)
	defer ts.Close()
	client := &http.Client{}

	perClient := requests / clients
	var mu sync.Mutex
	var lats []time.Duration
	codes := map[int]int{}
	touched := make(map[int]bool)
	var total int
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			zipf := rand.NewZipf(rng, s, 1, uint64(keys-1))
			for i := 0; i < perClient; i++ {
				mu.Lock()
				shift := total / window
				total++
				mu.Unlock()
				// Hot key (draw 0) is the newest key; larger draws walk
				// back into older, already-warm keys.
				k := ((shift-int(zipf.Uint64()))%len(bodies) + len(bodies)) % len(bodies)
				d, code := post(client, ts.URL, bodies[k])
				mu.Lock()
				lats = append(lats, d)
				codes[code]++
				touched[k] = true
				mu.Unlock()
			}
		}(int64(c + 1))
	}
	wg.Wait()
	elapsed := time.Since(start)

	st := statsz()
	return summarize("zipf", clients, len(touched), lats, codes, elapsed, st)
}

// summarize turns one run into its "current" report row; codes counts
// the responses by HTTP status.
func summarize(scenario string, clients, uniqueKeys int, lats []time.Duration, codes map[int]int, elapsed time.Duration, st service.Statsz) runResult {
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	pct := func(p float64) float64 {
		if len(lats) == 0 {
			return 0
		}
		i := min(int(p*float64(len(lats))), len(lats)-1)
		return float64(lats[i].Microseconds()) / 1000
	}
	rate := 0.0
	if st.Served > 0 {
		rate = float64(st.CoalesceWaiters) / float64(st.Served)
	}
	delete(codes, http.StatusOK)
	if len(codes) == 0 {
		codes = nil
	}
	return runResult{
		Scenario:          scenario,
		Mode:              "current",
		Clients:           clients,
		Requests:          len(lats),
		UniqueKeys:        uniqueKeys,
		ElapsedMS:         float64(elapsed.Microseconds()) / 1000,
		ThroughputRPS:     float64(len(lats)) / elapsed.Seconds(),
		P50MS:             pct(0.50),
		P99MS:             pct(0.99),
		CoalesceRate:      rate,
		DuplicateComputes: st.CacheMisses - int64(uniqueKeys),
		CacheHits:         st.CacheHits,
		CacheMisses:       st.CacheMisses,
		CoalesceWaiters:   st.CoalesceWaiters,
		Errors:            st.Errors,
		Non200:            codes,
	}
}

func find(rs []runResult, scenario, mode string) *runResult {
	for i := range rs {
		if rs[i].Scenario == scenario && rs[i].Mode == mode {
			return &rs[i]
		}
	}
	return nil
}

// --- jobs scenario ------------------------------------------------------

// runJobsScenario drives the async job tier closed-loop: clients split
// across the priority classes, each submitting distinct functions via
// POST /v1/jobs and long-polling every job to a terminal state. The
// per-class submit-to-done latencies merge into the serve report at
// `out` (section "jobs" plus jobs_* summary keys); existing serve
// results in that file are preserved.
func runJobsScenario(out string, clients, totalJobs, workers, nvars, onBase int, quick bool) {
	jobsDir, err := os.MkdirTemp("", "sppload-jobs-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "sppload:", err)
		os.Exit(1)
	}
	defer os.RemoveAll(jobsDir)

	// Fewer workers than clients keeps a queue standing (closed-loop
	// clients have one job outstanding each, so queue depth is
	// clients - workers): without one, priority classes would never
	// differ.
	if half := max(clients/2, 1); workers > half {
		workers = half
	}
	cfg := service.Config{
		Core:          harness.DefaultConfig(),
		MaxConcurrent: workers,
		CacheSize:     4096,
		JobsDir:       jobsDir,
		JobWorkers:    workers,
	}
	srv := service.New(cfg)
	if _, err := srv.StartJobs(); err != nil {
		fmt.Fprintln(os.Stderr, "sppload: jobs:", err)
		os.Exit(1)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := &http.Client{}

	priorities := []string{"interactive", "batch", "bulk"}
	// Step 1 keeps ON sizes under the space/2 cap (distinct sizes stay
	// P-inequivalent) so compute cost grows gently across the fleet.
	bodies := makeBodies(totalJobs, nvars, onBase, 1)
	perClient := totalJobs / clients

	type sample struct {
		priority string
		d        time.Duration
		failed   bool
	}
	var mu sync.Mutex
	var samples []sample
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			prio := priorities[c%len(priorities)]
			for i := 0; i < perClient; i++ {
				// Interleave bodies across clients so every priority
				// class sees the same ON-size (= compute cost) spread.
				body := bodies[i*clients+c]
				// Splice the priority class into the minimize body.
				jb := fmt.Sprintf(`{"priority":%q,%s`, prio, body[1:])
				d, failed := submitAndAwaitJob(client, ts.URL, jb)
				mu.Lock()
				samples = append(samples, sample{prio, d, failed})
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.StopJobs(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "sppload: jobs shutdown:", err)
		os.Exit(1)
	}

	rep := openServeReport(out)
	rep.Config["jobs_clients"] = clients
	rep.Config["jobs_total"] = totalJobs
	rep.Config["jobs_workers"] = workers
	rep.Config["jobs_quick"] = quick
	rep.Jobs = nil

	for _, prio := range priorities {
		var lats []time.Duration
		failed := 0
		for _, s := range samples {
			if s.priority != prio {
				continue
			}
			lats = append(lats, s.d)
			if s.failed {
				failed++
			}
		}
		if len(lats) == 0 {
			continue
		}
		sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
		pct := func(p float64) float64 {
			i := min(int(p*float64(len(lats))), len(lats)-1)
			return float64(lats[i].Microseconds()) / 1000
		}
		var total time.Duration
		for _, d := range lats {
			total += d
		}
		res := jobRunResult{
			Scenario:  "jobs",
			Priority:  prio,
			Jobs:      len(lats),
			ElapsedMS: float64(elapsed.Microseconds()) / 1000,
			JobsPerS:  float64(len(lats)) / elapsed.Seconds(),
			P50MS:     pct(0.50),
			P99MS:     pct(0.99),
			MeanMS:    float64(total.Microseconds()) / 1000 / float64(len(lats)),
			Failed:    failed,
		}
		rep.Jobs = append(rep.Jobs, res)
		rep.Summary["jobs_p50_"+prio] = fmt.Sprintf("%.2fms", res.P50MS)
		fmt.Printf("jobs %-11s  %5.1f jobs/s  p50 %7.2fms  p99 %8.2fms  mean %7.2fms  failed %d\n",
			prio, res.JobsPerS, res.P50MS, res.P99MS, res.MeanMS, res.Failed)
	}

	writeReport(out, rep)
	for _, prio := range priorities {
		if v, ok := rep.Summary["jobs_p50_"+prio]; ok {
			fmt.Printf("summary jobs_p50_%s = %s\n", prio, v)
		}
	}
	var totalFailed int
	for _, r := range rep.Jobs {
		totalFailed += r.Failed
	}
	if totalFailed > 0 {
		fmt.Fprintf(os.Stderr, "sppload: %d jobs failed\n", totalFailed)
		os.Exit(1)
	}
}

// runOverloadScenario grades the adaptive admission layer. Phase 1
// runs `total` distinct cold computes with clients == admission width
// (every acquire takes the fast path: the at-capacity goodput
// ceiling). Phase 2 re-runs the same success target on a fresh server
// at 4x capacity with a mixed deadline population: patient clients
// whose budgets comfortably cover the queue (they keep the slots busy
// and feed the queue-wait predictor) and impatient clients whose
// budgets cannot cover a queued wait. Once the predictor warms up, the
// impatient requests must be shed up front — 429 + Retry-After in
// single-digit milliseconds — instead of queuing into 504s, so slot
// time keeps going to requests that can still make their deadlines and
// goodput holds flat. The report gains an "overload" section and
// overload_* summary keys; assertFlat turns the contract into a CI
// gate.
//
// The shape is deliberately small — one admission slot, two patient
// and two impatient clients, impatient probes spaced by a backoff —
// because the shed contract is graded in wall-clock milliseconds: on a
// one-core box every runnable goroutine adds scheduler queueing delay
// to every response, so the runnable set must stay near one compute
// plus one short-lived handler for the measurement to reflect the shed
// path rather than the scheduler.
func runOverloadScenario(out string, total, nvars, onBase int, quick, assertFlat bool) {
	const gate = 1
	const patientN, impatientN = 2, 2
	// Alternating rounds of the two phases: throughput noise on a
	// shared box drifts on a sub-second scale, so each overload round
	// is paired with the at-capacity round right before it and the
	// goodput gate is the median of the per-pair ratios — one noisy
	// window can skew a pair, not the median.
	const rounds = 4
	if r := total % (2 * rounds * patientN); r != 0 {
		total += 2*rounds*patientN - r
	}
	perRound := total / rounds

	// The shed contract is graded in client-observed milliseconds.
	// With GOMAXPROCS=1 a finished response waits out the running
	// compute's preemption quantum before the client goroutine can
	// even stamp the clock, billing tens of ms of scheduler queueing
	// to every request; a few extra Ps let the short handlers and
	// client wakeups slip in beside the compute.
	if runtime.GOMAXPROCS(0) < 2 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	}

	// The two phases run on separate servers with separate caches, so
	// the patient clients can serve the exact bodies the at-capacity
	// phase ran: each paired round compares identical work, not two
	// same-size random draws — random ON sets of one size still differ
	// in minimization cost, and a pool that drew expensive functions
	// would bias every round of its phase the same way. The impatient
	// probes get their own pool of much smaller functions: the shed
	// decision only weighs the deadline, and a probe that carries an
	// expensive body would bill its decode-and-canonicalize cost to
	// the one core the admitted computes run on.
	bodies := makeBodies(total, nvars, onBase, 0)
	impBodies := makeBodies(total, nvars, max(onBase/8, 8), 0)

	// One connection per client goroutine: the default transport keeps
	// only two idle conns per host, and on a busy box every re-dial
	// waits for the accept loop to win a scheduler slice — noise that
	// would be billed to the shed latencies under measurement.
	client := &http.Client{Transport: &http.Transport{
		MaxIdleConns:        64,
		MaxIdleConnsPerHost: 64,
	}}

	var mu sync.Mutex
	var baseLats []time.Duration
	type attempt struct {
		class      string
		code       int
		d          time.Duration
		retryAfter bool
	}
	var attempts []attempt
	record := func(class string, code int, d time.Duration, hdr string) {
		mu.Lock()
		attempts = append(attempts, attempt{class, code, d, hdr != ""})
		mu.Unlock()
	}
	var baseElapsed, overElapsed time.Duration
	var baseRounds, overRounds []time.Duration
	var shedDeadline, queueP99 int64

	// Each phase keeps one server for all of its rounds: the overload
	// server's wait ring stays warm between rounds — round N>0 sheds
	// from its first probe instead of re-learning the queue — and no
	// round bills server or connection setup to its timed window. All
	// bodies are distinct, so the shared result cache never short-cuts
	// a compute.
	baseTS, _ := newServer(gate)
	defer baseTS.Close()
	overTS, overStatsz := newServer(gate)
	defer overTS.Close()

	// runBase is one at-capacity round: a single closed-loop client on
	// the one-slot baseline server, so every acquire takes the fast
	// path and the goodput is the pure compute ceiling.
	runBase := func(pool []string) {
		start := time.Now()
		for _, b := range pool {
			d, code := post(client, baseTS.URL, b)
			if code != http.StatusOK {
				fmt.Fprintln(os.Stderr, "sppload: overload at-capacity request failed")
				os.Exit(1)
			}
			baseLats = append(baseLats, d)
		}
		baseRounds = append(baseRounds, time.Since(start))
		baseElapsed += baseRounds[len(baseRounds)-1]
	}

	// runOver is one 4x-capacity round: the patient clients drive the
	// round (it ends when their quota of successes lands), the
	// impatient clients probe until then.
	runOver := func(patientPool, impatientPool []string, patientMS, impatientMS int64) {
		var done atomic.Bool
		var patientWG, impatientWG sync.WaitGroup
		start := time.Now()
		for c := 0; c < patientN; c++ {
			share := patientPool[c*len(patientPool)/patientN : (c+1)*len(patientPool)/patientN]
			patientWG.Add(1)
			go func(share []string) {
				defer patientWG.Done()
				for _, b := range share {
					body := fmt.Sprintf(`{"timeout_ms":%d,%s`, patientMS, b[1:])
					for {
						d, code, hdr, _ := postOverload(client, overTS.URL, body)
						record("patient", code, d, hdr)
						if code == http.StatusOK {
							break
						}
						time.Sleep(5 * time.Millisecond)
					}
				}
			}(share)
		}
		for c := 0; c < impatientN; c++ {
			share := impatientPool[c*len(impatientPool)/impatientN : (c+1)*len(impatientPool)/impatientN]
			impatientWG.Add(1)
			go func(share []string) {
				defer impatientWG.Done()
				next := 0
				for !done.Load() && next < len(share) {
					body := fmt.Sprintf(`{"timeout_ms":%d,%s`, impatientMS, share[next][1:])
					d, code, hdr, resp := postOverload(client, overTS.URL, body)
					record("impatient", code, d, hdr)
					switch code {
					case http.StatusOK, http.StatusGatewayTimeout:
						// An impatient client gives its deadline one
						// try: served or timed out, it moves to fresh
						// work.
						next++
					case http.StatusTooManyRequests:
						// Back off for at least the Retry-After hint:
						// probes that return too eagerly bill their
						// handling to the core the admitted computes
						// need.
						pause := 75 * time.Millisecond
						if hint := time.Duration(resp.RetryAfterMS) * time.Millisecond; hint > pause {
							pause = min(hint, 150*time.Millisecond)
						}
						time.Sleep(pause)
					}
				}
			}(share)
		}
		patientWG.Wait()
		overRounds = append(overRounds, time.Since(start))
		overElapsed += overRounds[len(overRounds)-1]
		done.Store(true)
		impatientWG.Wait()
	}

	// The first at-capacity round calibrates the phase-2 budgets off
	// the measured compute cost. An impatient budget of half the
	// median compute cannot cover a queued wait — or even a fast-path
	// compute, so the rare impatient probe that does win a free slot
	// is cancelled quickly instead of holding it — and the predictor
	// (which sees the patient queue waits) must shed it; the patient
	// budget covers the whole queue many times over.
	runBase(bodies[:perRound])
	cal := append([]time.Duration(nil), baseLats...)
	sort.Slice(cal, func(i, j int) bool { return cal[i] < cal[j] })
	p50cal := cal[len(cal)/2]
	impatientMS := max(p50cal.Milliseconds()/2, 10)
	patientMS := max(p50cal.Milliseconds()*20, 250)

	for r := 0; r < rounds; r++ {
		if r > 0 {
			runBase(bodies[r*perRound : (r+1)*perRound])
		}
		runOver(bodies[r*perRound:(r+1)*perRound],
			impBodies[r*perRound:(r+1)*perRound],
			patientMS, impatientMS)
	}
	st := overStatsz()
	shedDeadline = st.ShedDeadline
	queueP99 = st.QueueWaitP99MS

	if os.Getenv("SPPLOAD_DEBUG_OVERLOAD") != "" {
		type key struct {
			class string
			code  int
		}
		agg := map[key]struct {
			n int
			d time.Duration
		}{}
		for _, a := range attempts {
			e := agg[key{a.class, a.code}]
			e.n++
			e.d += a.d
			agg[key{a.class, a.code}] = e
		}
		for k, e := range agg {
			fmt.Printf("DEBUG %-10s %d  n=%3d  mean %6.2fms\n", k.class, k.code, e.n, float64(e.d.Microseconds())/1000/float64(e.n))
		}
		for i := range overRounds {
			fmt.Printf("DEBUG round %d  base %6.1fms  over %6.1fms  ratio %.2f\n",
				i, float64(baseRounds[i].Microseconds())/1000, float64(overRounds[i].Microseconds())/1000,
				baseRounds[i].Seconds()/overRounds[i].Seconds())
		}
		fmt.Printf("DEBUG statsz shed=%d p99=%dms\n", shedDeadline, queueP99)
	}

	sort.Slice(baseLats, func(i, j int) bool { return baseLats[i] < baseLats[j] })
	p50 := baseLats[len(baseLats)/2]
	baseRes := overloadResult{
		Scenario: "overload", Phase: "at-capacity", Clients: gate, Gate: gate,
		Successes:    total,
		ElapsedMS:    float64(baseElapsed.Microseconds()) / 1000,
		GoodputRPS:   float64(total) / baseElapsed.Seconds(),
		SuccessP50MS: float64(p50.Microseconds()) / 1000,
	}

	var shedLats []time.Duration
	overRes := overloadResult{
		Scenario: "overload", Phase: "overload",
		Clients: patientN + impatientN, Gate: gate,
		ShedDeadline:   shedDeadline,
		QueueWaitP99MS: queueP99,
	}
	var okLats []time.Duration
	for _, a := range attempts {
		switch a.code {
		case http.StatusOK:
			overRes.Successes++
			okLats = append(okLats, a.d)
		case http.StatusTooManyRequests:
			overRes.Shed429++
			shedLats = append(shedLats, a.d)
			if a.retryAfter {
				overRes.ShedRetryAfterOK++
			}
		case http.StatusGatewayTimeout:
			overRes.Timeouts++
		}
	}
	// Goodput for the overload phase counts the heavy patient work
	// only — it is the same-size work the at-capacity phase ran, so
	// the ratio compares like with like. Impatient successes are tiny
	// probe functions that happened to catch a free slot; counting
	// them would let cheap computes pad the ratio.
	overRes.ElapsedMS = float64(overElapsed.Microseconds()) / 1000
	overRes.GoodputRPS = float64(total) / overElapsed.Seconds()
	pctMS := func(lats []time.Duration, p float64) float64 {
		if len(lats) == 0 {
			return 0
		}
		sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
		i := min(int(p*float64(len(lats))), len(lats)-1)
		return float64(lats[i].Microseconds()) / 1000
	}
	overRes.SuccessP50MS = pctMS(okLats, 0.50)
	overRes.ShedP50MS = pctMS(shedLats, 0.50)

	rep := openServeReport(out)
	rep.Config["overload_total"] = total
	rep.Config["overload_gate"] = gate
	rep.Config["overload_patient_timeout_ms"] = patientMS
	rep.Config["overload_impatient_timeout_ms"] = impatientMS
	rep.Config["overload_quick"] = quick
	rep.Overload = []overloadResult{baseRes, overRes}

	// The gated ratio pairs each overload round with the at-capacity
	// round that ran just before it — both serve the same count of
	// same-size computes under the same slice of box noise — drops the
	// single worst pair, and compares the summed elapsed of the rest.
	// Trimming one pair absorbs a noise spike in one window (shared
	// boxes drift ±20% on a sub-second scale); a real admission-layer
	// regression depresses every pair and still fails the gate.
	worst, worstRatio := 0, math.Inf(1)
	for i := range overRounds {
		if r := baseRounds[i].Seconds() / overRounds[i].Seconds(); r < worstRatio {
			worst, worstRatio = i, r
		}
	}
	var keptBase, keptOver time.Duration
	for i := range overRounds {
		if i != worst {
			keptBase += baseRounds[i]
			keptOver += overRounds[i]
		}
	}
	ratio := keptBase.Seconds() / keptOver.Seconds()
	rep.Summary["overload_goodput"] = fmt.Sprintf("%.1f -> %.1f req/s (trimmed round ratio %.0f%%)",
		baseRes.GoodputRPS, overRes.GoodputRPS, 100*ratio)
	rep.Summary["overload_sheds"] = fmt.Sprintf("%d shed in p50 %.2fms, %d/%d with Retry-After, %d timeouts",
		overRes.Shed429, overRes.ShedP50MS, overRes.ShedRetryAfterOK, overRes.Shed429, overRes.Timeouts)
	for _, r := range rep.Overload {
		fmt.Printf("overload %-12s  %d clients/%d slots  %5.1f req/s  success p50 %7.2fms  shed %3d (p50 %5.2fms)  504s %d\n",
			r.Phase, r.Clients, r.Gate, r.GoodputRPS, r.SuccessP50MS, r.Shed429, r.ShedP50MS, r.Timeouts)
	}

	writeReport(out, rep)
	fmt.Printf("summary overload_goodput = %s\n", rep.Summary["overload_goodput"])
	fmt.Printf("summary overload_sheds = %s\n", rep.Summary["overload_sheds"])

	if assertFlat {
		failed := false
		if ratio < 0.90 {
			fmt.Fprintf(os.Stderr, "sppload: goodput-flat assertion failed: trimmed round ratio %.0f%% (overload %.1f vs at-capacity %.1f req/s, want >= 90%%)\n",
				100*ratio, overRes.GoodputRPS, baseRes.GoodputRPS)
			failed = true
		}
		if overRes.Shed429 == 0 {
			fmt.Fprintln(os.Stderr, "sppload: goodput-flat assertion failed: no requests were shed at 4x capacity")
			failed = true
		}
		if overRes.ShedRetryAfterOK != overRes.Shed429 {
			fmt.Fprintf(os.Stderr, "sppload: goodput-flat assertion failed: %d of %d 429s missing Retry-After\n",
				overRes.Shed429-overRes.ShedRetryAfterOK, overRes.Shed429)
			failed = true
		}
		if overRes.Shed429 > 0 && overRes.ShedP50MS >= 10 {
			fmt.Fprintf(os.Stderr, "sppload: goodput-flat assertion failed: shed p50 %.2fms (want < 10ms)\n", overRes.ShedP50MS)
			failed = true
		}
		if failed {
			os.Exit(1)
		}
	}
}

// postOverload posts one minimize body and keeps the pieces the
// overload scenario grades sheds on: latency, status, the Retry-After
// header and the decoded envelope (whose RetryAfterMS is the backoff
// hint). Success bodies are discarded undecoded — parsing result
// payloads would bill client-side CPU to the phase under measurement.
func postOverload(client *http.Client, url, body string) (time.Duration, int, string, service.Response) {
	start := time.Now()
	resp, err := client.Post(url+"/v1/minimize", "application/json", strings.NewReader(body))
	if err != nil {
		return time.Since(start), 0, "", service.Response{}
	}
	defer resp.Body.Close()
	var r service.Response
	if resp.StatusCode != http.StatusOK {
		_ = json.NewDecoder(resp.Body).Decode(&r)
	}
	io.Copy(io.Discard, resp.Body)
	return time.Since(start), resp.StatusCode, resp.Header.Get("Retry-After"), r
}

// submitAndAwaitJob submits one job and long-polls it to a terminal
// state, returning the submit-to-done wall time.
func submitAndAwaitJob(client *http.Client, url, body string) (time.Duration, bool) {
	start := time.Now()
	resp, err := client.Post(url+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		return time.Since(start), true
	}
	var st service.JobStatus
	derr := json.NewDecoder(resp.Body).Decode(&st)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if derr != nil || resp.StatusCode != http.StatusAccepted || st.ID == "" {
		return time.Since(start), true
	}
	for {
		resp, err := client.Get(url + "/v1/jobs/" + st.ID + "?wait_ms=2000")
		if err != nil {
			return time.Since(start), true
		}
		var cur service.JobStatus
		derr := json.NewDecoder(resp.Body).Decode(&cur)
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if derr != nil || resp.StatusCode != http.StatusOK {
			return time.Since(start), true
		}
		switch cur.State {
		case "done":
			return time.Since(start), false
		case "failed":
			return time.Since(start), true
		}
	}
}

// --- form-mix scenario --------------------------------------------------

// runFormMixScenario benchmarks the portfolio engine. Phase 1 runs
// every function through each explicit form on one server (each form
// salts its own cache key, so every request is a cold compute); phase
// 2 races the same functions with form=auto on a fresh server, so the
// races never reuse phase 1's entries. The auto cost must equal the
// per-function minimum over the explicit runs — a violated check fails
// the benchmark, because it falsifies the determinism contract rather
// than just slowing it down.
func runFormMixScenario(out string, keys, nvars, onBase, maxConcurrent int, quick bool) {
	forms := engine.Names()
	bodies := makeBodies(keys, nvars, onBase, 2)
	withForm := func(body, form string) string {
		return fmt.Sprintf(`{"form":%q,%s`, form, body[1:])
	}

	// Phase 1: explicit forms, serially for clean latencies.
	ts, _ := newServer(maxConcurrent)
	client := &http.Client{}
	lat := make(map[string][]time.Duration, len(forms))
	cost := make(map[string][]int, len(forms))
	non200 := make(map[string]map[int]int, len(forms)+1)
	for _, form := range forms {
		lat[form] = make([]time.Duration, keys)
		cost[form] = make([]int, keys)
		non200[form] = map[int]int{}
		for k, body := range bodies {
			d, code, resp := postResp(client, ts.URL, withForm(body, form))
			if code != http.StatusOK {
				non200[form][code]++
				cost[form][k] = -1
				continue
			}
			lat[form][k], cost[form][k] = d, resp.Literals
		}
	}
	ts.Close()

	// Phase 2: auto races on a fresh server.
	ts, statsz := newServer(maxConcurrent)
	defer ts.Close()
	autoLat := make([]time.Duration, keys)
	autoCost := make([]int, keys)
	bestMatches := 0
	non200["auto"] = map[int]int{}
	var overheadSum float64
	var overheadN int
	for k, body := range bodies {
		d, code, resp := postResp(client, ts.URL, withForm(body, "auto"))
		if code != http.StatusOK {
			non200["auto"][code]++
			autoCost[k] = -1
			continue
		}
		autoLat[k], autoCost[k] = d, resp.Literals

		// The winner's own explicit latency is the overhead baseline:
		// racing should cost little more than having known the answer.
		best, bestForm := -1, ""
		for _, form := range forms {
			if c := cost[form][k]; c >= 0 && (best == -1 || c < best) {
				best, bestForm = c, form
			}
		}
		if best >= 0 && autoCost[k] == best {
			bestMatches++
		}
		if bestForm != "" && lat[bestForm][k] > 0 {
			overheadSum += float64(d) / float64(lat[bestForm][k])
			overheadN++
		}
	}
	st := statsz()

	rep := openServeReport(out)
	rep.Config["form_mix_keys"] = keys
	rep.Config["form_mix_nvars"] = nvars
	rep.Config["form_mix_on_base"] = onBase
	rep.Config["form_mix_quick"] = quick
	rep.FormMix = nil

	row := func(form string, lats []time.Duration, costs []int) formMixResult {
		var ok []time.Duration
		var costSum, costN int
		for k := range lats {
			if costs[k] >= 0 {
				ok = append(ok, lats[k])
				costSum += costs[k]
				costN++
			}
		}
		sort.Slice(ok, func(i, j int) bool { return ok[i] < ok[j] })
		r := formMixResult{Scenario: "form-mix", Form: form, Requests: len(lats)}
		for _, n := range non200[form] {
			r.Errors += n
		}
		if r.Errors > 0 {
			r.Non200 = non200[form]
		}
		if len(ok) > 0 {
			var total time.Duration
			for _, d := range ok {
				total += d
			}
			r.P50MS = float64(ok[len(ok)/2].Microseconds()) / 1000
			r.MeanMS = float64(total.Microseconds()) / 1000 / float64(len(ok))
			r.MeanLiterals = float64(costSum) / float64(costN)
		}
		return r
	}

	races := st.EngineRaces
	for _, form := range forms {
		r := row(form, lat[form], cost[form])
		if races > 0 {
			r.WinRate = float64(st.EngineWinsByForm[form]) / float64(races)
		}
		rep.FormMix = append(rep.FormMix, r)
		fmt.Printf("form-mix %-5s  p50 %7.2fms  mean %7.2fms  #L %6.1f  wins %4.0f%%  errors %d\n",
			r.Form, r.P50MS, r.MeanMS, r.MeanLiterals, 100*r.WinRate, r.Errors)
	}
	auto := row("auto", autoLat, autoCost)
	autoErrs := auto.Errors
	auto.BestCostMatches = bestMatches
	if overheadN > 0 {
		auto.RaceOverhead = overheadSum / float64(overheadN)
	}
	rep.FormMix = append(rep.FormMix, auto)
	fmt.Printf("form-mix %-5s  p50 %7.2fms  mean %7.2fms  #L %6.1f  overhead %.2fx  best-cost %d/%d\n",
		auto.Form, auto.P50MS, auto.MeanMS, auto.MeanLiterals, auto.RaceOverhead, bestMatches, keys-autoErrs)

	rep.Summary["form_mix_race_overhead"] = fmt.Sprintf("%.2fx", auto.RaceOverhead)
	rep.Summary["form_mix_best_cost"] = fmt.Sprintf("%d/%d", bestMatches, keys-autoErrs)
	var winParts []string
	for _, form := range forms {
		if races > 0 {
			winParts = append(winParts, fmt.Sprintf("%s %.0f%%", form, 100*float64(st.EngineWinsByForm[form])/float64(races)))
		}
	}
	rep.Summary["form_mix_wins"] = strings.Join(winParts, ", ")

	writeReport(out, rep)
	for _, k := range []string{"form_mix_wins", "form_mix_race_overhead", "form_mix_best_cost"} {
		fmt.Printf("summary %s = %s\n", k, rep.Summary[k])
	}
	failed := false
	for _, r := range rep.FormMix {
		for code, n := range r.Non200 {
			fmt.Fprintf(os.Stderr, "sppload: form-mix %s: %d responses with status %d\n", r.Form, n, code)
			failed = true
		}
	}
	if bestMatches != keys-autoErrs {
		fmt.Fprintf(os.Stderr, "sppload: form-mix: %d/%d auto races missed the best explicit cost\n",
			keys-autoErrs-bestMatches, keys-autoErrs)
		failed = true
	}
	if failed {
		os.Exit(1)
	}
}

// --- edit-loop scenario -------------------------------------------------

type editResult struct {
	Scenario string `json:"scenario"`
	Mode     string `json:"mode"`
	Clients  int    `json:"clients"`
	// Edits is the total number of edit steps across all clients (the
	// initial full submissions are excluded from the latencies).
	Edits int `json:"edits"`
	EditK int `json:"edit_k"`

	ElapsedMS float64 `json:"elapsed_ms"`
	EditsPerS float64 `json:"edits_per_s"`
	P50MS     float64 `json:"p50_ms"`
	P99MS     float64 `json:"p99_ms"`

	DeltaWarm     int64 `json:"delta_warm"`
	DeltaCold     int64 `json:"delta_cold_fallback"`
	DeltaBaseMiss int64 `json:"delta_base_miss"`
	// DeltaCoverReused / DeltaCoverResolved split the warm resumes by
	// covering outcome: served entirely from the previous cover snapshot
	// vs. partially re-solved.
	DeltaCoverReused   int64 `json:"delta_cover_reused"`
	DeltaCoverResolved int64 `json:"delta_cover_resolved"`
	CacheBytes         int64 `json:"cache_bytes"`
	// Errors counts the requests that failed, and Non200 splits them by
	// HTTP status (0 for a request that got no response); any failure
	// fails the run. BaseMissRecovered counts the 409 base misses that
	// the full re-submission answered, which are not failures.
	Errors            int64       `json:"errors"`
	Non200            map[int]int `json:"non_200,omitempty"`
	BaseMissRecovered int64       `json:"base_miss_recovered"`

	// CoverMSMean is the mean covering-phase wall time ("cover.*" phases
	// summed) per edit-phase engine run: delta resumes in warm mode, full
	// re-minimizations in cold mode. Seed submissions are excluded.
	CoverMSMean float64 `json:"cover_ms_mean"`
	// CoverRuns is how many engine runs CoverMSMean averages over.
	CoverRuns int `json:"cover_runs"`
}

type deltaReport struct {
	Schema    string            `json:"schema"`
	Generated string            `json:"generated"`
	Config    map[string]any    `json:"config"`
	Results   []editResult      `json:"results"`
	Summary   map[string]string `json:"summary"`
}

func runEditLoopScenario(out string, clients, edits, editK, nvars, onBase int, quick, assertCoverSplit bool, baseline string) {
	onSets := makeOnSets(clients, nvars, onBase, 2)
	rep := deltaReport{
		Schema:    "spp-bench-delta/v1",
		Generated: time.Now().UTC().Format(time.RFC3339),
		Config: map[string]any{
			"clients": clients,
			"edits":   edits,
			"edit_k":  editK,
			"nvars":   nvars,
			"on_base": onBase,
			"quick":   quick,
		},
		Summary: map[string]string{},
	}

	for _, warm := range []bool{false, true} {
		res := runEditLoop(warm, clients, edits, editK, nvars, onSets)
		rep.Results = append(rep.Results, res)
		fmt.Printf("edit-loop %-5s  %6.1f edits/s  p50 %6.2fms  p99 %7.2fms  cover %7.2fms/run  warm %3d (replay %d)  fallback %d  base-miss %d (recovered %d)\n",
			res.Mode, res.EditsPerS, res.P50MS, res.P99MS, res.CoverMSMean,
			res.DeltaWarm, res.DeltaCoverReused, res.DeltaCold, res.DeltaBaseMiss, res.BaseMissRecovered)
	}

	cold, warm := &rep.Results[0], &rep.Results[1]
	if warm.ElapsedMS > 0 {
		rep.Summary["edit_loop_speedup"] = fmt.Sprintf("%.2fx", cold.ElapsedMS/warm.ElapsedMS)
		rep.Summary["edit_loop_p50"] = fmt.Sprintf("%.2fms -> %.2fms", cold.P50MS, warm.P50MS)
	}
	if cold.CoverMSMean > 0 && warm.CoverMSMean > 0 {
		rep.Summary["edit_loop_cover_speedup"] = fmt.Sprintf("%.2fx", cold.CoverMSMean/warm.CoverMSMean)
		rep.Summary["edit_loop_cover_split"] = fmt.Sprintf("%.3fms -> %.3fms per run", cold.CoverMSMean, warm.CoverMSMean)
	}

	writeReport(out, rep)
	for k, v := range rep.Summary {
		fmt.Printf("summary %s = %s\n", k, v)
	}
	failed := false
	for _, res := range rep.Results {
		for code, n := range res.Non200 {
			fmt.Fprintf(os.Stderr, "sppload: edit-loop %s: %d responses with status %d\n", res.Mode, n, code)
			failed = true
		}
	}
	if failed {
		os.Exit(1)
	}
	if assertCoverSplit {
		// Regression gate: a warm resume must spend strictly less time in
		// the covering phases than a cold run of the same edit.
		switch {
		case cold.CoverMSMean <= 0 || warm.CoverMSMean <= 0:
			fmt.Fprintf(os.Stderr, "sppload: cover-split assertion failed: missing cover phase data (cold %.3fms over %d runs, warm %.3fms over %d runs)\n",
				cold.CoverMSMean, cold.CoverRuns, warm.CoverMSMean, warm.CoverRuns)
			os.Exit(1)
		case warm.CoverMSMean >= cold.CoverMSMean:
			fmt.Fprintf(os.Stderr, "sppload: cover-split assertion failed: warm cover %.3fms/run >= cold %.3fms/run\n",
				warm.CoverMSMean, cold.CoverMSMean)
			os.Exit(1)
		}
		if baseline != "" {
			// Stronger gate against the checked-in numbers: the current
			// covering speedup may not collapse below a third of the
			// recorded one (3x slack absorbs CI machine noise while still
			// catching a real regression of the incremental path).
			want, err := loadDeltaCoverSpeedup(baseline)
			if err != nil {
				fmt.Fprintln(os.Stderr, "sppload: baseline:", err)
				os.Exit(1)
			}
			got := cold.CoverMSMean / warm.CoverMSMean
			if floor := want / 3; got < floor {
				fmt.Fprintf(os.Stderr, "sppload: cover-split assertion failed: speedup %.2fx below floor %.2fx (baseline %.2fx / 3)\n",
					got, floor, want)
				os.Exit(1)
			}
		}
	}
}

// loadDeltaCoverSpeedup reads the cold/warm covering speedup out of a
// checked-in spp-bench-delta/v1 report.
func loadDeltaCoverSpeedup(path string) (float64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	var rep deltaReport
	if err := json.Unmarshal(data, &rep); err != nil {
		return 0, err
	}
	if rep.Schema != "spp-bench-delta/v1" {
		return 0, fmt.Errorf("%s: schema %q, want spp-bench-delta/v1", path, rep.Schema)
	}
	var cold, warm *editResult
	for i := range rep.Results {
		switch rep.Results[i].Mode {
		case "cold":
			cold = &rep.Results[i]
		case "warm":
			warm = &rep.Results[i]
		}
	}
	if cold == nil || warm == nil || warm.CoverMSMean <= 0 {
		return 0, fmt.Errorf("%s: no usable cold/warm cover data", path)
	}
	return cold.CoverMSMean / warm.CoverMSMean, nil
}

// coverSeconds sums the wall time of the covering phases ("cover.*")
// in one run report.
func coverSeconds(rep *stats.Report) float64 {
	var s float64
	for _, p := range rep.Phases {
		if strings.HasPrefix(p.Phase, "cover.") {
			s += p.Seconds
		}
	}
	return s
}

// editCoverStats aggregates the per-run covering time over the
// edit-phase engine runs in the /statsz history: delta resumes in warm
// mode, everything after the per-client seed submissions in cold mode.
func editCoverStats(st service.Statsz, warm bool, clients int) (runs int, meanMS float64) {
	if st.Runs == nil {
		return 0, 0
	}
	var total float64
	for i, rep := range st.Runs.Reports {
		if warm {
			if !strings.HasSuffix(rep.Name, "/delta") {
				continue
			}
		} else if i < clients { // seed submissions, untimed setup
			continue
		}
		total += coverSeconds(rep)
		runs++
	}
	if runs == 0 {
		return 0, 0
	}
	return runs, total * 1000 / float64(runs)
}

// runEditLoop walks every client's function through `edits` random
// steps of editK minterm changes. Both modes replay identical edit
// scripts (same per-client seeds); only the request shape differs:
// warm mode chains deltas on base_key, cold mode re-submits the full
// ON set. Only the edit steps are timed.
func runEditLoop(warm bool, clients, edits, editK, nvars int, onSets [][]int) editResult {
	cfg := service.Config{
		Core:          harness.DefaultConfig(),
		MaxConcurrent: clients,
		CacheSize:     4096,
		// Big enough for every client's current warm chain head with
		// room to spare; old generations get evicted, keeping the live
		// heap (and so GC pressure) bounded during long walks.
		CacheBytes: 512 << 20,
		WarmCache:  warm,
		// Retain every engine run of the scenario (seeds + edits + a few
		// cold fallbacks) so the cover-phase split can be aggregated from
		// the /statsz history afterwards.
		HistorySize: clients*(edits+2) + 8,
	}
	srv := service.New(cfg)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := &http.Client{}

	mode := "cold"
	if warm {
		mode = "warm"
	}

	var mu sync.Mutex
	var lats []time.Duration
	non200 := map[int]int{}
	var recovered int64
	// All clients submit their base function up front (untimed in both
	// modes — it is setup, not part of the edit loop), then rendezvous
	// so the timer covers exactly the edit phase.
	var seeded sync.WaitGroup
	seeded.Add(clients)
	begin := make(chan struct{})
	var start time.Time
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(c + 1)))
			on := make(map[int]bool, len(onSets[c]))
			for _, p := range onSets[c] {
				on[p] = true
			}
			space := 1 << nvars

			// Initial full submission; in warm mode it seeds the warm
			// state and yields the base_key to chain on.
			_, code, resp := postResp(client, ts.URL, fullBody(nvars, on))
			seeded.Done()
			if code != http.StatusOK {
				mu.Lock()
				non200[code]++
				mu.Unlock()
				return
			}
			base := resp.BaseKey
			<-begin

			for i := 0; i < edits; i++ {
				var adds, removes []int
				for j := 0; j < editK; j++ {
					if j%2 == 0 { // add a random OFF point
						for {
							p := rng.Intn(space)
							if !on[p] {
								on[p] = true
								adds = append(adds, p)
								break
							}
						}
					} else { // remove a random ON point
						var pts []int
						for p := range on {
							pts = append(pts, p)
						}
						sort.Ints(pts)
						// Not one this step added: a delta that both adds
						// and removes a point is a 400. Redrawing leaves
						// every other step's script as it was.
						p := pts[rng.Intn(len(pts))]
						for slices.Contains(adds, p) {
							p = pts[rng.Intn(len(pts))]
						}
						delete(on, p)
						removes = append(removes, p)
					}
				}

				var body string
				if warm {
					body = deltaBody(base, adds, removes)
				} else {
					body = fullBody(nvars, on)
				}
				d, code, resp := postResp(client, ts.URL, body)
				resubmitted := false
				if warm && code == http.StatusConflict {
					// Base evicted: fall back to a full submission and
					// resume chaining from its key.
					d2, code2, resp2 := postResp(client, ts.URL, fullBody(nvars, on))
					d, code, resp = d+d2, code2, resp2
					resubmitted = true
				}
				mu.Lock()
				lats = append(lats, d)
				switch {
				case code != http.StatusOK:
					non200[code]++
				case resubmitted:
					recovered++
				}
				mu.Unlock()
				if warm && resp.BaseKey != "" {
					base = resp.BaseKey
				}
			}
		}(c)
	}
	seeded.Wait()
	start = time.Now()
	close(begin)
	wg.Wait()
	elapsed := time.Since(start)

	resp, err := http.Get(ts.URL + "/statsz")
	if err != nil {
		panic(err)
	}
	defer resp.Body.Close()
	var st service.Statsz
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		panic(err)
	}

	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	pct := func(p float64) float64 {
		if len(lats) == 0 {
			return 0
		}
		i := min(int(p*float64(len(lats))), len(lats)-1)
		return float64(lats[i].Microseconds()) / 1000
	}
	var errs int64
	for _, n := range non200 {
		errs += int64(n)
	}
	coverRuns, coverMean := editCoverStats(st, warm, clients)
	debugPhaseMeans(st, warm, clients, mode)
	return editResult{
		Scenario:           "edit-loop",
		Mode:               mode,
		Clients:            clients,
		Edits:              len(lats),
		EditK:              editK,
		ElapsedMS:          float64(elapsed.Microseconds()) / 1000,
		EditsPerS:          float64(len(lats)) / elapsed.Seconds(),
		P50MS:              pct(0.50),
		P99MS:              pct(0.99),
		DeltaWarm:          st.DeltaWarm,
		DeltaCold:          st.DeltaCold,
		DeltaBaseMiss:      st.DeltaBaseMiss,
		DeltaCoverReused:   st.DeltaCoverReused,
		DeltaCoverResolved: st.DeltaCoverResolved,
		CacheBytes:         st.CacheBytes,
		Errors:             errs,
		Non200:             non200,
		BaseMissRecovered:  recovered,
		CoverMSMean:        coverMean,
		CoverRuns:          coverRuns,
	}
}

// makeOnSets builds count pairwise P-inequivalent pseudo-random ON
// sets (distinct sizes), as int slices, mirroring makeBodies.
func makeOnSets(count, nvars, onBase, onStep int) [][]int {
	rng := rand.New(rand.NewSource(7))
	space := 1 << nvars
	sets := make([][]int, count)
	for i := range sets {
		size := onBase + i*onStep
		if size > space/2 {
			size = space / 2
		}
		seen := make(map[int]bool)
		for len(sets[i]) < size {
			p := rng.Intn(space)
			if !seen[p] {
				seen[p] = true
				sets[i] = append(sets[i], p)
			}
		}
	}
	return sets
}

func fullBody(nvars int, on map[int]bool) string {
	pts := make([]int, 0, len(on))
	for p := range on {
		pts = append(pts, p)
	}
	sort.Ints(pts)
	strs := make([]string, len(pts))
	for i, p := range pts {
		strs[i] = fmt.Sprint(p)
	}
	return fmt.Sprintf(`{"n":%d,"on":[%s]}`, nvars, strings.Join(strs, ","))
}

func deltaBody(base string, adds, removes []int) string {
	j := func(pts []int) string {
		strs := make([]string, len(pts))
		for i, p := range pts {
			strs[i] = fmt.Sprint(p)
		}
		return "[" + strings.Join(strs, ",") + "]"
	}
	return fmt.Sprintf(`{"base":%q,"add":%s,"remove":%s}`, base, j(adds), j(removes))
}

// postResp posts a body and decodes the JSON response envelope.
func postResp(client *http.Client, url, body string) (time.Duration, int, service.Response) {
	start := time.Now()
	resp, err := client.Post(url+"/v1/minimize", "application/json", strings.NewReader(body))
	if err != nil {
		return time.Since(start), 0, service.Response{}
	}
	defer resp.Body.Close()
	var r service.Response
	_ = json.NewDecoder(resp.Body).Decode(&r)
	io.Copy(io.Discard, resp.Body)
	return time.Since(start), resp.StatusCode, r
}

// debugPhaseMeans prints per-phase mean milliseconds over the selected
// edit-phase runs when SPPLOAD_DEBUG_PHASES is set.
func debugPhaseMeans(st service.Statsz, warm bool, clients int, mode string) {
	if os.Getenv("SPPLOAD_DEBUG_PHASES") == "" || st.Runs == nil {
		return
	}
	sums := map[string]float64{}
	runs := 0
	for i, rep := range st.Runs.Reports {
		if warm {
			if !strings.HasSuffix(rep.Name, "/delta") {
				continue
			}
		} else if i < clients {
			continue
		}
		runs++
		for _, p := range rep.Phases {
			sums[p.Phase] += p.Seconds
		}
	}
	fmt.Printf("DEBUG %s: %d runs\n", mode, runs)
	for k, v := range sums {
		fmt.Printf("DEBUG   %-16s %8.3f ms/run\n", k, v*1000/float64(runs))
	}
}
