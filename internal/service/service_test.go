package service

import (
	"context"
	"encoding/json"
	"fmt"
	"math/bits"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/bfunc"
	"repro/internal/bitvec"
	"repro/internal/core"
	"repro/internal/harness"
)

func testConfig() Config {
	return Config{
		Core: harness.Config{
			PerOutput:     10 * time.Second,
			MaxCandidates: 1_000_000,
			CoverWorkers:  1,
		},
		MaxConcurrent:  2,
		DefaultTimeout: 10 * time.Second,
		MaxTimeout:     20 * time.Second,
	}
}

func post(t testing.TB, h http.Handler, body string) (int, string) {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/v1/minimize", strings.NewReader(body))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w.Code, w.Body.String()
}

func get(t testing.TB, h http.Handler, path string) (int, string) {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w.Code, w.Body.String()
}

func decodeResp(t testing.TB, body string) Response {
	t.Helper()
	var r Response
	if err := json.Unmarshal([]byte(body), &r); err != nil {
		t.Fatalf("bad response JSON: %v\n%s", err, body)
	}
	return r
}

// oddParity is the n-variable odd-parity ON-set: a one-pseudoproduct
// SPP form, so requests stay fast.
func oddParity(n int) []uint64 {
	var on []uint64
	for p := uint64(0); p < 1<<uint(n); p++ {
		if bits.OnesCount64(p)%2 == 1 {
			on = append(on, p)
		}
	}
	return on
}

func pointsJSON(pts []uint64) string {
	parts := make([]string, len(pts))
	for i, p := range pts {
		parts[i] = fmt.Sprint(p)
	}
	return "[" + strings.Join(parts, ",") + "]"
}

func TestMinimizeSingleAndCacheHit(t *testing.T) {
	s := New(testConfig())
	h := s.Handler()
	body := fmt.Sprintf(`{"n":4,"on":%s}`, pointsJSON(oddParity(4)))

	code, out := post(t, h, body)
	if code != http.StatusOK {
		t.Fatalf("cold: status %d: %s", code, out)
	}
	cold := decodeResp(t, out)
	if cold.Cached {
		t.Error("first request claims cached")
	}
	if cold.Literals != 4 || cold.NumTerms != 1 {
		t.Errorf("odd parity minimized to %d literals / %d terms, want 4/1 (%s)",
			cold.Literals, cold.NumTerms, cold.Form)
	}

	code, out = post(t, h, body)
	if code != http.StatusOK {
		t.Fatalf("warm: status %d: %s", code, out)
	}
	warm := decodeResp(t, out)
	if !warm.Cached {
		t.Error("repeat request missed the cache")
	}
	if warm.Form != cold.Form || warm.Literals != cold.Literals {
		t.Errorf("cached result differs: %q vs %q", warm.Form, cold.Form)
	}
}

// TestMinimizePermutedEquivalentHit: a function that differs from a
// previous request only by an input permutation must hit the cache,
// and the returned form must realize the *permuted* function.
func TestMinimizePermutedEquivalentHit(t *testing.T) {
	s := New(testConfig())
	h := s.Handler()

	// Asymmetric function so the permutation genuinely moves points.
	on := []uint64{0b0001, 0b0011, 0b0111, 0b1111, 0b1000}
	code, out := post(t, h, fmt.Sprintf(`{"n":4,"on":%s}`, pointsJSON(on)))
	if code != http.StatusOK {
		t.Fatalf("cold: status %d: %s", code, out)
	}

	// Permute x0<->x3, x1<->x2 (bit reversal over 4 bits).
	perm := []int{3, 2, 1, 0}
	pon := make([]uint64, len(on))
	for i, p := range on {
		pon[i] = bitvec.PermutePoint(p, 4, perm)
	}
	code, out = post(t, h, fmt.Sprintf(`{"n":4,"on":%s}`, pointsJSON(pon)))
	if code != http.StatusOK {
		t.Fatalf("permuted: status %d: %s", code, out)
	}
	res := decodeResp(t, out)
	if !res.Cached {
		t.Error("permuted-equivalent request missed the cache")
	}
	form, err := core.ParseForm(4, res.Form)
	if err != nil {
		t.Fatalf("returned form does not parse: %v\n%q", err, res.Form)
	}
	if err := form.Verify(bfunc.New(4, pon)); err != nil {
		t.Errorf("cached form does not realize the permuted function: %v", err)
	}
}

func TestMinimizeBatch(t *testing.T) {
	s := New(testConfig())
	h := s.Handler()
	on := pointsJSON(oddParity(3))
	body := fmt.Sprintf(`{"requests":[{"n":3,"on":%s},{"n":3,"on":%s},{"n":3,"on":[1,2]}]}`, on, on)
	code, out := post(t, h, body)
	if code != http.StatusOK {
		t.Fatalf("batch: status %d: %s", code, out)
	}
	var br batchResponse
	if err := json.Unmarshal([]byte(out), &br); err != nil {
		t.Fatalf("bad batch JSON: %v", err)
	}
	if len(br.Results) != 3 {
		t.Fatalf("got %d results, want 3", len(br.Results))
	}
	// Items 0 and 1 are identical; with concurrent batch workers either
	// one may lead the computation, but exactly one computes and the
	// other is served from its flight or the cache.
	if br.Results[0].Cached == br.Results[1].Cached {
		t.Errorf("duplicate items: cached = %v/%v, want exactly one computed",
			br.Results[0].Cached, br.Results[1].Cached)
	}
	if br.Results[0].Form != br.Results[1].Form {
		t.Error("duplicate items disagree on the form")
	}
	if br.Results[2].Cached || br.Results[2].Form == br.Results[0].Form {
		t.Error("distinct batch item wrongly shared a result")
	}
	for i, r := range br.Results {
		if r.Error != "" {
			t.Errorf("item %d errored: %s", i, r.Error)
		}
	}

	// One batch worker and one cache shard (the edit-loop benchmark's
	// server): items run strictly in order, so the duplicate is a plain
	// cache hit of the first item's compute.
	t.Run("serial", func(t *testing.T) {
		cfg := testConfig()
		cfg.BatchWorkers, cfg.CacheShards = 1, 1
		h := New(cfg).Handler()
		code, out := post(t, h, fmt.Sprintf(`{"requests":[{"n":3,"on":%s},{"n":3,"on":%s}]}`, on, on))
		if code != http.StatusOK {
			t.Fatalf("serial batch: status %d: %s", code, out)
		}
		var br batchResponse
		if err := json.Unmarshal([]byte(out), &br); err != nil {
			t.Fatalf("bad batch JSON: %v", err)
		}
		if br.Results[0].Cached || br.Results[0].Coalesced {
			t.Errorf("serial first item: %+v, want fresh", br.Results[0])
		}
		if !br.Results[1].Cached || br.Results[1].Coalesced {
			t.Errorf("serial duplicate item: cached=%v coalesced=%v, want a cache hit",
				br.Results[1].Cached, br.Results[1].Coalesced)
		}
		st := statszOf(t, h)
		if st.CacheShards != 1 {
			t.Errorf("cache shards = %d, want 1", st.CacheShards)
		}
		if st.CoalesceWaiters != 0 || st.Served != 2 || st.CacheHits != 1 || st.CacheMisses != 1 {
			t.Errorf("serial statsz = %+v", st)
		}
	})
}

func TestMinimizeDeadline504(t *testing.T) {
	s := New(testConfig())
	// Hold the request until its deadline has passed, then let the
	// pipeline see the expired context.
	s.testHookAfterAcquire = func(ctx context.Context) { <-ctx.Done() }
	h := s.Handler()
	body := fmt.Sprintf(`{"n":4,"on":%s,"timeout_ms":50}`, pointsJSON(oddParity(4)))
	start := time.Now()
	code, out := post(t, h, body)
	if code != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504: %s", code, out)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("deadline honored only after %v", elapsed)
	}
	res := decodeResp(t, out)
	if res.Error == "" {
		t.Error("504 response carries no error message")
	}
}

// TestMinimizeSinglePointManyVars: regression for the fcache tie-break
// budget bypass — {"n":13,"on":[0]} used to enumerate 13! variable
// orderings inside its admission slot, wedging the server. It must now
// answer promptly.
func TestMinimizeSinglePointManyVars(t *testing.T) {
	s := New(testConfig())
	h := s.Handler()
	start := time.Now()
	code, out := post(t, h, `{"n":13,"on":[0]}`)
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, out)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("single-point request took %v; tie-break budget not enforced", elapsed)
	}
	if res := decodeResp(t, out); res.NumTerms != 1 {
		t.Errorf("single-minterm function minimized to %d terms: %s", res.NumTerms, res.Form)
	}
}

func TestMinimizeBodyTooLarge(t *testing.T) {
	cfg := testConfig()
	cfg.MaxBodyBytes = 256
	s := New(cfg)
	h := s.Handler()
	code, out := post(t, h, fmt.Sprintf(`{"n":8,"on":%s}`, pointsJSON(oddParity(8))))
	if code != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413: %s", code, out)
	}
	if res := decodeResp(t, out); res.Error == "" {
		t.Error("413 response carries no error message")
	}
	// A request that fits still works.
	if code, out := post(t, h, `{"n":3,"on":[1,2,4,7]}`); code != http.StatusOK {
		t.Errorf("small request after 413: status %d: %s", code, out)
	}
}

func TestMinimizeBatchTooLarge(t *testing.T) {
	cfg := testConfig()
	cfg.MaxBatch = 2
	s := New(cfg)
	h := s.Handler()
	item := fmt.Sprintf(`{"n":3,"on":%s}`, pointsJSON(oddParity(3)))
	body := fmt.Sprintf(`{"requests":[%s,%s,%s]}`, item, item, item)
	code, out := post(t, h, body)
	if code != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413: %s", code, out)
	}
	var br batchResponse
	if err := json.Unmarshal([]byte(out), &br); err != nil {
		t.Fatalf("oversized-batch error is not batch-shaped: %v\n%s", err, out)
	}
	if br.Error == "" || len(br.Results) != 0 {
		t.Errorf("batch error envelope = %+v", br)
	}
	if !strings.Contains(out, `"results"`) {
		t.Errorf("batch error response missing results key: %s", out)
	}
	if code, _ := post(t, h, fmt.Sprintf(`{"requests":[%s,%s]}`, item, item)); code != http.StatusOK {
		t.Errorf("batch at the limit refused: status %d", code)
	}
}

// TestQueueDeadlineDoesNotLeakSlot: a request that times out while
// waiting for admission must not consume a slot — afterwards the full
// gate width is still available.
func TestQueueDeadlineDoesNotLeakSlot(t *testing.T) {
	cfg := testConfig()
	cfg.MaxConcurrent = 1
	s := New(cfg)
	gate := make(chan struct{})
	s.testHookAfterAcquire = func(ctx context.Context) {
		select {
		case <-gate:
		case <-ctx.Done():
		}
	}
	h := s.Handler()
	body := fmt.Sprintf(`{"n":3,"on":%s}`, pointsJSON(oddParity(3)))

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if code, out := post(t, h, body); code != http.StatusOK {
			t.Errorf("slot holder: status %d: %s", code, out)
		}
	}()
	// Wait until the slot is taken.
	for i := 0; len(s.slots) == 0 && i < 1000; i++ {
		time.Sleep(time.Millisecond)
	}
	if len(s.slots) != 1 {
		t.Fatal("slot holder never acquired")
	}

	code, out := post(t, h, fmt.Sprintf(`{"n":3,"on":%s,"timeout_ms":50}`, pointsJSON(oddParity(3))))
	if code != http.StatusGatewayTimeout {
		t.Fatalf("queued request: status %d, want 504: %s", code, out)
	}

	close(gate)
	wg.Wait()
	if code, out := post(t, h, body); code != http.StatusOK {
		t.Fatalf("post-timeout request: status %d (slot leaked?): %s", code, out)
	}
	if got := len(s.slots); got != 0 {
		t.Errorf("slots in use after drain: %d", got)
	}
}

// TestBatchQueueTimeoutShape: batch items that expire before being
// served fail inside the HTTP-200 batch envelope, item by item — a
// deadline is a per-item outcome now, not a whole-batch one. Two
// flavors with one saturated slot: an item identical to the in-flight
// request joins its flight and detaches on its own deadline; a distinct
// item times out waiting for the admission slot.
func TestBatchQueueTimeoutShape(t *testing.T) {
	cfg := testConfig()
	cfg.MaxConcurrent = 1
	s := New(cfg)
	gate := make(chan struct{})
	s.testHookAfterAcquire = func(ctx context.Context) {
		select {
		case <-gate:
		case <-ctx.Done():
		}
	}
	h := s.Handler()
	on := pointsJSON(oddParity(3))

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		post(t, h, fmt.Sprintf(`{"n":3,"on":%s}`, on))
	}()
	defer func() { close(gate); wg.Wait() }()
	for i := 0; len(s.slots) == 0 && i < 1000; i++ {
		time.Sleep(time.Millisecond)
	}
	if len(s.slots) != 1 {
		t.Fatal("slot holder never acquired")
	}

	body := fmt.Sprintf(`{"requests":[{"n":3,"on":%s,"timeout_ms":50},{"n":3,"on":[1,2],"timeout_ms":50}]}`, on)
	code, out := post(t, h, body)
	if code != http.StatusOK {
		t.Fatalf("batch with expiring items: status %d, want 200 envelope: %s", code, out)
	}
	var br batchResponse
	if err := json.Unmarshal([]byte(out), &br); err != nil {
		t.Fatalf("bad batch JSON: %v\n%s", err, out)
	}
	if br.Error != "" || len(br.Results) != 2 {
		t.Fatalf("batch envelope = %+v, want 2 per-item results and no batch error", br)
	}
	if e := br.Results[0].Error; !strings.Contains(e, "coalesced wait") || !strings.Contains(e, "deadline") {
		t.Errorf("duplicate item error = %q, want coalesced-wait deadline", e)
	}
	if e := br.Results[1].Error; !strings.Contains(e, "queue wait") || !strings.Contains(e, "deadline") {
		t.Errorf("distinct item error = %q, want queue-wait deadline", e)
	}
}

// TestGracefulShutdownDrains: Shutdown must refuse new work (via the
// draining flag) yet complete the in-flight request.
func TestGracefulShutdownDrains(t *testing.T) {
	s := New(testConfig())
	gate := make(chan struct{})
	s.testHookAfterAcquire = func(ctx context.Context) {
		select {
		case <-gate:
		case <-ctx.Done():
		}
	}
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	body := fmt.Sprintf(`{"n":3,"on":%s}`, pointsJSON(oddParity(3)))
	type result struct {
		code int
		err  error
	}
	inflight := make(chan result, 1)
	go func() {
		resp, err := http.Post(srv.URL+"/v1/minimize", "application/json", strings.NewReader(body))
		if err != nil {
			inflight <- result{err: err}
			return
		}
		resp.Body.Close()
		inflight <- result{code: resp.StatusCode}
	}()
	for i := 0; len(s.slots) == 0 && i < 1000; i++ {
		time.Sleep(time.Millisecond)
	}

	s.SetDraining(true)
	resp, err := http.Post(srv.URL+"/v1/minimize", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining server accepted new work: status %d", resp.StatusCode)
	}

	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutdownDone <- srv.Config.Shutdown(ctx)
	}()
	time.Sleep(20 * time.Millisecond) // let Shutdown begin draining
	close(gate)

	r := <-inflight
	if r.err != nil {
		t.Fatalf("in-flight request failed during shutdown: %v", r.err)
	}
	if r.code != http.StatusOK {
		t.Fatalf("in-flight request got status %d during shutdown", r.code)
	}
	if err := <-shutdownDone; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
}

func TestStatszAndHealthz(t *testing.T) {
	s := New(testConfig())
	h := s.Handler()
	body := fmt.Sprintf(`{"n":4,"on":%s}`, pointsJSON(oddParity(4)))
	post(t, h, body)
	post(t, h, body)

	code, out := get(t, h, "/healthz")
	if code != http.StatusOK || !strings.Contains(out, `"ok"`) {
		t.Fatalf("healthz: %d %s", code, out)
	}

	code, out = get(t, h, "/statsz")
	if code != http.StatusOK {
		t.Fatalf("statsz: status %d", code)
	}
	var st Statsz
	if err := json.Unmarshal([]byte(out), &st); err != nil {
		t.Fatalf("bad statsz JSON: %v", err)
	}
	if st.Served != 2 {
		t.Errorf("served = %d, want 2", st.Served)
	}
	if st.CacheHits != 1 || st.CacheMisses != 1 {
		t.Errorf("cache hits/misses = %d/%d, want 1/1", st.CacheHits, st.CacheMisses)
	}
	if st.Runs == nil || len(st.Runs.Reports) != 1 {
		t.Fatalf("statsz run history: %+v", st.Runs)
	}
	if st.Runs.Schema != "spp-stats-run/v1" {
		t.Errorf("run schema = %q", st.Runs.Schema)
	}
	if rep := st.Runs.Reports[0]; rep.Schema != "spp-stats/v1" || len(rep.Phases) == 0 {
		t.Errorf("cold-run report missing phases: %+v", rep)
	}
}

// TestMinimizeStatsInResponse: every form's fresh compute embeds its
// run's spp-stats/v1 report when asked; a repeat is a cache hit that
// ran nothing and carries none.
func TestMinimizeStatsInResponse(t *testing.T) {
	body := func(form string) string {
		return fmt.Sprintf(`{"n":4,"on":%s,"form":%q,"stats":true}`, pointsJSON(oddParity(4)), form)
	}
	for _, form := range []string{"spp", "sop", "esop", "dsop", "auto"} {
		t.Run(form, func(t *testing.T) {
			h := New(testConfig()).Handler()
			code, out := post(t, h, body(form))
			if code != http.StatusOK {
				t.Fatalf("status %d: %s", code, out)
			}
			if res := decodeResp(t, out); res.Cached || res.Stats == nil || res.Stats.Schema != "spp-stats/v1" {
				t.Fatalf("fresh response: cached=%v stats=%+v, want a spp-stats/v1 report", res.Cached, res.Stats)
			}
			code, out = post(t, h, body(form))
			if code != http.StatusOK {
				t.Fatalf("repeat: status %d: %s", code, out)
			}
			if res := decodeResp(t, out); !res.Cached || res.Stats != nil {
				t.Fatalf("repeat response: cached=%v stats=%+v, want a cache hit without a report", res.Cached, res.Stats)
			}
		})
	}
}

// TestCacheKeyPin pins the key and base_key spellings that journaled
// jobs and clients' chained deltas depend on: a served key must never
// drift across a refactor of the serving path. Each request runs twice
// on a fresh warm server, so the computed and the cached response are
// both checked.
func TestCacheKeyPin(t *testing.T) {
	const (
		parity3Key  = "8ae26ed5d4b1521fdf7ff7b18b66148f8db8eb97efda6d76a3f52f9ce6091ce9"
		parity3Base = "2944a7c6dfb3c2e3f5ca61b04ad16ed72be2e8a4a2a1b0b942ace84ea9effc43"
		exactKey    = "4727624483e69a76429fcaed54b9265a7b2ab20c05852a3f9f7f197d11235832"
		exactBase   = "dd8b03b5365fa550dc53bb3efae32feacf8f93b7d70b0d68b11bf2c4b334db68"
		sppkKey     = "d9839861d13780e809cbe3ee6cf03bce8bdfb40d4a468ca986376495101de038"
		naiveKey    = "8675965461aeaa946d106676294389094cd44748efd83e9042a14497a88f0910"
		xcfcKey     = "058c40fe3b3fb1d0c9fa7a3328acf1dd829487951c718ae9d936eb24958af103"
		xcfcBase    = "232cedbbd730c077cdcc1b55842789b9a9db7e4e13a8145874e6114c15757417"
		sopKey      = "b6859a75bb058bb50e526d808e15752fbd6d694c69ea3db2464878cc7a08bf6f"
	)
	const on8 = `"n":4,"on":[1,2,4,7,8,11,13,14]`
	cases := []struct {
		body, key, baseKey string
	}{
		{`{"n":3,"on":[1,2,4,7]}`, parity3Key, parity3Base},
		{`{` + on8 + `}`, exactKey, exactBase},
		{`{` + on8 + `,"k":2}`, exactKey, exactBase},
		{`{` + on8 + `,"form":"auto"}`, exactKey, ""},
		{`{` + on8 + `,"algorithm":"sppk","k":1}`, sppkKey, ""},
		{`{` + on8 + `,"algorithm":"spp_k","k":1}`, sppkKey, ""},
		{`{` + on8 + `,"algorithm":"naive"}`, naiveKey, ""},
		{`{` + on8 + `,"exact_cover":true,"factor_cost":true}`, xcfcKey, xcfcBase},
		{`{` + on8 + `,"form":"sop"}`, sopKey, ""},
	}
	for _, tc := range cases {
		cfg := testConfig()
		cfg.WarmCache = true
		h := New(cfg).Handler()
		for _, pass := range []string{"computed", "cached"} {
			code, out := post(t, h, tc.body)
			if code != http.StatusOK {
				t.Fatalf("%s %s: status %d: %s", tc.body, pass, code, out)
			}
			r := decodeResp(t, out)
			if r.Cached != (pass == "cached") {
				t.Errorf("%s %s: cached = %v", tc.body, pass, r.Cached)
			}
			if r.Key != tc.key || r.BaseKey != tc.baseKey {
				t.Errorf("%s %s:\n  key      %s\n  want     %s\n  base_key %q\n  want     %q",
					tc.body, pass, r.Key, tc.key, r.BaseKey, tc.baseKey)
			}
		}
	}
}

func TestMinimizeBadRequests(t *testing.T) {
	s := New(testConfig())
	h := s.Handler()
	cases := []struct {
		name, body string
	}{
		{"unknown field", `{"n":3,"on":[1],"frobnicate":true}`},
		{"two sources", `{"n":3,"on":[1],"bench":"adr4"}`},
		{"no source", `{}`},
		{"empty batch", `{"requests":[]}`},
		{"point out of range", `{"n":3,"on":[8]}`},
		{"empty on", `{"n":3,"on":[]}`},
		{"bad algorithm", `{"n":3,"on":[1],"algorithm":"magic"}`},
		{"k out of range", `{"n":3,"on":[1],"algorithm":"sppk","k":7}`},
		{"unknown bench", `{"bench":"no-such-bench"}`},
		{"bad output", `{"bench":"adr4","output":99}`},
		{"n too large", `{"n":40,"on":[1]}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, out := post(t, h, tc.body)
			if code != http.StatusBadRequest {
				t.Errorf("status %d, want 400: %s", code, out)
			}
		})
	}
	if code, _ := get(t, h, "/v1/minimize"); code != http.StatusMethodNotAllowed {
		t.Errorf("GET minimize: %d, want 405", code)
	}
}

func TestMinimizeBenchSource(t *testing.T) {
	s := New(testConfig())
	h := s.Handler()
	code, out := post(t, h, `{"bench":"adr4","output":0}`)
	if code != http.StatusOK {
		t.Fatalf("bench request: status %d: %s", code, out)
	}
	res := decodeResp(t, out)
	if res.Literals == 0 || res.Form == "" {
		t.Errorf("bench result empty: %+v", res)
	}
}

// TestCanonInexactCounter: add6 output 6 has 10!·2 tie-break
// candidates over 2,048 points, past the canonicalization work budget,
// so a permuted request for it counts in canon_inexact (and in its ftdc
// column). amd output 0, which the class refinement alone resolves,
// does not.
func TestCanonInexactCounter(t *testing.T) {
	s := New(testConfig())
	h := s.Handler()
	f := bench.MustLoad("add6").Output(6)
	perm := []int{11, 0, 10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	on := make([]uint64, f.OnCount())
	for i, p := range f.On() {
		on[i] = bitvec.PermutePoint(p, f.N(), perm)
	}
	for _, c := range []struct {
		body string
		want int64
	}{
		{fmt.Sprintf(`{"n":%d,"on":%s,"algorithm":"sppk","k":0}`, f.N(), pointsJSON(on)), 1},
		{`{"bench":"amd","output":0,"algorithm":"sppk","k":0}`, 1},
	} {
		if code, out := post(t, h, c.body); code != http.StatusOK {
			t.Fatalf("status %d: %s", code, out)
		}
		if got := statszOf(t, h).CanonInexact; got != c.want {
			t.Errorf("canon_inexact = %d, want %d", got, c.want)
		}
	}
	names, values := s.telemetrySample()
	for i, name := range names {
		if name == "canon.inexact" && values[i] != 1 {
			t.Errorf("ftdc canon.inexact = %d, want 1", values[i])
		}
	}
	if !slices.Contains(names, "canon.inexact") {
		t.Error("ftdc sample has no canon.inexact column")
	}
}
