package service

import (
	"context"
	"encoding/json"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/bfunc"
	"repro/internal/bitvec"
	"repro/internal/core"
	"repro/internal/fcache"
)

func warmConfig() Config {
	cfg := testConfig()
	cfg.WarmCache = true
	return cfg
}

func TestDeltaUnknownBase409(t *testing.T) {
	s := New(warmConfig())
	h := s.Handler()
	unknown := strings.Repeat("ab", 32)
	code, body := post(t, h, fmt.Sprintf(`{"base":%q,"add":[0]}`, unknown))
	if code != 409 {
		t.Fatalf("status = %d, want 409\n%s", code, body)
	}
	r := decodeResp(t, body)
	if r.Code != "cold_run_required" {
		t.Fatalf("code = %q, want cold_run_required\n%s", r.Code, body)
	}
	if r.Error == "" {
		t.Fatal("expected a human-readable error alongside the code")
	}
}

func TestDeltaWarmCacheDisabled409(t *testing.T) {
	s := New(testConfig()) // WarmCache off
	h := s.Handler()
	code, body := post(t, h, fmt.Sprintf(`{"base":%q,"add":[0]}`, strings.Repeat("00", 32)))
	if code != 409 {
		t.Fatalf("status = %d, want 409\n%s", code, body)
	}
	if r := decodeResp(t, body); r.Code != "cold_run_required" {
		t.Fatalf("code = %q, want cold_run_required", r.Code)
	}
}

func TestDeltaBadRequests(t *testing.T) {
	s := New(warmConfig())
	h := s.Handler()

	// Seed a real base to exercise the post-lookup validations.
	code, body := post(t, h, fmt.Sprintf(`{"n":5,"on":%s}`, pointsJSON(oddParity(5))))
	if code != 200 {
		t.Fatalf("seed: status %d\n%s", code, body)
	}
	base := decodeResp(t, body).BaseKey
	if base == "" {
		t.Fatal("warm server must advertise base_key on a computed response")
	}

	// The token is the state key, a dot, and one hex byte per variable.
	key, perm := base[:64], base[65:]
	cases := []struct {
		name, body string
	}{
		{"malformed key", `{"base":"zz","add":[0]}`},
		{"non-hex permutation", fmt.Sprintf(`{"base":"%s.%s","add":[0]}`, key, strings.Repeat("z", len(perm)))},
		{"permutation too short", fmt.Sprintf(`{"base":"%s.%s","add":[0]}`, key, perm[2:])},
		{"repeated variable", fmt.Sprintf(`{"base":"%s.%s","add":[0]}`, key, strings.Repeat("00", 5))},
		{"bare state key", fmt.Sprintf(`{"base":%q,"add":[0]}`, key)},
		{"function source too", fmt.Sprintf(`{"base":%q,"n":5,"on":[1],"add":[0]}`, base)},
		{"no_cache", fmt.Sprintf(`{"base":%q,"add":[0],"no_cache":true}`, base)},
		{"wrong algorithm", fmt.Sprintf(`{"base":%q,"add":[0],"algorithm":"naive"}`, base)},
		{"option mismatch", fmt.Sprintf(`{"base":%q,"add":[0],"exact_cover":true}`, base)},
		{"point out of range", fmt.Sprintf(`{"base":%q,"add":[32]}`, base)},
		{"add already ON", fmt.Sprintf(`{"base":%q,"add":[1]}`, base)},
		{"remove not ON", fmt.Sprintf(`{"base":%q,"remove":[0]}`, base)},
	}
	for _, tc := range cases {
		code, body := post(t, h, tc.body)
		if code != 400 {
			t.Errorf("%s: status = %d, want 400\n%s", tc.name, code, body)
		}
		if r := decodeResp(t, body); r.Code == "cold_run_required" {
			t.Errorf("%s: must not be classified cold_run_required", tc.name)
		}
	}
}

func TestDeltaTrivialEmptyOn(t *testing.T) {
	s := New(warmConfig())
	h := s.Handler()
	on := []uint64{3, 5}
	code, body := post(t, h, fmt.Sprintf(`{"n":4,"on":%s}`, pointsJSON(on)))
	if code != 200 {
		t.Fatalf("seed: status %d\n%s", code, body)
	}
	base := decodeResp(t, body).BaseKey

	code, body = post(t, h, fmt.Sprintf(`{"base":%q,"remove":[3,5]}`, base))
	if code != 200 {
		t.Fatalf("status = %d, want 200\n%s", code, body)
	}
	r := decodeResp(t, body)
	if r.Delta != "trivial" || r.Form != "0" || r.Literals != 0 || r.NumTerms != 0 {
		t.Fatalf("want trivial zero result, got %+v", r)
	}

	_, stats := get(t, h, "/statsz")
	var sz Statsz
	if err := json.Unmarshal([]byte(stats), &sz); err != nil {
		t.Fatal(err)
	}
	if sz.DeltaTrivial != 1 {
		t.Fatalf("delta_trivial = %d, want 1", sz.DeltaTrivial)
	}
	// The trivial path must not have entered the engine: exactly one
	// run (the seed) in the history.
	if sz.Runs == nil || len(sz.Runs.Reports) != 1 {
		t.Fatalf("trivial delta must not add an engine run, history: %+v", sz.Runs)
	}
}

func TestDeltaWarmResumeAndChain(t *testing.T) {
	s := New(warmConfig())
	h := s.Handler()
	on := oddParity(5)
	code, body := post(t, h, fmt.Sprintf(`{"n":5,"on":%s}`, pointsJSON(on)))
	if code != 200 {
		t.Fatalf("seed: status %d\n%s", code, body)
	}
	base := decodeResp(t, body).BaseKey

	// Edit: one OFF point turns ON (churn 1/16, well under the 0.25
	// default) and one ON point leaves.
	code, body = post(t, h, fmt.Sprintf(`{"base":%q,"add":[0],"remove":[1]}`, base))
	if code != 200 {
		t.Fatalf("delta: status %d\n%s", code, body)
	}
	r := decodeResp(t, body)
	if r.Delta != "warm" {
		t.Fatalf("delta = %q, want warm\n%s", r.Delta, body)
	}
	if r.BaseKey == "" || r.BaseKey == base {
		t.Fatalf("resumed response must advertise the edited function's own base_key, got %q", r.BaseKey)
	}
	if r.Cached {
		t.Fatal("first resume must be a fresh compute")
	}

	// The returned form must exactly describe the edited function.
	edited := editedParity(5, []uint64{0}, []uint64{1})
	verifyForm(t, 5, r.Form, edited)

	// The identical delta again: served from cache, byte-identical.
	code, body2 := post(t, h, fmt.Sprintf(`{"base":%q,"add":[0],"remove":[1]}`, base))
	if code != 200 {
		t.Fatalf("repeat delta: status %d\n%s", code, body2)
	}
	r2 := decodeResp(t, body2)
	if !r2.Cached || r2.Delta != "warm" {
		t.Fatalf("repeat delta should hit the warm cache, got %+v", r2)
	}
	if r2.Form != r.Form {
		t.Fatalf("cached delta form differs:\nfirst  %s\nsecond %s", r.Form, r2.Form)
	}

	// Chain a second edit off the resumed state's key.
	code, body3 := post(t, h, fmt.Sprintf(`{"base":%q,"remove":[0]}`, r.BaseKey))
	if code != 200 {
		t.Fatalf("chained delta: status %d\n%s", code, body3)
	}
	r3 := decodeResp(t, body3)
	if r3.Delta != "warm" {
		t.Fatalf("chained delta = %q, want warm", r3.Delta)
	}
	verifyForm(t, 5, r3.Form, editedParity(5, nil, []uint64{1}))

	_, stats := get(t, h, "/statsz")
	var sz Statsz
	if err := json.Unmarshal([]byte(stats), &sz); err != nil {
		t.Fatal(err)
	}
	if sz.DeltaWarm != 2 {
		t.Fatalf("delta_warm = %d, want 2", sz.DeltaWarm)
	}
	if sz.CacheBytes <= 0 {
		t.Fatal("cache_bytes must report the resident warm-state footprint")
	}
	if sz.Served != sz.CacheHits+sz.CacheMisses+sz.CoalesceWaiters {
		t.Fatalf("statsz invariant broken: %+v", sz)
	}
}

func TestDeltaColdFallback(t *testing.T) {
	cfg := warmConfig()
	cfg.DeltaMaxDirty = 0.01
	s := New(cfg)
	h := s.Handler()
	code, body := post(t, h, fmt.Sprintf(`{"n":5,"on":%s}`, pointsJSON(oddParity(5))))
	if code != 200 {
		t.Fatalf("seed: status %d\n%s", code, body)
	}
	base := decodeResp(t, body).BaseKey

	// churn 1/16 > 0.01: must fall back to a cold run, still 200.
	code, body = post(t, h, fmt.Sprintf(`{"base":%q,"add":[0]}`, base))
	if code != 200 {
		t.Fatalf("status = %d, want 200\n%s", code, body)
	}
	r := decodeResp(t, body)
	if r.Delta != "cold" {
		t.Fatalf("delta = %q, want cold\n%s", r.Delta, body)
	}
	if r.Key == "" {
		t.Fatal("cold fallback goes through the canonical path and must report its key")
	}
	if r.BaseKey == "" {
		t.Fatal("cold fallback on a warm server must advertise a fresh base_key")
	}
	verifyForm(t, 5, r.Form, editedParity(5, []uint64{0}, nil))

	_, stats := get(t, h, "/statsz")
	var sz Statsz
	if err := json.Unmarshal([]byte(stats), &sz); err != nil {
		t.Fatal(err)
	}
	if sz.DeltaCold != 1 {
		t.Fatalf("delta_cold_fallback = %d, want 1", sz.DeltaCold)
	}
}

func TestDeltaEquivalentToFullSubmission(t *testing.T) {
	// A delta-resumed result and an independent full submission of the
	// edited function may canonicalize differently (so the textual
	// forms can differ), but cost and correctness must agree.
	s := New(warmConfig())
	h := s.Handler()
	on := oddParity(4)
	_, body := post(t, h, fmt.Sprintf(`{"n":4,"on":%s}`, pointsJSON(on)))
	base := decodeResp(t, body).BaseKey

	code, body := post(t, h, fmt.Sprintf(`{"base":%q,"add":[0]}`, base))
	if code != 200 {
		t.Fatalf("delta: %d\n%s", code, body)
	}
	warm := decodeResp(t, body)

	edited := editedParity(4, []uint64{0}, nil)
	code, body = post(t, h, fmt.Sprintf(`{"n":4,"on":%s,"no_cache":true}`, pointsJSON(edited.On())))
	if code != 200 {
		t.Fatalf("full: %d\n%s", code, body)
	}
	full := decodeResp(t, body)
	if warm.Literals != full.Literals || warm.NumTerms != full.NumTerms || warm.EPPP != full.EPPP {
		t.Fatalf("delta result diverges from full submission:\nwarm %+v\nfull %+v", warm, full)
	}
	verifyForm(t, 4, warm.Form, edited)
	verifyForm(t, 4, full.Form, edited)
}

func TestWarmOffNoBaseKey(t *testing.T) {
	s := New(testConfig())
	h := s.Handler()
	_, body := post(t, h, fmt.Sprintf(`{"n":4,"on":%s}`, pointsJSON(oddParity(4))))
	if r := decodeResp(t, body); r.BaseKey != "" {
		t.Fatalf("base_key must be absent with WarmCache off, got %q", r.BaseKey)
	}
}

// TestDeltaCanonicalSharing: the warm snapshot is stored once in
// canonical space and shared across permuted-equivalent bases. A client
// submitting a permuted version of an already-solved function must get
// a base_key naming the canonical snapshot without any engine run, and
// a delta against that key must resume warm.
func TestDeltaCanonicalSharing(t *testing.T) {
	s := New(warmConfig())
	h := s.Handler()

	// Asymmetric function so the permutation genuinely moves points.
	on := []uint64{0b0001, 0b0011, 0b0111, 0b1111, 0b1000}
	code, body := post(t, h, fmt.Sprintf(`{"n":4,"on":%s}`, pointsJSON(on)))
	if code != 200 {
		t.Fatalf("seed: status %d\n%s", code, body)
	}
	seedKey := decodeResp(t, body).BaseKey
	if seedKey == "" {
		t.Fatal("seed must advertise a base_key")
	}

	// Permute x0<->x3, x1<->x2 (bit reversal over 4 bits).
	perm := []int{3, 2, 1, 0}
	pon := make([]uint64, len(on))
	for i, p := range on {
		pon[i] = bitvec.PermutePoint(p, 4, perm)
	}
	code, body = post(t, h, fmt.Sprintf(`{"n":4,"on":%s}`, pointsJSON(pon)))
	if code != 200 {
		t.Fatalf("permuted: status %d\n%s", code, body)
	}
	pr := decodeResp(t, body)
	if !pr.Cached {
		t.Fatal("permuted-equivalent request missed the canonical cache")
	}
	if pr.BaseKey == "" {
		t.Fatal("canonical snapshot hit must advertise a base_key to the permuted client")
	}
	if pr.BaseKey == seedKey {
		t.Fatal("base_key must carry the permuted client's order, not the seed client's")
	}

	// Delta against the permuted client's key: warm resume through the
	// shared canonical snapshot, no cold run.
	// One-point edit: churn 1/5 stays under the 0.25 dirty limit (the
	// care set here is just the five ON points).
	code, body = post(t, h, fmt.Sprintf(`{"base":%q,"add":[0]}`, pr.BaseKey))
	if code != 200 {
		t.Fatalf("delta: status %d\n%s", code, body)
	}
	dr := decodeResp(t, body)
	if dr.Delta != "warm" {
		t.Fatalf("delta = %q, want warm\n%s", dr.Delta, body)
	}
	edited := []uint64{8, 12, 14, 15, 1, 0} // pon with 0 added
	verifyForm(t, 4, dr.Form, bfunc.New(4, edited))

	_, stats := get(t, h, "/statsz")
	var sz Statsz
	if err := json.Unmarshal([]byte(stats), &sz); err != nil {
		t.Fatal(err)
	}
	if sz.DeltaWarm != 1 {
		t.Fatalf("delta_warm = %d, want 1", sz.DeltaWarm)
	}
	// Every warm resume selects its cover afresh; none is replayed.
	if sz.DeltaCoverReused != 0 {
		t.Fatalf("delta_cover_reused = %d, want 0", sz.DeltaCoverReused)
	}
	// Engine runs: the seed and the resume. The permuted submission was
	// served entirely from the canonical cache.
	if sz.Runs == nil || len(sz.Runs.Reports) != 2 {
		t.Fatalf("want exactly 2 engine runs (seed + resume), history: %+v", sz.Runs)
	}
	if sz.Served != sz.CacheHits+sz.CacheMisses+sz.CoalesceWaiters {
		t.Fatalf("statsz invariant broken: %+v", sz)
	}
}

// TestDeltaPermutedClientsCoalesce: two permuted-equivalent clients
// post the equivalent edit at once. Their deltas resolve on the same
// warm state key, so one resume serves both, and each answer carries
// its own client's base_key and variable order.
func TestDeltaPermutedClientsCoalesce(t *testing.T) {
	s := New(warmConfig())
	h := s.Handler()

	// Asymmetric function so the permutation genuinely moves points.
	on := []uint64{0b0001, 0b0011, 0b0111, 0b1111, 0b1000}
	perm := []int{3, 2, 1, 0}
	pon := make([]uint64, len(on))
	for i, p := range on {
		pon[i] = bitvec.PermutePoint(p, 4, perm)
	}
	bases := make([]string, 2)
	for i, pts := range [][]uint64{on, pon} {
		code, body := post(t, h, fmt.Sprintf(`{"n":4,"on":%s}`, pointsJSON(pts)))
		if code != 200 {
			t.Fatalf("seed %d: status %d\n%s", i, code, body)
		}
		if bases[i] = decodeResp(t, body).BaseKey; bases[i] == "" {
			t.Fatalf("seed %d advertised no base_key", i)
		}
	}
	// One added point (churn 1/5) in each client's own variables.
	adds := []uint64{0b0010, bitvec.PermutePoint(0b0010, 4, perm)}

	gate := make(chan struct{})
	release := sync.OnceFunc(func() { close(gate) })
	defer release()
	s.testHookAfterAcquire = func(ctx context.Context) {
		select {
		case <-gate:
		case <-ctx.Done():
		}
	}
	resps := make([]Response, 2)
	var wg sync.WaitGroup
	send := func(i int) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			code, body := post(t, h, fmt.Sprintf(`{"base":%q,"add":[%d]}`, bases[i], adds[i]))
			if err := json.Unmarshal([]byte(body), &resps[i]); code != 200 || err != nil {
				t.Errorf("client %d delta: status %d (%v)\n%s", i, code, err, body)
			}
		}()
	}
	send(0)
	for i := 0; len(s.slots) == 0 && i < 5000; i++ {
		time.Sleep(time.Millisecond)
	}
	// The second client joins the first one's flight: the edited
	// function's warm state key, in the shared state's variables.
	skey, permA, err := parseBaseKey(bases[0])
	if err != nil {
		t.Fatal(err)
	}
	st, _ := s.cache.Get(skey)
	edited, err := st.warm.Apply(core.Delta{AddOn: []uint64{bitvec.PermutePoint(adds[0], 4, permA)}})
	if err != nil {
		t.Fatal(err)
	}
	send(1)
	waitForWaiters(t, s, fcache.WarmStateKey(fcache.KeyOf(edited), st.tag), 1)
	release()
	wg.Wait()

	if resps[0].Coalesced == resps[1].Coalesced {
		t.Errorf("coalesced = %v/%v, want exactly one answer coalesced", resps[0].Coalesced, resps[1].Coalesced)
	}
	if resps[0].BaseKey == "" || resps[0].BaseKey == resps[1].BaseKey {
		t.Errorf("base_keys %q and %q, want one of each client's own", resps[0].BaseKey, resps[1].BaseKey)
	}
	for i, pts := range [][]uint64{on, pon} {
		if resps[i].Delta != "warm" {
			t.Errorf("client %d: delta = %q, want warm", i, resps[i].Delta)
		}
		verifyForm(t, 4, resps[i].Form, bfunc.New(4, append(slices.Clone(pts), adds[i])))
	}
	if sz := statszOf(t, h); sz.DeltaWarm != 1 || sz.CoalesceWaiters != 1 {
		t.Errorf("delta_warm = %d, coalesce_waiters = %d, want one resume and one waiter", sz.DeltaWarm, sz.CoalesceWaiters)
	}
}

// editedParity returns n-variable odd parity with add turned ON and
// remove turned OFF.
func editedParity(n int, add, remove []uint64) *bfunc.Func {
	drop := map[uint64]bool{}
	for _, p := range remove {
		drop[p] = true
	}
	var on []uint64
	for _, p := range oddParity(n) {
		if !drop[p] {
			on = append(on, p)
		}
	}
	on = append(on, add...)
	return bfunc.New(n, on)
}

// verifyForm parses a response form and checks it computes fn exactly.
func verifyForm(t *testing.T, n int, form string, fn *bfunc.Func) {
	t.Helper()
	parsed, err := core.ParseForm(n, form)
	if err != nil {
		t.Fatalf("response form %q does not parse: %v", form, err)
	}
	if err := parsed.Verify(fn); err != nil {
		t.Fatalf("response form %q wrong: %v", form, err)
	}
}
