package service

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/bfunc"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/fcache"
)

// derivedKey reconstructs the cache key the server uses for q, so tests
// can observe the coalescing group and pre-seed the cache.
func derivedKey(t *testing.T, s *Server, f *bfunc.Func, q Request) fcache.Key {
	t.Helper()
	key, _, _ := fcache.Canonicalize(f)
	q, err := s.normalizeForm(q, f.N())
	if err != nil {
		t.Fatalf("normalizeForm: %v", err)
	}
	spp, _ := s.registry.Get("spp")
	return key.Derive(spp.Salt(s.engineOptions(t.Context(), q)))
}

func statszOf(t *testing.T, h http.Handler) Statsz {
	t.Helper()
	code, out := get(t, h, "/statsz")
	if code != http.StatusOK {
		t.Fatalf("/statsz: status %d: %s", code, out)
	}
	var st Statsz
	if err := json.Unmarshal([]byte(out), &st); err != nil {
		t.Fatalf("bad statsz JSON: %v\n%s", err, out)
	}
	return st
}

// waitForWaiters blocks until n callers are coalesced onto the flight
// for k.
func waitForWaiters(t *testing.T, s *Server, k fcache.Key, n int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for s.flights.Waiters(k) != n {
		if time.Now().After(deadline) {
			t.Fatalf("flight never reached %d waiters (at %d)", n, s.flights.Waiters(k))
		}
		time.Sleep(time.Millisecond)
	}
}

// TestCoalesceWaiterServed: a second identical request arriving while
// the first computes is served from the leader's flight — marked
// cached+coalesced, counted as a coalesce waiter, and slot-free.
func TestCoalesceWaiterServed(t *testing.T) {
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
	on := oddParity(3)
	body := fmt.Sprintf(`{"n":3,"on":%s}`, pointsJSON(on))
	key := derivedKey(t, s, bfunc.New(3, on), Request{})

	type reply struct {
		code int
		resp Response
	}
	leaderCh := make(chan reply, 1)
	go func() {
		code, out := post(t, h, body)
		leaderCh <- reply{code, decodeResp(t, out)}
	}()
	for i := 0; len(s.slots) == 0 && i < 5000; i++ {
		time.Sleep(time.Millisecond)
	}

	waiterCh := make(chan reply, 1)
	go func() {
		code, out := post(t, h, body)
		waiterCh <- reply{code, decodeResp(t, out)}
	}()
	waitForWaiters(t, s, key, 1)
	close(gate)

	leader, waiter := <-leaderCh, <-waiterCh
	if leader.code != http.StatusOK || leader.resp.Cached || leader.resp.Coalesced {
		t.Errorf("leader: code=%d cached=%v coalesced=%v, want fresh 200",
			leader.code, leader.resp.Cached, leader.resp.Coalesced)
	}
	if waiter.code != http.StatusOK || !waiter.resp.Cached || !waiter.resp.Coalesced {
		t.Errorf("waiter: code=%d cached=%v coalesced=%v, want coalesced 200",
			waiter.code, waiter.resp.Cached, waiter.resp.Coalesced)
	}
	if leader.resp.Form != waiter.resp.Form {
		t.Errorf("leader and waiter forms differ: %q vs %q", leader.resp.Form, waiter.resp.Form)
	}

	st := statszOf(t, h)
	if st.Served != 2 || st.CacheMisses != 1 || st.CoalesceWaiters != 1 || st.CacheHits != 0 {
		t.Errorf("statsz = served %d hits %d misses %d waiters %d, want 2/0/1/1",
			st.Served, st.CacheHits, st.CacheMisses, st.CoalesceWaiters)
	}
	// The leader's run report records how many requests rode its flight.
	if st.Runs == nil || len(st.Runs.Reports) != 1 {
		t.Fatalf("statsz runs ring = %+v, want the leader's report", st.Runs)
	}
	if got := st.Runs.Reports[0].Sched["serve.flight_waiters"]; got != 1 {
		t.Errorf("serve.flight_waiters = %d, want 1 (sched=%v)", got, st.Runs.Reports[0].Sched)
	}
}

// TestCoalesceLeaderSurvivesWaiterCancel pins the acceptance
// criterion: a waiter that gives up (its own 50ms deadline) gets 504
// while the leader computes on undisturbed; the leader's result still
// populates the cache and serves the next request as a plain hit.
func TestCoalesceLeaderSurvivesWaiterCancel(t *testing.T) {
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
	on := oddParity(3)
	body := fmt.Sprintf(`{"n":3,"on":%s}`, pointsJSON(on))
	key := derivedKey(t, s, bfunc.New(3, on), Request{})

	leaderCh := make(chan int, 1)
	go func() {
		code, _ := post(t, h, body)
		leaderCh <- code
	}()
	for i := 0; len(s.slots) == 0 && i < 5000; i++ {
		time.Sleep(time.Millisecond)
	}

	waiterCh := make(chan struct {
		code int
		out  string
	}, 1)
	go func() {
		code, out := post(t, h, fmt.Sprintf(`{"n":3,"on":%s,"timeout_ms":50}`, pointsJSON(on)))
		waiterCh <- struct {
			code int
			out  string
		}{code, out}
	}()
	waitForWaiters(t, s, key, 1)

	w := <-waiterCh // expires on its own 50ms deadline
	if w.code != http.StatusGatewayTimeout || !strings.Contains(w.out, "coalesced wait") {
		t.Fatalf("detached waiter: code=%d, want 504 coalesced-wait: %s", w.code, w.out)
	}
	if s.flights.Waiters(key) != 0 {
		t.Errorf("detached waiter still counted on the flight")
	}

	close(gate) // leader unpoisoned: finishes and caches
	if code := <-leaderCh; code != http.StatusOK {
		t.Fatalf("leader failed after waiter detach: %d", code)
	}
	code, out := post(t, h, body)
	r := decodeResp(t, out)
	if code != http.StatusOK || !r.Cached || r.Coalesced {
		t.Errorf("post-detach request: code=%d cached=%v coalesced=%v, want plain cache hit",
			code, r.Cached, r.Coalesced)
	}

	st := statszOf(t, h)
	if st.CoalesceDetached != 1 || st.Errors != 1 {
		t.Errorf("statsz detached=%d errors=%d, want 1/1", st.CoalesceDetached, st.Errors)
	}
	if st.Served != 2 || st.CacheHits != 1 || st.CacheMisses != 1 || st.CoalesceWaiters != 0 {
		t.Errorf("statsz served=%d hits=%d misses=%d waiters=%d, want 2/1/1/0",
			st.Served, st.CacheHits, st.CacheMisses, st.CoalesceWaiters)
	}
}

// TestFailureStatusBySite pins the HTTP status for each failure site,
// so a queue-wait expiry, an in-flight expiry, a client cancel and a
// budget abort each keep their own code instead of collapsing into 500
// (the double-shadow bug) or each other.
func TestFailureStatusBySite(t *testing.T) {
	holdSlot := func(t *testing.T, s *Server, h http.Handler) (release func()) {
		t.Helper()
		gate := make(chan struct{})
		s.testHookAfterAcquire = func(ctx context.Context) {
			select {
			case <-gate:
			case <-ctx.Done():
			}
		}
		done := make(chan struct{})
		go func() {
			defer close(done)
			// Distinct blocker function: later requests queue on the
			// slot rather than joining this flight.
			post(t, h, `{"n":3,"on":[0,7]}`)
		}()
		for i := 0; len(s.slots) == 0 && i < 5000; i++ {
			time.Sleep(time.Millisecond)
		}
		if len(s.slots) == 0 {
			t.Fatal("blocker never took the slot")
		}
		return func() { close(gate); <-done }
	}
	parity3 := fmt.Sprintf(`{"n":3,"on":%s,"timeout_ms":50}`, pointsJSON(oddParity(3)))

	cases := []struct {
		name     string
		run      func(t *testing.T) (int, string)
		wantCode int
		wantSub  string
	}{
		{
			name: "queue wait deadline",
			run: func(t *testing.T) (int, string) {
				cfg := testConfig()
				cfg.MaxConcurrent = 1
				s := New(cfg)
				h := s.Handler()
				release := holdSlot(t, s, h)
				defer release()
				return post(t, h, parity3)
			},
			wantCode: http.StatusGatewayTimeout,
			wantSub:  "queue wait",
		},
		{
			name: "queue wait client cancel",
			run: func(t *testing.T) (int, string) {
				cfg := testConfig()
				cfg.MaxConcurrent = 1
				s := New(cfg)
				h := s.Handler()
				release := holdSlot(t, s, h)
				defer release()
				ctx, cancel := context.WithCancel(context.Background())
				go func() { time.Sleep(30 * time.Millisecond); cancel() }()
				req := httptest.NewRequest(http.MethodPost, "/v1/minimize",
					strings.NewReader(fmt.Sprintf(`{"n":3,"on":%s}`, pointsJSON(oddParity(3))))).WithContext(ctx)
				w := httptest.NewRecorder()
				h.ServeHTTP(w, req)
				return w.Code, w.Body.String()
			},
			wantCode: 499,
			wantSub:  "queue wait",
		},
		{
			name: "in-flight deadline",
			run: func(t *testing.T) (int, string) {
				s := New(testConfig())
				s.testHookAfterAcquire = func(ctx context.Context) { <-ctx.Done() }
				return post(t, s.Handler(), parity3)
			},
			wantCode: http.StatusGatewayTimeout,
			wantSub:  "deadline",
		},
		{
			name: "in-flight client cancel",
			run: func(t *testing.T) (int, string) {
				s := New(testConfig())
				s.testHookAfterAcquire = func(ctx context.Context) { <-ctx.Done() }
				ctx, cancel := context.WithCancel(context.Background())
				go func() { time.Sleep(30 * time.Millisecond); cancel() }()
				req := httptest.NewRequest(http.MethodPost, "/v1/minimize",
					strings.NewReader(fmt.Sprintf(`{"n":3,"on":%s}`, pointsJSON(oddParity(3))))).WithContext(ctx)
				w := httptest.NewRecorder()
				s.Handler().ServeHTTP(w, req)
				return w.Code, w.Body.String()
			},
			wantCode: 499,
			wantSub:  "cancel",
		},
		{
			name: "budget abort",
			run: func(t *testing.T) (int, string) {
				cfg := testConfig()
				cfg.Core.MaxCandidates = 1
				return post(t, New(cfg).Handler(),
					fmt.Sprintf(`{"n":4,"on":%s}`, pointsJSON(oddParity(4))))
			},
			wantCode: http.StatusUnprocessableEntity,
			wantSub:  core.ErrBudget.Error(),
		},
		{
			name: "bad request",
			run: func(t *testing.T) (int, string) {
				return post(t, New(testConfig()).Handler(), `{"n":3,"on":[9]}`)
			},
			wantCode: http.StatusBadRequest,
			wantSub:  "outside",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, out := tc.run(t)
			if code != tc.wantCode {
				t.Errorf("status %d, want %d: %s", code, tc.wantCode, out)
			}
			if !strings.Contains(out, tc.wantSub) {
				t.Errorf("error %q does not mention %q", out, tc.wantSub)
			}
		})
	}
}

// TestServiceCollisionRecompute pins the accounting bugfix end to end:
// a cache entry whose canonical function does not match the request
// (a key collision) must be rejected as a miss, evicted, and the
// request freshly computed — never served the wrong form or counted as
// a hit.
func TestServiceCollisionRecompute(t *testing.T) {
	s := New(testConfig())
	h := s.Handler()
	on := oddParity(3)
	key := derivedKey(t, s, bfunc.New(3, on), Request{})

	// Poison the exact slot the request will probe with a different
	// function's (empty) result.
	s.cache.Put(key, cacheEntry{canon: bfunc.New(3, []uint64{0}), form: engine.SPPForm{F: core.Form{N: 3}}, kind: "spp"})

	code, out := post(t, h, fmt.Sprintf(`{"n":3,"on":%s}`, pointsJSON(on)))
	r := decodeResp(t, out)
	if code != http.StatusOK || r.Error != "" {
		t.Fatalf("collision request failed: %d %s", code, out)
	}
	if r.Cached {
		t.Error("poisoned entry served as a cache hit")
	}
	if r.Form == "" || r.NumTerms == 0 {
		t.Errorf("collision victim got the poisoned empty form: %+v", r)
	}

	st := statszOf(t, h)
	if st.CacheHits != 0 || st.CacheMisses != 1 {
		t.Errorf("hits=%d misses=%d after collision, want 0/1", st.CacheHits, st.CacheMisses)
	}
	if st.CacheEvictions < 1 {
		t.Errorf("mismatched entry was not evicted (evictions=%d)", st.CacheEvictions)
	}

	// The recomputed entry owns the slot now: next request is a real hit.
	_, out = post(t, h, fmt.Sprintf(`{"n":3,"on":%s}`, pointsJSON(on)))
	if r := decodeResp(t, out); !r.Cached {
		t.Error("recomputed entry not served on the next request")
	}
}

// TestNoCacheBypassesCoalescing: no_cache requests always compute —
// they neither read the cache nor join flights — yet still populate
// the cache for later requests.
func TestNoCacheBypassesCoalescing(t *testing.T) {
	s := New(testConfig())
	h := s.Handler()
	body := fmt.Sprintf(`{"n":3,"on":%s,"no_cache":true}`, pointsJSON(oddParity(3)))
	for i := 0; i < 2; i++ {
		_, out := post(t, h, body)
		if r := decodeResp(t, out); r.Cached || r.Coalesced {
			t.Errorf("no_cache request %d served from cache/flight: %+v", i, r)
		}
	}
	_, out := post(t, h, fmt.Sprintf(`{"n":3,"on":%s}`, pointsJSON(oddParity(3))))
	if r := decodeResp(t, out); !r.Cached {
		t.Error("no_cache result did not populate the cache")
	}
	st := statszOf(t, h)
	if st.CacheMisses != 2 || st.CacheHits != 1 {
		t.Errorf("misses=%d hits=%d, want 2/1", st.CacheMisses, st.CacheHits)
	}
}

// TestBatchWorkersConcurrent: with BatchWorkers >= 2 and two admission
// slots, two distinct batch items must be in flight simultaneously —
// the regression test against the old strictly-serial batch loop — and
// results must land at their item's index regardless of completion
// order.
func TestBatchWorkersConcurrent(t *testing.T) {
	cfg := testConfig()
	cfg.MaxConcurrent = 2
	cfg.BatchWorkers = 2
	s := New(cfg)
	arrivals := make(chan struct{}, 2)
	barrier := make(chan struct{})
	s.testHookAfterAcquire = func(ctx context.Context) {
		arrivals <- struct{}{}
		select {
		case <-barrier:
		case <-ctx.Done():
		}
	}
	h := s.Handler()
	body := fmt.Sprintf(`{"requests":[{"n":3,"on":%s},{"n":4,"on":%s}]}`,
		pointsJSON(oddParity(3)), pointsJSON(oddParity(4)))

	outCh := make(chan string, 1)
	go func() {
		_, out := post(t, h, body)
		outCh <- out
	}()
	for i := 0; i < 2; i++ {
		select {
		case <-arrivals:
		case <-time.After(10 * time.Second):
			t.Fatalf("only %d of 2 batch items in flight: batch items did not run concurrently", i)
		}
	}
	close(barrier)

	var br batchResponse
	if err := json.Unmarshal([]byte(<-outCh), &br); err != nil {
		t.Fatalf("bad batch JSON: %v", err)
	}
	if len(br.Results) != 2 {
		t.Fatalf("got %d results, want 2", len(br.Results))
	}
	// Deterministic ordering: item i's result is for item i's function.
	// Odd parity over n variables minimizes to one n-literal
	// pseudoproduct, so the literal counts identify the items.
	for i, wantLits := range []int{3, 4} {
		if br.Results[i].Error != "" {
			t.Fatalf("item %d errored: %s", i, br.Results[i].Error)
		}
		if br.Results[i].Literals != wantLits {
			t.Errorf("results[%d].Literals = %d, want %d (results out of order?)",
				i, br.Results[i].Literals, wantLits)
		}
	}
}

// TestStatszCoherentUnderLoad is the stress test: 32 goroutines of
// mixed hits/misses/coalesces while a poller hammers /statsz. Every
// snapshot — not just the final one — must satisfy
// served == hits + misses + waiters; at the end, misses must equal the
// number of distinct functions (each computed exactly once, however
// many requests raced for it).
func TestStatszCoherentUnderLoad(t *testing.T) {
	cfg := testConfig()
	cfg.MaxConcurrent = 4
	s := New(cfg)
	h := s.Handler()

	// Distinct ON-set sizes guarantee P-inequivalent functions (and so
	// distinct cache keys); all are tiny and fast.
	const keys = 8
	bodies := make([]string, keys)
	for i := 0; i < keys; i++ {
		var on []uint64
		for p := uint64(0); p <= uint64(i); p++ {
			on = append(on, p)
		}
		bodies[i] = fmt.Sprintf(`{"n":4,"on":%s}`, pointsJSON(on))
	}

	const (
		goroutines = 32
		reqsEach   = 25
	)
	stop := make(chan struct{})
	var pollerWG sync.WaitGroup
	pollerWG.Add(1)
	go func() {
		defer pollerWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			st := statszOf(t, h)
			if st.Served != st.CacheHits+st.CacheMisses+st.CoalesceWaiters {
				t.Errorf("torn statsz snapshot: served=%d hits=%d misses=%d waiters=%d",
					st.Served, st.CacheHits, st.CacheMisses, st.CoalesceWaiters)
				return
			}
		}
	}()

	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; i < reqsEach; i++ {
				code, out := post(t, h, bodies[(seed*7+i)%keys])
				if code != http.StatusOK {
					t.Errorf("request failed: %d %s", code, out)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	pollerWG.Wait()

	st := statszOf(t, h)
	if st.Served != goroutines*reqsEach {
		t.Errorf("served = %d, want %d", st.Served, goroutines*reqsEach)
	}
	if st.Served != st.CacheHits+st.CacheMisses+st.CoalesceWaiters {
		t.Errorf("final statsz incoherent: served=%d hits=%d misses=%d waiters=%d",
			st.Served, st.CacheHits, st.CacheMisses, st.CoalesceWaiters)
	}
	if st.CacheMisses != keys {
		t.Errorf("misses = %d, want %d (one compute per distinct function)", st.CacheMisses, keys)
	}
	if st.Errors != 0 {
		t.Errorf("errors = %d under load, want 0", st.Errors)
	}
}
