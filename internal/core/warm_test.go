package core

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/bench"
	"repro/internal/bfunc"
)

// randomDelta builds a valid random edit script of ~k point moves
// against f.
func randomDelta(rng *rand.Rand, f *bfunc.Func, k int) Delta {
	n := f.N()
	var d Delta
	used := map[uint64]bool{}
	for i := 0; i < k; i++ {
		p := rng.Uint64() & ((1 << uint(n)) - 1)
		if used[p] {
			continue
		}
		used[p] = true
		switch {
		case f.IsOn(p):
			d.RemoveOn = append(d.RemoveOn, p)
			if rng.Intn(2) == 0 {
				d.AddDC = append(d.AddDC, p) // ON → DC
			}
		case f.IsDC(p):
			if rng.Intn(2) == 0 {
				d.AddOn = append(d.AddOn, p) // DC → ON
			} else {
				d.RemoveDC = append(d.RemoveDC, p) // DC → OFF
			}
		default:
			if rng.Intn(2) == 0 {
				d.AddOn = append(d.AddOn, p) // OFF → ON
			} else {
				d.AddDC = append(d.AddDC, p) // OFF → DC
			}
		}
	}
	return d
}

// requireWarmEqual asserts two warm states are structurally identical:
// same levels, groups in the same order, entries in the same order with
// the same expressions and mark counts, and the same covered-ON lists.
func requireWarmEqual(t *testing.T, got, want *WarmState) {
	t.Helper()
	if got.n != want.n {
		t.Fatalf("n: got %d want %d", got.n, want.n)
	}
	if !got.f.Equal(want.f) {
		t.Fatalf("snapshotted functions differ")
	}
	if len(got.levels) != len(want.levels) {
		t.Fatalf("levels: got %d want %d", len(got.levels), len(want.levels))
	}
	for li := range got.levels {
		g, w := got.levels[li].groups, want.levels[li].groups
		if len(g) != len(w) {
			t.Fatalf("level %d groups: got %d want %d", li, len(g), len(w))
		}
		for gi := range g {
			if g[gi].path != w[gi].path {
				t.Fatalf("level %d group %d path: got %q want %q", li, gi, g[gi].path, w[gi].path)
			}
			if len(g[gi].entries) != len(w[gi].entries) {
				t.Fatalf("level %d group %d entries: got %d want %d", li, gi, len(g[gi].entries), len(w[gi].entries))
			}
			for ei := range g[gi].entries {
				ge, we := &g[gi].entries[ei], &w[gi].entries[ei]
				if !ge.cex.Equal(we.cex) {
					t.Fatalf("level %d group %d entry %d: got %v want %v", li, gi, ei, ge.cex, we.cex)
				}
				if ge.markCnt != we.markCnt {
					t.Fatalf("level %d group %d entry %d (%v) markCnt: got %d want %d", li, gi, ei, ge.cex, ge.markCnt, we.markCnt)
				}
				if ge.sig != we.sig {
					t.Fatalf("level %d group %d entry %d sig mismatch", li, gi, ei)
				}
				if ge.prevCand != we.prevCand {
					t.Fatalf("level %d group %d entry %d prevCand: got %v want %v", li, gi, ei, ge.prevCand, we.prevCand)
				}
			}
		}
	}
	gc := coveredByKey(got)
	wc := coveredByKey(want)
	if len(gc) != len(wc) {
		t.Fatalf("covered: got %d candidates want %d", len(gc), len(wc))
	}
	for k, gp := range gc {
		wp, ok := wc[k]
		if !ok {
			t.Fatalf("covered candidate %q missing from oracle", k)
		}
		if fmt.Sprint(gp) != fmt.Sprint(wp) {
			t.Fatalf("covered points for %q: got %v want %v", k, gp, wp)
		}
	}
}

func coveredByKey(ws *WarmState) map[string][]uint64 {
	m := make(map[string][]uint64, len(ws.cands))
	for i, c := range ws.cands {
		m[c.Key()] = ws.candPts[i]
	}
	return m
}

// requireResumeMatchesCold runs the resume and the cold warm engine on
// the edited function and asserts byte-identity of form, build shape
// and warm state. Returns the resumed state for chaining.
func requireResumeMatchesCold(t *testing.T, ws *WarmState, d Delta, opts Options) *WarmState {
	t.Helper()
	edited, err := ws.Apply(d)
	if err != nil {
		t.Fatalf("apply: %v", err)
	}
	warm, nws, err := ResumeExact(ws, d, opts)
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	cold, cws, err := MinimizeExactWarm(edited, opts)
	if err != nil {
		t.Fatalf("cold: %v", err)
	}
	if got, want := warm.Form.String(), cold.Form.String(); got != want {
		t.Fatalf("form mismatch:\nwarm %s\ncold %s", got, want)
	}
	if warm.Build.EPPP != cold.Build.EPPP {
		t.Fatalf("EPPP count: warm %d cold %d", warm.Build.EPPP, cold.Build.EPPP)
	}
	if fmt.Sprint(warm.Build.LevelSizes) != fmt.Sprint(cold.Build.LevelSizes) {
		t.Fatalf("level sizes: warm %v cold %v", warm.Build.LevelSizes, cold.Build.LevelSizes)
	}
	if fmt.Sprint(warm.Build.Groups) != fmt.Sprint(cold.Build.Groups) {
		t.Fatalf("groups: warm %v cold %v", warm.Build.Groups, cold.Build.Groups)
	}
	if err := warm.Form.Verify(edited); err != nil {
		t.Fatalf("resumed form invalid: %v", err)
	}
	requireWarmEqual(t, nws, cws)
	return nws
}

func TestWarmMatchesExactCost(t *testing.T) {
	// The warm engine emits candidates in canonical rather than
	// generation order, so forms may differ textually from
	// MinimizeExact — but the candidate set and hence the achievable
	// cost are the same.
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 8; i++ {
		f := randomFunc(rng, 5+i%3, 0.3, true)
		plain, err := MinimizeExact(f, Options{})
		if err != nil {
			t.Fatalf("plain: %v", err)
		}
		warm, ws, err := MinimizeExactWarm(f, Options{})
		if err != nil {
			t.Fatalf("warm: %v", err)
		}
		if warm.Build.EPPP != plain.Build.EPPP {
			t.Fatalf("EPPP count: warm %d plain %d", warm.Build.EPPP, plain.Build.EPPP)
		}
		if err := warm.Form.Verify(f); err != nil {
			t.Fatalf("warm form invalid: %v", err)
		}
		if ws.Bytes() <= 0 {
			t.Fatalf("warm state bytes not accounted")
		}
		// Candidate sets must be identical, not just equinumerous.
		set, err := BuildEPPP(f, Options{})
		if err != nil {
			t.Fatalf("BuildEPPP: %v", err)
		}
		want := map[string]bool{}
		for _, c := range set.Candidates {
			want[c.Key()] = true
		}
		got := coveredByKey(ws)
		if len(got) != len(want) {
			t.Fatalf("candidates: warm %d cold %d", len(got), len(want))
		}
		for k := range got {
			if !want[k] {
				t.Fatalf("warm candidate %q not produced by BuildEPPP", k)
			}
		}
	}
}

func TestResumeMatchesColdRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 12; trial++ {
		n := 5 + trial%3
		f := randomFunc(rng, n, 0.35, true)
		_, ws, err := MinimizeExactWarm(f, Options{})
		if err != nil {
			t.Fatalf("trial %d: cold build: %v", trial, err)
		}
		// Chain several resumes, each checked against a cold oracle.
		for step := 0; step < 3; step++ {
			d := randomDelta(rng, ws.f, 1+rng.Intn(4))
			ws = requireResumeMatchesCold(t, ws, d, Options{})
		}
	}
}

func TestResumeMatchesColdBench(t *testing.T) {
	if testing.Short() {
		t.Skip("bench-scale oracle comparison")
	}
	rng := rand.New(rand.NewSource(1))
	for _, name := range []string{"adr4", "radd", "life", "f51m"} {
		m := bench.MustLoad(name)
		for out := 0; out < m.NOutputs(); out++ {
			f := m.Output(out)
			if f.OnCount() == 0 {
				continue
			}
			_, ws, err := MinimizeExactWarm(f, Options{})
			if err != nil {
				t.Fatalf("%s/%d: cold build: %v", name, out, err)
			}
			d := randomDelta(rng, f, 3)
			t.Run(fmt.Sprintf("%s/%d", name, out), func(t *testing.T) {
				requireResumeMatchesCold(t, ws, d, Options{})
			})
		}
	}
}

func TestResumeExactCover(t *testing.T) {
	// The shared covering path must stay byte-identical under the
	// exact branch-and-bound solver too.
	rng := rand.New(rand.NewSource(11))
	opts := Options{CoverExact: true, CoverMaxNodes: 1 << 16}
	for trial := 0; trial < 4; trial++ {
		f := randomFunc(rng, 5, 0.3, true)
		_, ws, err := MinimizeExactWarm(f, opts)
		if err != nil {
			t.Fatalf("cold: %v", err)
		}
		d := randomDelta(rng, f, 3)
		requireResumeMatchesCold(t, ws, d, opts)
	}
}

func TestResumeEmptyOn(t *testing.T) {
	f := bfunc.New(4, []uint64{3, 5})
	_, ws, err := MinimizeExactWarm(f, Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, nws, err := ResumeExact(ws, Delta{RemoveOn: []uint64{3, 5}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Form.NumTerms() != 0 || res.Form.String() != "0" {
		t.Fatalf("emptied ON-set should give the zero form, got %q", res.Form.String())
	}
	// Resuming from the emptied state must still work.
	res2, _, err := ResumeExact(nws, Delta{AddOn: []uint64{3}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := res2.Form.Verify(bfunc.New(4, []uint64{3})); err != nil {
		t.Fatal(err)
	}
}

func TestResumeToConstantOne(t *testing.T) {
	n := 3
	var on []uint64
	for p := uint64(0); p < 1<<uint(n); p++ {
		if p != 5 {
			on = append(on, p)
		}
	}
	f := bfunc.New(n, on)
	_, ws, err := MinimizeExactWarm(f, Options{})
	if err != nil {
		t.Fatal(err)
	}
	requireResumeMatchesCold(t, ws, Delta{AddOn: []uint64{5}}, Options{})
}

func TestDeltaValidation(t *testing.T) {
	f := bfunc.NewDC(4, []uint64{1, 2}, []uint64{7})
	_, ws, err := MinimizeExactWarm(f, Options{})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		d    Delta
	}{
		{"add already ON", Delta{AddOn: []uint64{1}}},
		{"remove not ON", Delta{RemoveOn: []uint64{3}}},
		{"dc_add already DC", Delta{AddDC: []uint64{7}}},
		{"dc_add ON point", Delta{AddDC: []uint64{1}}},
		{"dc_remove not DC", Delta{RemoveDC: []uint64{3}}},
		{"add out of range", Delta{AddOn: []uint64{16}}},
		{"add and remove same", Delta{AddOn: []uint64{3}, RemoveOn: []uint64{3}}},
		{"on and dc same add", Delta{AddOn: []uint64{3}, AddDC: []uint64{3}}},
	}
	for _, tc := range cases {
		if _, _, err := ResumeExact(ws, tc.d, Options{}); err == nil {
			t.Errorf("%s: expected error", tc.name)
		}
	}
	// Legal compound move: ON → DC.
	if _, _, err := ResumeExact(ws, Delta{RemoveOn: []uint64{1}, AddDC: []uint64{1}}, Options{}); err != nil {
		t.Errorf("ON→DC move rejected: %v", err)
	}
	// Legal compound move: DC → ON.
	if _, _, err := ResumeExact(ws, Delta{AddOn: []uint64{7}}, Options{}); err != nil {
		t.Errorf("DC→ON move rejected: %v", err)
	}
}

func TestResumeCostMismatch(t *testing.T) {
	f := bfunc.New(4, []uint64{1, 2, 3})
	_, ws, err := MinimizeExactWarm(f, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := ResumeExact(ws, Delta{AddOn: []uint64{4}}, Options{Cost: CostFactors}); err == nil {
		t.Fatal("expected cost-kind mismatch error")
	}
	if _, _, err := ResumeExact(nil, Delta{}, Options{}); err == nil {
		t.Fatal("expected nil warm state error")
	}
}

func TestResumeBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	f := randomFunc(rng, 6, 0.4, false)
	_, ws, err := MinimizeExactWarm(f, Options{})
	if err != nil {
		t.Fatal(err)
	}
	d := randomDelta(rng, f, 4)
	if _, _, err := ResumeExact(ws, d, Options{MaxCandidates: 2}); err != ErrBudget {
		t.Fatalf("expected ErrBudget, got %v", err)
	}
}

// TestResumeBudgetMatchesCold holds a resume to the cap a cold run of
// the edited function hits: with MaxCandidates at the edited function's
// cold Candidates both succeed, and one below both return ErrBudget. A
// resume that charged only its new entries would pass the lower cap
// and let a delta chain grow past MaxCandidates.
func TestResumeBudgetMatchesCold(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 12; trial++ {
		f := randomFunc(rng, 5+trial%2, 0.4, trial%3 == 0)
		_, ws, err := MinimizeExactWarm(f, Options{})
		if err != nil {
			t.Fatal(err)
		}
		d := randomDelta(rng, f, 1+trial%4)
		edited, err := ws.Apply(d)
		if err != nil {
			t.Fatal(err)
		}
		cold, _, err := MinimizeExactWarm(edited, Options{})
		if err != nil {
			t.Fatal(err)
		}
		limit := cold.Build.Candidates
		if limit == 0 {
			continue
		}
		if _, _, err := MinimizeExactWarm(edited, Options{MaxCandidates: limit}); err != nil {
			t.Fatalf("trial %d: cold at its own count %d: %v", trial, limit, err)
		}
		warm, _, err := ResumeExact(ws, d, Options{MaxCandidates: limit})
		if err != nil {
			t.Fatalf("trial %d: resume at the cold count %d: %v", trial, limit, err)
		}
		if warm.Build.Candidates != limit {
			t.Fatalf("trial %d: resume built %d candidates, cold %d", trial, warm.Build.Candidates, limit)
		}
		if _, _, err := MinimizeExactWarm(edited, Options{MaxCandidates: limit - 1}); !errors.Is(err, ErrBudget) {
			t.Fatalf("trial %d: cold at cap %d returned %v, want ErrBudget", trial, limit-1, err)
		}
		if _, _, err := ResumeExact(ws, d, Options{MaxCandidates: limit - 1}); !errors.Is(err, ErrBudget) {
			t.Fatalf("trial %d: resume at cap %d returned %v, want ErrBudget", trial, limit-1, err)
		}
	}
}

func TestWarmChurn(t *testing.T) {
	f := bfunc.NewDC(4, []uint64{1, 2}, []uint64{7})
	_, ws, err := MinimizeExactWarm(f, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// ON→OFF (1 leaves care), OFF→ON (1 enters), DC→ON (stays in care).
	churn, err := ws.Churn(Delta{RemoveOn: []uint64{1}, AddOn: []uint64{4, 7}})
	if err != nil {
		t.Fatal(err)
	}
	if churn != 2 {
		t.Fatalf("churn: got %d want 2", churn)
	}
}

func TestResumeConcurrent(t *testing.T) {
	// Many concurrent resumes from one shared snapshot, with parallel
	// covering workers, must neither race nor diverge. Run under
	// -race via make check-race.
	rng := rand.New(rand.NewSource(9))
	f := randomFunc(rng, 7, 0.3, true)
	_, ws, err := MinimizeExactWarm(f, Options{})
	if err != nil {
		t.Fatal(err)
	}
	type job struct {
		d    Delta
		want string
	}
	jobs := make([]job, 8)
	opts := Options{Workers: 4, CoverWorkers: 4}
	for i := range jobs {
		d := randomDelta(rng, f, 2+i%3)
		edited, err := ws.Apply(d)
		if err != nil {
			t.Fatal(err)
		}
		cold, _, err := MinimizeExactWarm(edited, opts)
		if err != nil {
			t.Fatal(err)
		}
		jobs[i] = job{d: d, want: cold.Form.String()}
	}
	var wg sync.WaitGroup
	errs := make([]error, len(jobs))
	for i := range jobs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, _, err := ResumeExact(ws, jobs[i].d, opts)
			if err != nil {
				errs[i] = err
				return
			}
			if got := res.Form.String(); got != jobs[i].want {
				errs[i] = fmt.Errorf("form mismatch: got %s want %s", got, jobs[i].want)
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("job %d: %v", i, err)
		}
	}
}

func TestDiffIntersectSorted(t *testing.T) {
	a := []uint64{1, 3, 5, 7}
	b := []uint64{3, 4, 7, 9}
	if got := fmt.Sprint(diffSorted(a, b)); got != "[1 5]" {
		t.Fatalf("diff: %s", got)
	}
	if got := fmt.Sprint(intersectSorted(a, b)); got != "[3 7]" {
		t.Fatalf("intersect: %s", got)
	}
	if got := diffSorted(nil, b); got != nil {
		t.Fatalf("diff nil: %v", got)
	}
}

func FuzzDeltaEquivalence(f *testing.F) {
	f.Add(uint64(0x1234), uint64(0x00ff), uint64(0x0f0f), uint64(0x3))
	f.Add(uint64(1), uint64(0xffff), uint64(0), uint64(0x8001))
	f.Add(uint64(99), uint64(0xaaaa), uint64(0x5555), uint64(0x1111))
	f.Fuzz(func(t *testing.T, seed, onBits, dcBits, editBits uint64) {
		const n = 4 // 16-point space: every mask bit is a point
		var on, dc []uint64
		for p := uint64(0); p < 1<<n; p++ {
			switch {
			case onBits&(1<<p) != 0:
				on = append(on, p)
			case dcBits&(1<<p) != 0:
				dc = append(dc, p)
			}
		}
		fn := bfunc.NewDC(n, on, dc)
		base, ws, err := MinimizeExactWarm(fn, Options{})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(seed)))
		var d Delta
		for p := uint64(0); p < 1<<n; p++ {
			if editBits&(1<<p) == 0 {
				continue
			}
			switch {
			case fn.IsOn(p):
				d.RemoveOn = append(d.RemoveOn, p)
				if rng.Intn(2) == 0 {
					d.AddDC = append(d.AddDC, p)
				}
			case fn.IsDC(p):
				if rng.Intn(2) == 0 {
					d.AddOn = append(d.AddOn, p)
				} else {
					d.RemoveDC = append(d.RemoveDC, p)
				}
			default:
				if rng.Intn(2) == 0 {
					d.AddOn = append(d.AddOn, p)
				} else {
					d.AddDC = append(d.AddDC, p)
				}
			}
		}
		edited, err := ws.Apply(d)
		if err != nil {
			t.Fatal(err)
		}
		warm, nws, err := ResumeExact(ws, d, Options{})
		if err != nil {
			t.Fatal(err)
		}
		cold, cws, err := MinimizeExactWarm(edited, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if warm.Form.String() != cold.Form.String() {
			t.Fatalf("form mismatch:\nwarm %s\ncold %s", warm.Form, cold.Form)
		}
		if warm.Build.EPPP != cold.Build.EPPP {
			t.Fatalf("EPPP: warm %d cold %d", warm.Build.EPPP, cold.Build.EPPP)
		}
		if err := warm.Form.Verify(edited); err != nil {
			t.Fatal(err)
		}
		// Structural identity of the two snapshots: every entry's
		// expression, discard count, point signature and candidate bit,
		// the covered-ON lists, and the charged bytes.
		requireWarmEqual(t, nws, cws)
		if nws.Bytes() != cws.Bytes() {
			t.Fatalf("bytes: warm %d cold %d", nws.Bytes(), cws.Bytes())
		}
		// The reverse edit, resumed from the resumed state, lands on the
		// cold run of the original function.
		back, bws, err := ResumeExact(nws, deltaBetween(edited, fn), Options{})
		if err != nil {
			t.Fatal(err)
		}
		if back.Form.String() != base.Form.String() {
			t.Fatalf("reverse form mismatch:\nwarm %s\ncold %s", back.Form, base.Form)
		}
		requireWarmEqual(t, bws, ws)
	})
}

// deltaBetween returns the edit that turns from into to, two functions
// over the same B^n.
func deltaBetween(from, to *bfunc.Func) Delta {
	var d Delta
	for p := uint64(0); p < 1<<uint(from.N()); p++ {
		switch {
		case from.IsOn(p) && !to.IsOn(p):
			d.RemoveOn = append(d.RemoveOn, p)
		case !from.IsOn(p) && to.IsOn(p):
			d.AddOn = append(d.AddOn, p)
		}
		switch {
		case from.IsDC(p) && !to.IsDC(p) && !to.IsOn(p):
			d.RemoveDC = append(d.RemoveDC, p)
		case !from.IsDC(p) && to.IsDC(p):
			d.AddDC = append(d.AddDC, p)
		}
	}
	return d
}
