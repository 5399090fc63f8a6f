package service

import (
	"encoding/json"
	"fmt"
	"net/http"
	"testing"

	"repro/internal/bfunc"
	"repro/internal/engine"
)

// TestFormsExplicit drives one request per explicit form value through
// the HTTP handler and pins each response against the engine backend
// called directly — the service must be a pure router on top of the
// portfolio, adding nothing to the rendered form or its cost.
func TestFormsExplicit(t *testing.T) {
	s := New(testConfig())
	h := s.Handler()
	on := []uint64{1, 2, 4, 7, 8, 11, 13, 14, 5}
	f := bfunc.New(4, on)
	reg, err := engine.NewRegistry()
	if err != nil {
		t.Fatal(err)
	}

	for _, form := range engine.Names() {
		t.Run(form, func(t *testing.T) {
			code, out := post(t, h, fmt.Sprintf(`{"n":4,"on":%s,"form":%q}`, pointsJSON(on), form))
			if code != http.StatusOK {
				t.Fatalf("status %d: %s", code, out)
			}
			r := decodeResp(t, out)
			if r.FormKind != form {
				t.Fatalf("form_kind %q, want %q", r.FormKind, form)
			}
			b, _ := reg.Get(form)
			want, err := b.Minimize(t.Context(), f, engine.Options{})
			if err != nil {
				t.Fatal(err)
			}
			// The service permutes results out of canonical space, which
			// sorts terms; the identity permutation applies the same
			// normalization to the direct backend answer.
			wantForm := want.Form.Permute([]int{0, 1, 2, 3})
			if r.Form != wantForm.String() || r.Literals != wantForm.Literals() || r.NumTerms != wantForm.NumTerms() {
				t.Fatalf("served %q (#L=%d), backend says %q (#L=%d)",
					r.Form, r.Literals, wantForm, wantForm.Literals())
			}
			if r.CoverOptimal != want.Optimal {
				t.Fatalf("cover_optimal %v, backend says %v", r.CoverOptimal, want.Optimal)
			}

			// Second request: a hit under the same per-backend key.
			code, out = post(t, h, fmt.Sprintf(`{"n":4,"on":%s,"form":%q}`, pointsJSON(on), form))
			if code != http.StatusOK {
				t.Fatalf("warm status %d: %s", code, out)
			}
			if r := decodeResp(t, out); !r.Cached || r.FormKind != form {
				t.Fatalf("second request not a cache hit for %s: %+v", form, r)
			}
		})
	}
}

// TestFormsValidation pins the 400 matrix: unknown forms, SPP-only
// options on other forms, auto-only options elsewhere, and DC sets on
// backends requiring complete specification.
func TestFormsValidation(t *testing.T) {
	s := New(testConfig())
	h := s.Handler()
	cases := []struct {
		name string
		body string
	}{
		{"unknown form", `{"n":3,"on":[1,2],"form":"pla"}`},
		{"algorithm on sop", `{"n":3,"on":[1,2],"form":"sop","algorithm":"sppk","k":2}`},
		{"k on esop", `{"n":3,"on":[1,2],"form":"esop","k":2}`},
		{"factor_cost on dsop", `{"n":3,"on":[1,2],"form":"dsop","factor_cost":true}`},
		{"factor_cost on auto", `{"n":3,"on":[1,2],"form":"auto","factor_cost":true}`},
		{"exact_cover on esop", `{"n":3,"on":[1,2],"form":"esop","exact_cover":true}`},
		{"accept_literals on spp", `{"n":3,"on":[1,2],"form":"spp","accept_literals":5}`},
		{"accept_literals on sop", `{"n":3,"on":[1,2],"form":"sop","accept_literals":5}`},
		{"esop with dc", `{"n":3,"on":[1],"dc":[2],"form":"esop"}`},
		{"dsop with dc", `{"n":3,"on":[1],"dc":[2],"form":"dsop"}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, out := post(t, h, tc.body)
			if code != http.StatusBadRequest {
				t.Fatalf("status %d, want 400: %s", code, out)
			}
		})
	}

	// DC sets stay legal on the forms that support them.
	for _, form := range []string{"spp", "sop", "auto"} {
		code, out := post(t, h, fmt.Sprintf(`{"n":3,"on":[1],"dc":[2],"form":%q}`, form))
		if code != http.StatusOK {
			t.Fatalf("form %s rejected a DC set: %d %s", form, code, out)
		}
	}
}

// TestFormAutoBestCost pins the determinism contract for the race:
// form=auto returns exactly the minimum literal count over the
// eligible backends, on every repetition, including forced re-races.
func TestFormAutoBestCost(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			cfg := testConfig()
			cfg.Core.CoverWorkers = workers
			cfg.MaxConcurrent = 4
			s := New(cfg)
			h := s.Handler()
			on := oddParity(4) // parity: ESOP should beat SPP and crush SOP
			f := bfunc.New(4, on)

			reg, err := engine.NewRegistry()
			if err != nil {
				t.Fatal(err)
			}
			best := -1
			for _, b := range reg.Backends() {
				res, err := b.Minimize(t.Context(), f, engine.Options{})
				if err != nil {
					t.Fatal(err)
				}
				if best == -1 || res.Form.Literals() < best {
					best = res.Form.Literals()
				}
			}

			body := fmt.Sprintf(`{"n":4,"on":%s,"form":"auto"}`, pointsJSON(on))
			for rep := 0; rep < 3; rep++ {
				code, out := post(t, h, body)
				if code != http.StatusOK {
					t.Fatalf("rep %d: status %d: %s", rep, code, out)
				}
				r := decodeResp(t, out)
				if r.Literals != best {
					t.Fatalf("rep %d: auto cost %d, want min-over-backends %d", rep, r.Literals, best)
				}
				if r.FormKind == "" || r.FormKind == "auto" {
					t.Fatalf("rep %d: auto verdict must name the winning backend, got %q", rep, r.FormKind)
				}
			}
			// Forced fresh races must land on the same cost too.
			for rep := 0; rep < 2; rep++ {
				code, out := post(t, h, fmt.Sprintf(`{"n":4,"on":%s,"form":"auto","no_cache":true}`, pointsJSON(on)))
				if code != http.StatusOK {
					t.Fatalf("no_cache rep %d: status %d: %s", rep, code, out)
				}
				if r := decodeResp(t, out); r.Literals != best {
					t.Fatalf("no_cache rep %d: auto cost %d, want %d", rep, r.Literals, best)
				}
			}
		})
	}
}

// TestFormAutoCacheInterplay pins the salting property end to end: a
// warm entry of one form must not satisfy a later form=auto request —
// the race still probes the other backends and returns the cheaper
// answer. Odd parity is the sharpest case: its SOP needs every
// minterm (32 literals at n=4) while its SPP is one pseudoproduct (4).
func TestFormAutoCacheInterplay(t *testing.T) {
	s := New(testConfig())
	h := s.Handler()
	on := oddParity(4)
	f := bfunc.New(4, on)

	// Warm the SOP slot first.
	code, out := post(t, h, fmt.Sprintf(`{"n":4,"on":%s,"form":"sop"}`, pointsJSON(on)))
	if code != http.StatusOK {
		t.Fatalf("sop warmup: %d %s", code, out)
	}
	sop := decodeResp(t, out)

	reg, err := engine.NewRegistry()
	if err != nil {
		t.Fatal(err)
	}
	best := -1
	for _, b := range reg.Backends() {
		res, err := b.Minimize(t.Context(), f, engine.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if best == -1 || res.Form.Literals() < best {
			best = res.Form.Literals()
		}
	}
	if best >= sop.Literals {
		t.Fatalf("test premise broken: want a backend cheaper than sop (%d), best %d", sop.Literals, best)
	}

	code, out = post(t, h, fmt.Sprintf(`{"n":4,"on":%s,"form":"auto"}`, pointsJSON(on)))
	if code != http.StatusOK {
		t.Fatalf("auto: %d %s", code, out)
	}
	auto := decodeResp(t, out)
	if auto.Cached {
		t.Fatal("warm sop entry masked the auto race")
	}
	if auto.Literals != best {
		t.Fatalf("auto after sop warmup: cost %d, want %d", auto.Literals, best)
	}
	if auto.FormKind == "sop" {
		t.Fatalf("auto picked the expensive cached sop answer (#L=%d) over best %d", sop.Literals, best)
	}

	// The per-form entries survive independently: an explicit sop
	// request still hits its own slot with the sop answer.
	code, out = post(t, h, fmt.Sprintf(`{"n":4,"on":%s,"form":"sop"}`, pointsJSON(on)))
	if code != http.StatusOK {
		t.Fatalf("sop reread: %d %s", code, out)
	}
	if r := decodeResp(t, out); !r.Cached || r.Literals != sop.Literals || r.FormKind != "sop" {
		t.Fatalf("sop entry lost after auto race: %+v", r)
	}
}

// TestFormAutoStatsz checks the race counters: races increment only on
// actual races, wins name the winning form, and the sums agree.
func TestFormAutoStatsz(t *testing.T) {
	s := New(testConfig())
	h := s.Handler()
	on := oddParity(4)

	code, out := post(t, h, fmt.Sprintf(`{"n":4,"on":%s,"form":"auto"}`, pointsJSON(on)))
	if code != http.StatusOK {
		t.Fatalf("auto: %d %s", code, out)
	}
	// A repeat serves the cached verdict — no second race.
	code, out = post(t, h, fmt.Sprintf(`{"n":4,"on":%s,"form":"auto"}`, pointsJSON(on)))
	if code != http.StatusOK {
		t.Fatalf("auto repeat: %d %s", code, out)
	}
	if r := decodeResp(t, out); !r.Cached {
		t.Fatalf("auto repeat not served from cache: %+v", r)
	}

	st := statszOf(t, h)
	if st.EngineRaces != 1 {
		t.Fatalf("engine_races = %d, want 1 (repeat must not re-race)", st.EngineRaces)
	}
	var wins int64
	for form, c := range st.EngineWinsByForm {
		ok := false
		for _, n := range engine.Names() {
			if form == n {
				ok = true
			}
		}
		if !ok {
			t.Fatalf("engine_wins_by_form names unknown form %q", form)
		}
		wins += c
	}
	if wins != st.EngineRaces {
		t.Fatalf("wins sum %d != races %d", wins, st.EngineRaces)
	}
	if st.EngineCancelled != 0 {
		t.Fatalf("best-cost race cancelled %d backends", st.EngineCancelled)
	}
}

// TestFormAutoAcceptLiterals: a generous target still returns a result
// at or under it; a zero target is plain best-cost.
func TestFormAutoAcceptLiterals(t *testing.T) {
	s := New(testConfig())
	h := s.Handler()
	on := oddParity(3)
	code, out := post(t, h, fmt.Sprintf(`{"n":3,"on":%s,"form":"auto","accept_literals":1000}`, pointsJSON(on)))
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, out)
	}
	r := decodeResp(t, out)
	if r.Literals > 1000 {
		t.Fatalf("accepted cost %d exceeds target", r.Literals)
	}
	if code, out := post(t, h, fmt.Sprintf(`{"n":3,"on":%s,"form":"auto","accept_literals":-1}`, pointsJSON(on))); code != http.StatusBadRequest {
		t.Fatalf("negative accept_literals: status %d: %s", code, out)
	}
}

// TestDeltaRejectsNonSPPForm pins the support matrix's 409: warm-state
// resume exists only for the SPP backend.
func TestDeltaRejectsNonSPPForm(t *testing.T) {
	cfg := testConfig()
	cfg.WarmCache = true
	s := New(cfg)
	h := s.Handler()
	for _, form := range []string{"sop", "esop", "dsop", "auto"} {
		code, out := post(t, h, fmt.Sprintf(`{"base":"zz","add":[3],"form":%q}`, form))
		if code != http.StatusConflict {
			t.Fatalf("form %s: status %d, want 409: %s", form, code, out)
		}
		var r Response
		if err := json.Unmarshal([]byte(out), &r); err != nil {
			t.Fatal(err)
		}
		if r.Code != "delta_unsupported_form" {
			t.Fatalf("form %s: code %q, want delta_unsupported_form", form, r.Code)
		}
	}
}

// TestFormsConfigSubset: a server restricted to a form subset rejects
// the rest and races only what is enabled.
func TestFormsConfigSubset(t *testing.T) {
	cfg := testConfig()
	cfg.Forms = []string{"spp", "esop"}
	s := New(cfg)
	h := s.Handler()
	on := oddParity(3)

	if code, out := post(t, h, fmt.Sprintf(`{"n":3,"on":%s,"form":"dsop"}`, pointsJSON(on))); code != http.StatusBadRequest {
		t.Fatalf("disabled form accepted: %d %s", code, out)
	}
	code, out := post(t, h, fmt.Sprintf(`{"n":3,"on":%s,"form":"auto"}`, pointsJSON(on)))
	if code != http.StatusOK {
		t.Fatalf("auto on subset: %d %s", code, out)
	}
	r := decodeResp(t, out)
	if r.FormKind != "spp" && r.FormKind != "esop" {
		t.Fatalf("auto raced a disabled backend: winner %q", r.FormKind)
	}

	// DC + a subset with no DC-capable backend → no eligible backends.
	cfg = testConfig()
	cfg.Forms = []string{"esop", "dsop"}
	s = New(cfg)
	h = s.Handler()
	if code, out := post(t, h, `{"n":3,"on":[1],"dc":[2],"form":"auto"}`); code != http.StatusBadRequest {
		t.Fatalf("DC race with no eligible backends: %d %s", code, out)
	}
}
