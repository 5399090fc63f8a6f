package service

// The portfolio routing layer: the "form" request field selects one
// backend of internal/engine (or, with form=auto, races every eligible
// backend under ONE admission slot and one budget). Results cache
// per-(canonical key, backend salt), so a warm SPP entry never masks a
// cheaper ESOP answer; the auto verdict additionally caches under its
// own derived key so repeat auto requests are single-probe hits.
// docs/forms.md is the normative contract.

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/bfunc"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/fcache"
	"repro/internal/stats"
)

// normalizeForm resolves the request's form field and enforces the
// option matrix: algorithm/k and factor_cost belong to the SPP
// backend, exact_cover to the covering backends (spp, sop, and auto —
// which races both), accept_literals to the auto race. It returns q
// with the form and the SPP engine spelled the way the spp salt keys
// them: no algorithm is exact, spp_k is sppk, and exact and naive
// ignore k (keyed k=0); sppk needs k in [0, n-1].
func (s *Server) normalizeForm(q Request, n int) (Request, error) {
	if q.Form == "" {
		q.Form = "spp"
	}
	switch q.Form {
	case "spp":
		if q.AcceptLiterals != 0 {
			return Request{}, fmt.Errorf("accept_literals applies only to form \"auto\"")
		}
	case "sop", "esop", "dsop":
		if q.Algorithm != "" || q.K != 0 {
			return Request{}, fmt.Errorf("algorithm/k apply only to form \"spp\", not %q", q.Form)
		}
		if q.FactorCost {
			return Request{}, fmt.Errorf("factor_cost applies only to form \"spp\", not %q", q.Form)
		}
		if q.ExactCover && q.Form != "sop" {
			return Request{}, fmt.Errorf("exact_cover applies to forms \"spp\" and \"sop\", not %q", q.Form)
		}
		if q.AcceptLiterals != 0 {
			return Request{}, fmt.Errorf("accept_literals applies only to form \"auto\"")
		}
	case "auto":
		if q.Algorithm != "" || q.K != 0 {
			return Request{}, fmt.Errorf("algorithm/k apply only to form \"spp\"; auto races the default engines")
		}
		if q.FactorCost {
			// Racing needs one shared cost model; factor cost would score
			// the SPP entrant on a different axis than its rivals.
			return Request{}, fmt.Errorf("factor_cost is incompatible with form \"auto\" (the race compares literal counts)")
		}
		if q.AcceptLiterals < 0 {
			return Request{}, fmt.Errorf("accept_literals must be >= 0")
		}
	default:
		return Request{}, fmt.Errorf("unknown form %q (have spp, sop, esop, dsop, auto)", q.Form)
	}
	if q.Form != "auto" {
		if _, ok := s.registry.Get(q.Form); !ok {
			return Request{}, fmt.Errorf("form %q is disabled on this server (enabled: %s)",
				q.Form, strings.Join(s.registry.NamesEnabled(), ", "))
		}
	}
	if q.Form == "spp" {
		switch q.Algorithm {
		case "", "exact":
			q.Algorithm, q.K = "exact", 0
		case "naive":
			q.K = 0
		case "sppk", "spp_k":
			if q.K < 0 || q.K > n-1 {
				return Request{}, fmt.Errorf("k=%d outside [0, %d]", q.K, n-1)
			}
			q.Algorithm = "sppk"
		default:
			return Request{}, fmt.Errorf("unknown algorithm %q", q.Algorithm)
		}
	}
	return q, nil
}

// engineOptions assembles one backend run's options from a request in
// normalizeForm's spelling. The SPP entrant of an auto race runs the
// exact engine (normalizeForm rejects algorithm/k for non-spp forms).
func (s *Server) engineOptions(ctx context.Context, q Request) engine.Options {
	opts := engine.Options{
		Core:      s.cfg.Core.CoreOptions(),
		Algorithm: q.Algorithm,
		K:         q.K,
		Target:    q.AcceptLiterals,
	}
	opts.Core.Ctx = ctx
	opts.Core.CoverExact = q.ExactCover
	if q.FactorCost {
		opts.Core.Cost = core.CostFactors
	}
	return opts
}

// processForm serves an explicit form: one backend's result, cached
// under the canonical key salted with that backend's options. Exact
// SPP on a WarmCache server runs computeWarm instead, so its responses
// also carry the base_key delta requests chain on.
func (s *Server) processForm(ctx context.Context, q Request, f, canon *bfunc.Func, canonKey fcache.Key, perm []int) Response {
	b, _ := s.registry.Get(q.Form) // normalizeForm already vetted it
	if !b.SupportsDC() && len(f.DC()) > 0 {
		return badRequest(fmt.Errorf("form %q requires a completely specified function (drop the dc set)", q.Form))
	}
	opts := s.engineOptions(ctx, q)
	salt := b.Salt(opts)
	key := canonKey.Derive(salt)
	fl := flight{key: key, valid: func(e cacheEntry) bool { return e.canon.Equal(canon) }}
	// Warm-enabled exact runs retain one resumable engine state per
	// canonical class plus a thin per-client pointer under the
	// exact-function key, advertised as base_key for delta requests.
	warm := s.cfg.WarmCache && q.Algorithm == "exact"
	var warmKey fcache.Key
	if warm {
		warmKey = fcache.WarmPointerKey(fcache.KeyOf(f), salt)
		fl.compute = func(waiters func() int64) (cacheEntry, *stats.Report, error) {
			return s.computeWarm(ctx, key, warmKey, f, canon, perm, salt, opts, waiters)
		}
	} else {
		fl.compute = func(waiters func() int64) (cacheEntry, *stats.Report, error) {
			return s.computeEngine(ctx, b, key, canon, opts, waiters)
		}
	}

	e, rep, oc, err := s.resolve(ctx, fl, q.NoCache)
	if err != nil {
		return failure(ctx, err, oc)
	}
	resp := render(q, e, fcache.InversePerm(perm), oc, rep)
	resp.Key = key.String()
	if warm && (oc == outcomeComputed || s.keepsBaseKey(e, warmKey, f, canon, perm, salt)) {
		resp.BaseKey = warmKey.String()
	}
	return resp
}

// computeEngine runs one backend under its own admission slot and
// caches the canonical-space result under its salted key. SPP runs are
// filed in the run history under their engine (exact, naive, sppk).
func (s *Server) computeEngine(ctx context.Context, b engine.Backend, key fcache.Key, canon *bfunc.Func, opts engine.Options, waiters func() int64) (cacheEntry, *stats.Report, error) {
	label := b.Name()
	if opts.Algorithm != "" {
		label = opts.Algorithm
	}
	var res *engine.Result
	rep, err := s.run(ctx, label, waiters, func(rec *stats.Recorder) (err error) {
		opts.Core.Stats = rec
		res, err = b.Minimize(ctx, canon, opts)
		return err
	})
	if err != nil {
		return cacheEntry{}, nil, err
	}
	e := cacheEntry{
		canon:        canon,
		form:         res.Form,
		kind:         b.Name(),
		eppp:         res.EPPP,
		coverOptimal: res.Optimal,
	}
	s.cache.Put(key, e)
	return e, rep, nil
}

// autoTag derives the auto verdict's own cache-key salt: it must
// change when the set of raced backends or the acceptance mode does,
// since either changes which entry the verdict may name.
func autoTag(salts []string, accept int) string {
	return fmt.Sprintf("form=auto;accept=%d;over=%s", accept, strings.Join(salts, "|"))
}

// processAuto races the eligible backends. Backends with a cached
// result for this canonical class skip recomputation — their cached
// cost joins the comparison — and each fresh result lands under its
// own per-backend key before the verdict is picked, so the best-cost
// answer is deterministic whether it came from cache or race. The
// whole race (all entrant goroutines) runs under ONE admission slot.
// The verdict resolves under the auto key like any other result; the
// response names the winning backend's own key, so clients can
// re-request that form directly.
func (s *Server) processAuto(ctx context.Context, q Request, canon *bfunc.Func, canonKey fcache.Key, perm []int) Response {
	eligible := s.registry.Eligible(canon)
	if len(eligible) == 0 {
		return badRequest(fmt.Errorf("no eligible backends: the function has don't-cares and every enabled form (%s) requires complete specification",
			strings.Join(s.registry.NamesEnabled(), ", ")))
	}
	opts := s.engineOptions(ctx, q)
	sameCanon := func(e cacheEntry) bool { return e.canon.Equal(canon) }
	keys := make([]fcache.Key, len(eligible))
	salts := make([]string, len(eligible))
	for i, b := range eligible {
		salts[i] = b.Salt(opts)
		keys[i] = canonKey.Derive(salts[i])
	}
	autoKey := canonKey.Derive(autoTag(salts, q.AcceptLiterals))

	// best picks the deterministic verdict: minimum literal count, ties
	// to the earliest backend in canonical registry order.
	best := func(entries []*cacheEntry) int {
		win := -1
		for i, e := range entries {
			if e == nil {
				continue
			}
			if win == -1 || e.form.Literals() < entries[win].form.Literals() {
				win = i
			}
		}
		return win
	}

	// raceMissing computes every backend lacking a cached entry and
	// returns the verdict entry, with the race's report when one ran.
	raceMissing := func(waiters func() int64) (cacheEntry, *stats.Report, error) {
		entries := make([]*cacheEntry, len(eligible))
		var missing []engine.Backend
		var missingIdx []int
		for i, b := range eligible {
			if q.NoCache {
				missing = append(missing, b)
				missingIdx = append(missingIdx, i)
				continue
			}
			if e, ok := s.cache.GetIf(keys[i], sameCanon); ok {
				entries[i] = &e
				continue
			}
			missing = append(missing, b)
			missingIdx = append(missingIdx, i)
		}

		// First-acceptable mode: a cached entry at or under the target
		// settles the verdict without racing the missing backends.
		if q.AcceptLiterals > 0 {
			for _, e := range entries {
				if e != nil && e.form.Literals() <= q.AcceptLiterals {
					missing, missingIdx = nil, nil
					break
				}
			}
		}

		var raceErr error
		var rep *stats.Report
		if len(missing) > 0 {
			release, err := s.acquireSlot(ctx)
			if err != nil {
				return cacheEntry{}, nil, err
			}
			rec := stats.New()
			ropts := opts
			ropts.Core.Stats = rec
			rr, err := engine.Race(ctx, missing, canon, ropts)
			release()
			raceErr = err
			for j, res := range rr.Results {
				if res == nil {
					continue
				}
				i := missingIdx[j]
				e := cacheEntry{
					canon:        canon,
					form:         res.Form,
					kind:         missing[j].Name(),
					eppp:         res.EPPP,
					coverOptimal: res.Optimal,
				}
				s.cache.Put(keys[i], e)
				entries[i] = &e
			}
			rep = s.recordRun(rec, "auto", waiters)
			win := best(entries)
			s.statsMu.Lock()
			s.ctr.engineRaces++
			s.ctr.engineCancelled += int64(rr.Cancelled)
			if win >= 0 {
				if s.ctr.winsByForm == nil {
					s.ctr.winsByForm = make(map[string]int64)
				}
				s.ctr.winsByForm[entries[win].kind]++
			}
			s.statsMu.Unlock()
		}

		win := best(entries)
		if win == -1 {
			if raceErr != nil {
				return cacheEntry{}, nil, raceErr
			}
			return cacheEntry{}, nil, ctx.Err()
		}
		verdict := *entries[win]
		if !q.NoCache {
			s.cache.Put(autoKey, verdict)
		}
		return verdict, rep, nil
	}

	e, rep, oc, err := s.resolve(ctx, flight{key: autoKey, valid: sameCanon, compute: raceMissing}, q.NoCache)
	if err != nil {
		return failure(ctx, err, oc)
	}
	resp := render(q, e, fcache.InversePerm(perm), oc, rep)
	resp.Key = autoKey.String()
	for i, b := range eligible {
		if b.Name() == e.kind {
			resp.Key = keys[i].String()
		}
	}
	return resp
}
