// Package engine is the portfolio layer that turns the SPP service
// into a general three-level-logic service: one Backend interface over
// the repo's minimizers — SPP (internal/core), SOP (internal/sp, which
// dispatches Quine–McCluskey or the ESPRESSO-style loop), ESOP
// (internal/fprm fixed-polarity Reed–Muller) and DSOP (internal/dsop
// BDD one-paths) — plus a Race that runs eligible backends in parallel
// under one budget and picks the best result by the shared cost model,
// literal count (#L).
//
// Contract highlights (docs/forms.md is normative):
//
//   - Every backend reports cost as Form.Literals(); forms from
//     different backends are directly comparable.
//   - Each backend declares a canonical cache-key salt (Salt) so its
//     results occupy their own cache entries: a warm SPP entry can
//     never mask a cheaper ESOP answer.
//   - Race's returned cost is deterministic: without an acceptance
//     target every backend runs to completion and the minimum literal
//     count wins, ties broken by registry order. Which backend produced
//     the winning cost may vary run to run only among cost-ties — a
//     scheduling property, split from the deterministic cost exactly
//     like the stats layer's deterministic-vs-sched counters. With a
//     Target set, the first result at or under the target wins and the
//     rest are cancelled via context ("first-acceptable" mode; the
//     returned cost is then only guaranteed ≤ Target).
package engine

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/bfunc"
	"repro/internal/core"
)

// Options carries everything a backend run needs. Core holds the
// shared bounds (budgets, worker counts, Ctx, Stats, CoverExact, cost
// kind); Algorithm and K select the SPP engine variant and are ignored
// by every other backend.
type Options struct {
	Core core.Options
	// Algorithm is the SPP engine: "exact" (default) or "sppk". The
	// paper's naive baseline is not a backend; spptables runs it
	// through core.MinimizeNaive.
	Algorithm string
	// K is SPP_k's degree bound (Algorithm == "sppk" only).
	K int
	// Target, when positive, is Race's acceptance threshold: the first
	// result with Literals() <= Target wins immediately and the
	// remaining backends are cancelled.
	Target int
}

// Form is one minimized expression, independent of which backend
// produced it. Implementations are canonical-space values stored in
// the service cache; Permute maps them into a client's variable order
// on the way out (perm follows pcube.CEX.PermuteVars: variable x_i
// moves to x_perm[i]).
type Form interface {
	fmt.Stringer
	// Literals is the shared cost model (#L).
	Literals() int
	// NumTerms counts the summed products.
	NumTerms() int
	// Eval reports the form's value on a packed point.
	Eval(p uint64) bool
	// Permute returns the form over renamed variables.
	Permute(perm []int) Form
	// Bytes estimates the form's resident footprint for the size-aware
	// cache.
	Bytes() int64
}

// Result is one backend's answer.
type Result struct {
	Form Form
	// EPPP is the SPP backend's extended-prime count (0 elsewhere).
	EPPP int
	// Optimal reports a proven minimum within the backend's own form
	// class (exact covering, exhaustive polarity search); heuristic
	// answers report false.
	Optimal bool
}

// Backend is one minimization engine adapted onto the portfolio.
// Implementations are stateless and safe for concurrent use.
type Backend interface {
	// Name is the form tag served in the API ("spp", "sop", ...).
	Name() string
	// Salt is the backend's canonical cache-key salt under opts: it
	// spells every option that can change this backend's successful
	// result, and nothing else, so results cache per-(canonical key,
	// backend tag).
	Salt(opts Options) string
	// SupportsDC reports whether the backend accepts incompletely
	// specified functions.
	SupportsDC() bool
	// Minimize computes a minimized form of f. ctx overrides
	// opts.Core.Ctx; budget- and unsupported-shape failures return
	// errors (core.ErrBudget-wrapped where a larger budget could
	// succeed).
	Minimize(ctx context.Context, f *bfunc.Func, opts Options) (*Result, error)
}

// Names lists every backend in canonical registry order — also the
// deterministic tie-break order of Race.
func Names() []string { return []string{"spp", "sop", "esop", "dsop"} }

// Registry is an ordered set of enabled backends.
type Registry struct {
	backends []Backend
	byName   map[string]Backend
}

// NewRegistry builds a registry of the named backends in canonical
// order (duplicates collapse). An empty name list enables all of them.
func NewRegistry(names ...string) (*Registry, error) {
	all := map[string]Backend{
		"spp":  sppBackend{},
		"sop":  sopBackend{},
		"esop": esopBackend{},
		"dsop": dsopBackend{},
	}
	want := map[string]bool{}
	if len(names) == 0 {
		for n := range all {
			want[n] = true
		}
	}
	for _, n := range names {
		if _, ok := all[n]; !ok {
			return nil, fmt.Errorf("engine: unknown backend %q (have %v)", n, Names())
		}
		want[n] = true
	}
	r := &Registry{byName: map[string]Backend{}}
	for _, n := range Names() {
		if want[n] {
			b := all[n]
			r.backends = append(r.backends, b)
			r.byName[n] = b
		}
	}
	return r, nil
}

// Get returns the named backend if enabled.
func (r *Registry) Get(name string) (Backend, bool) {
	b, ok := r.byName[name]
	return b, ok
}

// Backends returns the enabled backends in canonical order. The caller
// must not mutate the slice.
func (r *Registry) Backends() []Backend { return r.backends }

// NamesEnabled returns the enabled backend names in canonical order.
func (r *Registry) NamesEnabled() []string {
	out := make([]string, len(r.backends))
	for i, b := range r.backends {
		out[i] = b.Name()
	}
	return out
}

// Eligible returns the enabled backends that can minimize f: all of
// them for completely specified functions, only the DC-capable ones
// otherwise.
func (r *Registry) Eligible(f *bfunc.Func) []Backend {
	if len(f.DC()) == 0 {
		return r.backends
	}
	var out []Backend
	for _, b := range r.backends {
		if b.SupportsDC() {
			out = append(out, b)
		}
	}
	return out
}

// RaceResult reports one portfolio race. Results, Errs and Elapsed are
// index-aligned with the raced backend slice; a backend that errored
// has a nil Result.
type RaceResult struct {
	// Winner indexes the winning backend, -1 when every backend failed.
	Winner int
	// Results holds each backend's answer (nil on error).
	Results []*Result
	// Errs holds each backend's failure (nil on success).
	Errs []error
	// Elapsed is each backend's wall time (cancelled backends report
	// time until cancellation).
	Elapsed []time.Duration
	// Cancelled counts backends cut off by an early acceptance win
	// before finishing.
	Cancelled int
}

// Race runs every backend on f concurrently and picks the winner.
// Without opts.Target, all backends run to completion and the minimum
// literal count wins (ties: lowest index — registry order), so the
// returned cost is deterministic under fixed budgets regardless of
// scheduling. With opts.Target > 0, the first result at or under the
// target wins immediately and still-running backends are cancelled via
// a shared child context (counted in Cancelled).
//
// An error is returned only when every backend fails; it is the first
// backend's error in index order, so the failure is deterministic too.
func Race(ctx context.Context, backends []Backend, f *bfunc.Func, opts Options) (*RaceResult, error) {
	rr := &RaceResult{
		Winner:  -1,
		Results: make([]*Result, len(backends)),
		Errs:    make([]error, len(backends)),
		Elapsed: make([]time.Duration, len(backends)),
	}
	if len(backends) == 0 {
		return rr, fmt.Errorf("engine: no eligible backends")
	}
	raceCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	var mu sync.Mutex
	accepted := -1 // lowest-index accepted result so far (Target mode)
	var wg sync.WaitGroup
	for i, b := range backends {
		wg.Add(1)
		go func(i int, b Backend) {
			defer wg.Done()
			start := time.Now()
			res, err := b.Minimize(raceCtx, f, opts)
			elapsed := time.Since(start)
			mu.Lock()
			defer mu.Unlock()
			rr.Results[i], rr.Errs[i], rr.Elapsed[i] = res, err, elapsed
			if err != nil && raceCtx.Err() != nil && ctx.Err() == nil {
				// Lost to an early acceptance cancel, not to the caller's
				// deadline: not a real failure.
				rr.Results[i], rr.Errs[i] = nil, nil
				rr.Cancelled++
				return
			}
			if opts.Target > 0 && err == nil && res.Form.Literals() <= opts.Target {
				if accepted == -1 || i < accepted {
					accepted = i
				}
				cancel()
			}
		}(i, b)
	}
	wg.Wait()

	if accepted >= 0 {
		rr.Winner = accepted
		return rr, nil
	}
	// Best-cost mode (or no result met the target): deterministic pick —
	// minimum literal count, ties to the lowest index.
	for i, res := range rr.Results {
		if res == nil {
			continue
		}
		if rr.Winner == -1 || res.Form.Literals() < rr.Results[rr.Winner].Form.Literals() {
			rr.Winner = i
		}
	}
	if rr.Winner == -1 {
		for _, err := range rr.Errs {
			if err != nil {
				return rr, err
			}
		}
		return rr, ctx.Err()
	}
	return rr, nil
}
