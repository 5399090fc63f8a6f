package core

import (
	"errors"
	"math/rand"
	"testing"
	"time"

	"repro/internal/bench"
)

// TestParallelBudgetExhaustion checks that budget limits hold for
// every Workers setting: a tiny candidate cap must surface ErrBudget
// (never a wrong result, never a hang) and a tiny deadline likewise.
func TestParallelBudgetExhaustion(t *testing.T) {
	f := randomFunc(rand.New(rand.NewSource(15)), 5, 0.5, false)
	// The deadline is polled every 1024 credits, so the wall-clock check
	// needs a function that generates well past that many candidates.
	big := randomFunc(rand.New(rand.NewSource(16)), 8, 0.5, false)
	for _, w := range []int{1, 2, 4, 8} {
		if _, err := BuildEPPP(f, Options{Workers: w, MaxCandidates: 8}); !errors.Is(err, ErrBudget) {
			t.Fatalf("workers %d: MaxCandidates=8 returned %v, want ErrBudget", w, err)
		}
		if _, err := Heuristic(f, 2, Options{Workers: w, MaxCandidates: 8}); !errors.Is(err, ErrBudget) {
			t.Fatalf("workers %d: heuristic MaxCandidates=8 returned %v, want ErrBudget", w, err)
		}
		if _, err := BuildEPPP(big, Options{Workers: w, MaxDuration: time.Nanosecond}); !errors.Is(err, ErrBudget) {
			t.Fatalf("workers %d: MaxDuration=1ns returned %v, want ErrBudget", w, err)
		}
	}
}

// TestMaxCandidatesExact holds MaxCandidates to an exact cap under
// default Options: a limit equal to the run's own Stats.Candidates
// succeeds and one less returns ErrBudget, for the exact build and for
// SPP_1, on Table 1/2 outputs large enough to span many groups.
func TestMaxCandidatesExact(t *testing.T) {
	for _, c := range []struct {
		name string
		out  int
	}{{"m3", 3}, {"max512", 5}, {"mlp4", 2}} {
		f := bench.MustLoad(c.name).Output(c.out)
		set, err := BuildEPPP(f, Options{})
		if err != nil {
			t.Fatal(err)
		}
		cands := set.Stats.Candidates
		if _, err := BuildEPPP(f, Options{MaxCandidates: cands}); err != nil {
			t.Errorf("%s(%d): BuildEPPP with MaxCandidates=%d (its own count): %v", c.name, c.out, cands, err)
		}
		if _, err := BuildEPPP(f, Options{MaxCandidates: cands - 1}); !errors.Is(err, ErrBudget) {
			t.Errorf("%s(%d): BuildEPPP with MaxCandidates=%d returned %v, want ErrBudget", c.name, c.out, cands-1, err)
		}

		res, err := Heuristic(f, 1, Options{})
		if err != nil {
			t.Fatal(err)
		}
		cands = res.Build.Candidates
		if _, err := Heuristic(f, 1, Options{MaxCandidates: cands}); err != nil {
			t.Errorf("%s(%d): Heuristic(k=1) with MaxCandidates=%d (its own count): %v", c.name, c.out, cands, err)
		}
		if _, err := Heuristic(f, 1, Options{MaxCandidates: cands - 1}); !errors.Is(err, ErrBudget) {
			t.Errorf("%s(%d): Heuristic(k=1) with MaxCandidates=%d returned %v, want ErrBudget", c.name, c.out, cands-1, err)
		}
	}
}
