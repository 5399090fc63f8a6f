package core

import (
	"math/rand"
	"testing"

	"repro/internal/bfunc"
)

func verifyOutput(t *testing.T, form Form, f *bfunc.Func) {
	t.Helper()
	if err := form.Verify(f); err != nil {
		t.Fatal(err)
	}
}

func TestMinimizeMultiIdenticalOutputsShare(t *testing.T) {
	// Two identical outputs must share every term: joint cost = single
	// cost, half the stacked cost.
	f := bfunc.New(4, []uint64{1, 2, 4, 7, 8, 11, 13, 14}) // odd parity
	m := bfunc.NewMulti("twins", 4, []*bfunc.Func{f, f})
	res, err := MinimizeMulti(m, Options{CoverExact: true})
	if err != nil {
		t.Fatal(err)
	}
	for o := 0; o < 2; o++ {
		verifyOutput(t, res.Form(o), f)
	}
	single, err := MinimizeExact(f, Options{CoverExact: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.SharedLiterals != single.Form.Literals() {
		t.Fatalf("shared cost %d, single-output cost %d", res.SharedLiterals, single.Form.Literals())
	}
	if res.SeparateLiterals() != 2*single.Form.Literals() {
		t.Fatalf("separate cost %d, want %d", res.SeparateLiterals(), 2*single.Form.Literals())
	}
}

func TestMinimizeMultiRandomVerifies(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 10; trial++ {
		n := 4
		outs := make([]*bfunc.Func, 3)
		for o := range outs {
			var on []uint64
			for p := uint64(0); p < 16; p++ {
				if rng.Intn(3) == 0 {
					on = append(on, p)
				}
			}
			outs[o] = bfunc.New(n, on)
		}
		m := bfunc.NewMulti("rnd", n, outs)
		res, err := MinimizeMulti(m, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for o, f := range outs {
			verifyOutput(t, res.Form(o), f)
		}
		if res.SharedLiterals > res.SeparateLiterals() {
			t.Fatalf("shared %d > separate %d", res.SharedLiterals, res.SeparateLiterals())
		}
	}
}

func TestMinimizeMultiNeverWorseThanSeparateOnCost(t *testing.T) {
	// With exact covering, the joint optimum is at most the stacked
	// per-output optima (separate solutions are feasible jointly).
	rng := rand.New(rand.NewSource(22))
	for trial := 0; trial < 6; trial++ {
		n := 3
		outs := make([]*bfunc.Func, 2)
		for o := range outs {
			var on []uint64
			for p := uint64(0); p < 8; p++ {
				if rng.Intn(2) == 0 {
					on = append(on, p)
				}
			}
			outs[o] = bfunc.New(n, on)
		}
		m := bfunc.NewMulti("rnd", n, outs)
		opts := Options{CoverExact: true, CoverMaxNodes: 5_000_000}
		res, err := MinimizeMulti(m, opts)
		if err != nil {
			t.Fatal(err)
		}
		separate := 0
		for _, f := range outs {
			r, err := MinimizeExact(f, opts)
			if err != nil {
				t.Fatal(err)
			}
			separate += r.Form.Literals()
		}
		if res.SharedLiterals > separate {
			t.Fatalf("joint %d worse than separate %d", res.SharedLiterals, separate)
		}
	}
}

func TestMinimizeMultiEmptyAndBudget(t *testing.T) {
	m := bfunc.NewMulti("empty", 3, []*bfunc.Func{bfunc.New(3, nil)})
	res, err := MinimizeMulti(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Terms) != 0 {
		t.Fatalf("empty design produced terms: %v", res.Terms)
	}
	big := bfunc.NewMulti("big", 5, []*bfunc.Func{
		bfunc.FromPredicate(5, func(p uint64) bool { return p%3 == 0 }),
	})
	if _, err := MinimizeMulti(big, Options{MaxCandidates: 4}); err == nil {
		t.Fatal("expected budget error")
	}
}

// workerCounts exercised against Workers=1 by the tests of the parallel
// paths that remain: outputs built at once by MinimizeMulti, and the
// exact cover's root branches Workers seeds. NumCPU on the test host
// may be 1, so forcing several explicit counts (including one above
// the output count) is what actually drives them.
var workerCounts = []int{2, 3, 4, 8}

// TestParallelMinimizeMultiIdentical checks the joint multi-output
// minimizer: with parallel per-output builds the shared pool selection,
// drive lists and joint cost must match the serial run.
func TestParallelMinimizeMultiIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for trial := 0; trial < 8; trial++ {
		n := 3 + rng.Intn(2)
		outs := make([]*bfunc.Func, 2+rng.Intn(3))
		for i := range outs {
			outs[i] = randomFunc(rng, n, 0.4, trial%2 == 0)
		}
		m := bfunc.NewMulti("t", n, outs)
		serial, err := MinimizeMulti(m, Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range workerCounts {
			par, err := MinimizeMulti(m, Options{Workers: w})
			if err != nil {
				t.Fatalf("trial %d workers %d: %v", trial, w, err)
			}
			if par.SharedLiterals != serial.SharedLiterals {
				t.Fatalf("trial %d workers %d: shared literals %d, want %d",
					trial, w, par.SharedLiterals, serial.SharedLiterals)
			}
			if len(par.Terms) != len(serial.Terms) {
				t.Fatalf("trial %d workers %d: pool size %d, want %d",
					trial, w, len(par.Terms), len(serial.Terms))
			}
			for i := range serial.Terms {
				if par.Terms[i].Key() != serial.Terms[i].Key() {
					t.Fatalf("trial %d workers %d: pool term %d differs", trial, w, i)
				}
			}
			for o := range serial.Drives {
				if len(par.Drives[o]) != len(serial.Drives[o]) {
					t.Fatalf("trial %d workers %d: output %d drives %v, want %v",
						trial, w, o, par.Drives[o], serial.Drives[o])
				}
				for i := range serial.Drives[o] {
					if par.Drives[o][i] != serial.Drives[o][i] {
						t.Fatalf("trial %d workers %d: output %d drives %v, want %v",
							trial, w, o, par.Drives[o], serial.Drives[o])
					}
				}
			}
			if par.Build.Unions != serial.Build.Unions || par.Build.Candidates != serial.Build.Candidates {
				t.Fatalf("trial %d workers %d: build stats differ", trial, w)
			}
		}
	}
}
