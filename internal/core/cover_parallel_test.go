package core

import (
	"math/rand"
	"runtime"
	"testing"
)

func formKeys(f Form) []string {
	keys := make([]string, len(f.Terms))
	for i, c := range f.Terms {
		keys[i] = c.Key()
	}
	return keys
}

func sameForm(t *testing.T, label string, got, want Form) {
	t.Helper()
	g, w := formKeys(got), formKeys(want)
	if len(g) != len(w) {
		t.Fatalf("%s: %d terms, want %d", label, len(g), len(w))
	}
	for i := range w {
		if g[i] != w[i] {
			t.Fatalf("%s: term %d differs:\n got %q\nwant %q", label, i, g[i], w[i])
		}
	}
}

// TestSelectCoverWorkersIdentical: SelectCover produces the same form
// as CoverWorkers=1 for every worker count, with both greedy and exact
// covering. CoverWorkers reaches only the exact branch and bound's root
// branches, so the exact case is the one that fans out.
func TestSelectCoverWorkersIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	coverWorkerCounts := []int{1, 2, 4, runtime.NumCPU()}
	for trial := 0; trial < 12; trial++ {
		n := 3 + rng.Intn(3)
		f := randomFunc(rng, n, 0.45, trial%3 == 0)
		if f.OnCount() == 0 {
			continue
		}
		set, err := BuildEPPP(f, Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		for _, exact := range []bool{false, true} {
			base := Options{Workers: 1, CoverWorkers: 1, CoverExact: exact}
			want, _, wantOpt, err := SelectCover(f, set, base)
			if err != nil {
				t.Fatal(err)
			}
			if err := want.Verify(f); err != nil {
				t.Fatalf("trial %d exact=%v: serial form invalid: %v", trial, exact, err)
			}
			for _, w := range coverWorkerCounts {
				opts := base
				opts.CoverWorkers = w
				got, _, gotOpt, err := SelectCover(f, set, opts)
				if err != nil {
					t.Fatalf("trial %d exact=%v cover-workers=%d: %v", trial, exact, w, err)
				}
				if gotOpt != wantOpt {
					t.Fatalf("trial %d exact=%v cover-workers=%d: optimal=%v, want %v",
						trial, exact, w, gotOpt, wantOpt)
				}
				sameForm(t, "SelectCover", got, want)
			}
		}
	}
}
