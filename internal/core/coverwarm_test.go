package core

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/bench"
	"repro/internal/bfunc"
)

// deltaFromBits builds a valid edit script from a fuzz-supplied point
// mask: each set bit of bits moves that point between the ON / DC / OFF
// classes, with the direction drawn from rng.
func deltaFromBits(rng *rand.Rand, fn *bfunc.Func, bits uint64) Delta {
	var d Delta
	for p := uint64(0); p < 1<<uint(fn.N()); p++ {
		if bits&(1<<p) == 0 {
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
	return d
}

// FuzzIncrementalCover drives the incremental covering layer against
// the cold oracle: every resume's cover, selected over carried, patched
// and fresh covered-ON lists, must be byte-identical to a cold
// warm-engine run on the edited function. Chains two edits so the lists
// written by one resume feed the next, and flips between the greedy,
// serial exact and parallel exact solver paths.
func FuzzIncrementalCover(f *testing.F) {
	f.Add(uint64(0x9e37), uint64(0x3c5a), uint64(0x0180), uint64(0x41), uint64(0x212))
	f.Add(uint64(7), uint64(0xffff), uint64(0), uint64(0x8001), uint64(0x18))
	f.Add(uint64(3), uint64(0x00ff), uint64(0xff00), uint64(0x1111), uint64(0x2222))
	f.Add(uint64(1), uint64(0xaaaa), uint64(0x5555), uint64(0xf), uint64(0xf0))
	f.Fuzz(func(t *testing.T, seed, onBits, dcBits, editBits, editBits2 uint64) {
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
		opts := Options{}
		if seed&1 != 0 {
			opts = Options{CoverExact: true, CoverMaxNodes: 1 << 16}
			if seed&2 != 0 {
				opts.CoverWorkers = 4 // parallel branch and bound
			}
		}
		_, ws, err := MinimizeExactWarm(fn, opts)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(seed)))
		for _, bits := range []uint64{editBits, editBits2} {
			d := deltaFromBits(rng, ws.f, bits)
			ws = requireResumeMatchesCold(t, ws, d, opts)
		}
	})
}

func TestResumeExactCoverParallel(t *testing.T) {
	// With parallel workers the exact solver fans its root branches out
	// over a worker pool. Identity against cold must hold across chained
	// resumes.
	rng := rand.New(rand.NewSource(13))
	opts := Options{CoverExact: true, CoverMaxNodes: 1 << 20, CoverWorkers: 4}
	for trial := 0; trial < 4; trial++ {
		f := randomFunc(rng, 5, 0.35, true)
		_, ws, err := MinimizeExactWarm(f, opts)
		if err != nil {
			t.Fatalf("trial %d: cold build: %v", trial, err)
		}
		for step := 0; step < 2; step++ {
			d := randomDelta(rng, ws.f, 2+step)
			ws = requireResumeMatchesCold(t, ws, d, opts)
		}
	}
}

func TestResumeConcurrentSharedSnapshot(t *testing.T) {
	// Eight concurrent resumes from ONE canonical snapshot: every
	// goroutine shares the same immutable groups and covered-ON lists.
	// Must neither race nor diverge from the cold oracle. Run under
	// -race via make check-race.
	for _, tc := range []struct {
		name string
		n    int
		opts Options
	}{
		{"greedy", 6, Options{CoverWorkers: 4}},
		// Byte-identity of the exact path is only guaranteed when the
		// search completes, so the exact case stays small enough that the
		// node budget is never exhausted (asserted on the cold runs below).
		{"exact", 5, Options{CoverExact: true, CoverMaxNodes: 1 << 20, CoverWorkers: 4}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(21))
			f := randomFunc(rng, tc.n, 0.3, true)
			_, ws, err := MinimizeExactWarm(f, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			type job struct {
				d    Delta
				want string
			}
			jobs := make([]job, 8)
			for i := range jobs {
				d := randomDelta(rng, f, 1+i%4)
				edited, err := ws.Apply(d)
				if err != nil {
					t.Fatal(err)
				}
				cold, _, err := MinimizeExactWarm(edited, tc.opts)
				if err != nil {
					t.Fatal(err)
				}
				if tc.opts.CoverExact && !cold.CoverOptimal {
					t.Fatalf("job %d: exact search exhausted its node budget; shrink the case", i)
				}
				jobs[i] = job{d: d, want: cold.Form.String()}
			}
			var wg sync.WaitGroup
			errs := make([]string, len(jobs))
			for i := range jobs {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					res, _, err := ResumeExact(ws, jobs[i].d, tc.opts)
					if err != nil {
						errs[i] = err.Error()
						return
					}
					if got := res.Form.String(); got != jobs[i].want {
						errs[i] = "form mismatch: got " + got + " want " + jobs[i].want
					}
				}(i)
			}
			wg.Wait()
			for i, e := range errs {
				if e != "" {
					t.Errorf("job %d: %s", i, e)
				}
			}
		})
	}
}

// TestSelectCoverMatchesWarm: SelectCover is the warm engine's covering
// with nothing carried, so over a warm state's candidate list it
// returns MinimizeExactWarm's form byte for byte, under greedy and
// exact covering, on random functions and Table 1 outputs.
func TestSelectCoverMatchesWarm(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	var fs []*bfunc.Func
	for trial := 0; trial < 10; trial++ {
		fs = append(fs, randomFunc(rng, 4+trial%3, 0.4, trial%2 == 0))
	}
	fs = append(fs, bench.MustLoad("m3").Output(3), bench.MustLoad("dist").Output(1))
	for i, f := range fs {
		// One branch-and-bound worker: a parallel search that runs out
		// of nodes may stop at a different incumbent from run to run.
		for _, opts := range []Options{{}, {CoverExact: true, CoverMaxNodes: 20_000, CoverWorkers: 1}} {
			warm, ws, err := MinimizeExactWarm(f, opts)
			if err != nil {
				t.Fatal(err)
			}
			set := &EPPPSet{N: f.N(), Candidates: ws.cands}
			form, _, optimal, err := SelectCover(f, set, opts)
			if err != nil {
				t.Fatal(err)
			}
			sameForm(t, fmt.Sprintf("function %d exact=%v", i, opts.CoverExact), form, warm.Form)
			if optimal != warm.CoverOptimal {
				t.Fatalf("function %d exact=%v: optimal %v, warm %v", i, opts.CoverExact, optimal, warm.CoverOptimal)
			}
		}
	}
}

// clusteredFunc is a sparse wide function whose ON points come in
// clusters: each cluster is a random affine subspace of dimension dim
// (a random offset plus dim random directions). Points of one cluster
// span high-degree pseudocubes; points of two clusters pair into prime
// lines, so the candidate set is wide (about (clusters·2^dim)²/2
// columns) while the ON-set stays small.
func clusteredFunc(rng *rand.Rand, n, clusters, dim int) *bfunc.Func {
	mask := uint64(1)<<uint(n) - 1
	seen := map[uint64]bool{}
	var on []uint64
	for c := 0; c < clusters; c++ {
		base := rng.Uint64() & mask
		dirs := make([]uint64, dim)
		for i := range dirs {
			dirs[i] = rng.Uint64() & mask
		}
		for k := 0; k < 1<<uint(dim); k++ {
			p := base
			for i, d := range dirs {
				if k&(1<<uint(i)) != 0 {
					p ^= d
				}
			}
			if !seen[p] {
				seen[p] = true
				on = append(on, p)
			}
		}
	}
	return bfunc.New(n, on)
}

// BenchmarkSelectCoverWide times the single-output covering step on
// clustered functions at n = 18 and n = 20, past the dense point-set
// sizes of narrow functions, with the EPPP build outside the timer.
// Allocations are reported: the point-space columns are the bytes a
// wide cover holds.
func BenchmarkSelectCoverWide(b *testing.B) {
	for _, n := range []int{18, 20} {
		f := clusteredFunc(rand.New(rand.NewSource(int64(n))), n, 22, 3)
		set, err := BuildEPPP(f, Options{})
		if err != nil {
			b.Fatal(err)
		}
		for _, workers := range []int{1, 0} {
			b.Run(fmt.Sprintf("n=%d/cover-workers=%d", n, workers), func(b *testing.B) {
				opts := Options{CoverWorkers: workers}
				b.ReportAllocs()
				b.ReportMetric(float64(len(set.Candidates)), "candidates")
				for i := 0; i < b.N; i++ {
					if _, _, _, err := SelectCover(f, set, opts); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
