package core

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/bench"
	"repro/internal/bfunc"
	"repro/internal/stats"
)

// detParts extracts the worker-count-invariant sections of a report:
// the deterministic counters and the per-degree layer sizes. Phase
// times and the sched section are scheduling-dependent by design and
// excluded.
func detParts(rec *stats.Recorder) (map[string]int64, []stats.LayerSize) {
	rep := rec.Report("")
	return rep.Counters, rep.Layers
}

func sameDetParts(t *testing.T, label string, serial, par *stats.Recorder) {
	t.Helper()
	sc, sl := detParts(serial)
	pc, pl := detParts(par)
	if !reflect.DeepEqual(sc, pc) {
		t.Fatalf("%s: deterministic counters differ:\nserial   %v\nparallel %v", label, sc, pc)
	}
	if !reflect.DeepEqual(sl, pl) {
		t.Fatalf("%s: layers differ:\nserial   %v\nparallel %v", label, sl, pl)
	}
}

// TestStatsDeterministicAcrossWorkers is the observability counterpart
// of the byte-identical-results property: every counter in the
// deterministic section of the report, and the per-degree layer sizes,
// must be identical for every worker count — on the exact minimizer
// (greedy and exact covering), the SPP_k heuristic and the joint
// multi-output minimizer.
func TestStatsDeterministicAcrossWorkers(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 8; trial++ {
		n := 3 + rng.Intn(3)
		f := randomFunc(rng, n, 0.45, trial%3 == 0)

		for _, exact := range []bool{false, true} {
			serialRec := stats.New()
			if _, err := MinimizeExact(f, Options{Workers: 1, CoverExact: exact, Stats: serialRec}); err != nil {
				t.Fatal(err)
			}
			for _, w := range workerCounts {
				parRec := stats.New()
				if _, err := MinimizeExact(f, Options{Workers: w, CoverExact: exact, Stats: parRec}); err != nil {
					t.Fatalf("trial %d workers %d: %v", trial, w, err)
				}
				sameDetParts(t, "MinimizeExact", serialRec, parRec)
			}
			if serialRec.Get(stats.CtrCandidates) == 0 {
				t.Fatalf("trial %d: no candidates counted", trial)
			}
		}

		k := rng.Intn(n)
		serialRec := stats.New()
		if _, err := Heuristic(f, k, Options{Workers: 1, Stats: serialRec}); err != nil {
			t.Fatal(err)
		}
		for _, w := range workerCounts {
			parRec := stats.New()
			if _, err := Heuristic(f, k, Options{Workers: w, Stats: parRec}); err != nil {
				t.Fatalf("trial %d k=%d workers %d: %v", trial, k, w, err)
			}
			sameDetParts(t, "Heuristic", serialRec, parRec)
		}
	}
}

// TestStatsDeterministicMulti covers the joint multi-output path, whose
// EPPP builds run on as many goroutines as the worker count allows.
func TestStatsDeterministicMulti(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for trial := 0; trial < 5; trial++ {
		n := 3 + rng.Intn(2)
		outs := make([]*bfunc.Func, 2+rng.Intn(3))
		for i := range outs {
			outs[i] = randomFunc(rng, n, 0.4, trial%2 == 0)
		}
		m := bfunc.NewMulti("t", n, outs)
		serialRec := stats.New()
		if _, err := MinimizeMulti(m, Options{Workers: 1, Stats: serialRec}); err != nil {
			t.Fatal(err)
		}
		for _, w := range workerCounts {
			parRec := stats.New()
			if _, err := MinimizeMulti(m, Options{Workers: w, Stats: parRec}); err != nil {
				t.Fatalf("trial %d workers %d: %v", trial, w, err)
			}
			sameDetParts(t, "MinimizeMulti", serialRec, parRec)
		}
	}
}

// TestStatsPhasesRecorded checks the phase clock: an instrumented exact
// minimization must time the EPPP, column and covering phases, and a
// heuristic run the seed/descend/ascend split.
func TestStatsPhasesRecorded(t *testing.T) {
	f := randomFunc(rand.New(rand.NewSource(23)), 4, 0.45, true)
	rec := stats.New()
	if _, err := MinimizeExact(f, Options{Workers: 1, Stats: rec}); err != nil {
		t.Fatal(err)
	}
	rep := rec.Report("x")
	got := map[string]bool{}
	for _, p := range rep.Phases {
		got[p.Phase] = true
	}
	for _, want := range []string{"eppp", "cover.columns", "cover.greedy"} {
		if !got[want] {
			t.Fatalf("exact run phases %v missing %q", rep.Phases, want)
		}
	}
	if rep.PhaseSeconds() > rep.WallSeconds {
		t.Fatalf("phase sum %.6fs exceeds wall %.6fs (phases must be disjoint)",
			rep.PhaseSeconds(), rep.WallSeconds)
	}

	rec = stats.New()
	if _, err := Heuristic(f, 1, Options{Workers: 1, Stats: rec}); err != nil {
		t.Fatal(err)
	}
	rep = rec.Report("x")
	got = map[string]bool{}
	for _, p := range rep.Phases {
		got[p.Phase] = true
	}
	for _, want := range []string{"heuristic.seed", "heuristic.descend", "heuristic.ascend"} {
		if !got[want] {
			t.Fatalf("heuristic run phases %v missing %q", rep.Phases, want)
		}
	}
}

// TestColumnCountersPinned pins the covering-column counters of cold
// MinimizeExact runs: on m3(3), a Table 1 output, and on a small
// function with don't-cares that exercises all four counters. The
// warm capture builds the same columns over the same candidate set, so
// its report carries the same values.
func TestColumnCountersPinned(t *testing.T) {
	var dc []uint64
	for p := uint64(16); p < 32; p++ {
		if p != 21 && p != 26 {
			dc = append(dc, p)
		}
	}
	for _, c := range []struct {
		name                           string
		f                              *bfunc.Func
		built, dcOnly, gray, fallbacks int64
	}{
		{"m3(3)", bench.MustLoad("m3").Output(3), 1556, 0, 1556, 0},
		{"dc", bfunc.NewDC(5, []uint64{0, 3, 5, 6, 9, 10, 12, 15}, dc), 7, 6, 12, 1},
	} {
		check := func(label string, rec *stats.Recorder) {
			t.Helper()
			for _, w := range []struct {
				ctr  stats.Counter
				want int64
			}{
				{stats.CtrCoverColumns, c.built},
				{stats.CtrCoverDCOnly, c.dcOnly},
				{stats.CtrCoverGray, c.gray},
				{stats.CtrCoverContains, c.fallbacks},
			} {
				if got := rec.Get(w.ctr); got != w.want {
					t.Errorf("%s %s: %s = %d, want %d", c.name, label, w.ctr, got, w.want)
				}
			}
		}
		rec := stats.New()
		if _, err := MinimizeExact(c.f, Options{Stats: rec}); err != nil {
			t.Fatal(err)
		}
		check("cold", rec)
		rec = stats.New()
		_, ws, err := MinimizeExactWarm(c.f, Options{Stats: rec})
		if err != nil {
			t.Fatal(err)
		}
		check("warm", rec)

		// A resume reports the edited function's columns; it walks only
		// the columns it computes fresh.
		d := Delta{RemoveOn: []uint64{c.f.On()[0]}}
		if len(c.f.DC()) > 0 {
			d = Delta{AddOn: []uint64{c.f.DC()[0]}}
		}
		edited, err := ws.Apply(d)
		if err != nil {
			t.Fatal(err)
		}
		coldRec, resRec := stats.New(), stats.New()
		if _, _, err := MinimizeExactWarm(edited, Options{Stats: coldRec}); err != nil {
			t.Fatal(err)
		}
		if _, _, err := ResumeExact(ws, d, Options{Stats: resRec}); err != nil {
			t.Fatal(err)
		}
		for _, ctr := range []stats.Counter{stats.CtrCoverColumns, stats.CtrCoverDCOnly} {
			if got, want := resRec.Get(ctr), coldRec.Get(ctr); got != want {
				t.Errorf("%s resume: %s = %d, cold %d", c.name, ctr, got, want)
			}
		}
		walked := resRec.Get(stats.CtrCoverGray) + resRec.Get(stats.CtrCoverContains)
		if all := coldRec.Get(stats.CtrCoverGray) + coldRec.Get(stats.CtrCoverContains); walked >= all {
			t.Errorf("%s resume: computed %d columns fresh, a cold run %d", c.name, walked, all)
		}
	}
}
