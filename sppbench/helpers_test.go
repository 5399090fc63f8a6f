package main

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/bench"
)

func TestPercentileNearestRank(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ q, want float64 }{
		{0.01, 1}, {0.5, 5}, {0.9, 9}, {0.91, 10}, {1, 10},
	} {
		if got := percentile(s, c.q); got != c.want {
			t.Errorf("percentile(1..10, %v) = %v, want %v", c.q, got, c.want)
		}
	}
}

func TestTailSampleCounts(t *testing.T) {
	for _, c := range []struct {
		n      int
		q      float64
		beyond int
	}{
		{100, 0.9, 10}, {99, 0.9, 9}, {131, 0.9, 13}, {10000, 0.999, 10}, {1000, 0.99, 10},
	} {
		if got := beyond(c.n, c.q); got != c.beyond {
			t.Errorf("beyond(%d, %v) = %d, want %d", c.n, c.q, got, c.beyond)
		}
	}
	for _, c := range []struct {
		n  int
		q  float64
		ok bool
	}{
		{10000, 0.999, true}, {9999, 0.99, true}, {1000, 0.99, true}, {999, 0.9, true},
		{100, 0.9, true}, {99, 0.5, true}, {20, 0.5, true}, {19, 0, false},
	} {
		q, ok := highestTail(c.n)
		if q != c.q || ok != c.ok {
			t.Errorf("highestTail(%d) = %v, %v; want %v, %v", c.n, q, ok, c.q, c.ok)
		}
		if ok && beyond(c.n, q) < minTail {
			t.Errorf("highestTail(%d) = %v leaves %d samples beyond", c.n, q, beyond(c.n, q))
		}
	}
}

func TestClassify(t *testing.T) {
	bad := errors.New("ON point not covered")
	for _, c := range []struct {
		name      string
		status    int
		code      string
		delta     string
		wantDelta bool
		verr      error
		cause     string
		ok        bool
	}{
		{"success", 200, "", "", false, nil, "", true},
		{"warm delta", 200, "", "warm", true, nil, "", true},
		{"wrong form", 200, "", "", false, bad, causeVerify, true},
		{"wrong warm form", 200, "", "warm", true, bad, causeVerify, true},
		{"cold fallback", 200, "", "cold", true, nil, causeDeltaCold, true},
		{"base evicted", 409, "cold_run_required", "", true, nil, causeColdRequired, true},
		{"other conflict", 409, "delta_unsupported_form", "", true, nil, "http_409", true},
		{"shed", 429, "shed", "", false, nil, "http_429", true},
		{"deadline", 504, "", "", false, nil, "http_504", true},
		{"trivial delta", 200, "", "trivial", true, nil, "", false},
		{"no status", 0, "", "", false, nil, "", false},
		{"unknown status", 799, "", "", false, nil, "", false},
	} {
		cause, ok := classify(c.status, c.code, c.delta, c.wantDelta, c.verr)
		if cause != c.cause || ok != c.ok {
			t.Errorf("%s: classify = %q, %v; want %q, %v", c.name, cause, ok, c.cause, c.ok)
		}
	}
}

func TestTallyCountsEveryOp(t *testing.T) {
	var ty tally
	ty.add(200, "", "", false, nil)
	ty.add(429, "shed", "", false, nil)
	ty.add(409, "cold_run_required", "", true, nil)
	ty.add(200, "", "trivial", true, nil)
	if ty.attempted != 4 || ty.failed != 3 {
		t.Fatalf("attempted %d failed %d, want 4 and 3", ty.attempted, ty.failed)
	}
	if ty.causes["http_429"] != 1 || ty.causes[causeColdRequired] != 1 {
		t.Errorf("causes = %v", ty.causes)
	}
	if len(ty.unclassified) != 1 {
		t.Errorf("unclassified = %v, want the trivial delta", ty.unclassified)
	}
	if got := ty.errorRate(); got != 0.75 {
		t.Errorf("errorRate = %v, want 0.75", got)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "op", Parent: -1, Start: 0, End: 100},
		{Name: "a", Parent: 0, Start: 10, End: 30},
		{Name: "b", Parent: 0, Start: 20, End: 50},  // overlaps a
		{Name: "c", Parent: 0, Start: 90, End: 120}, // runs past its parent
		{Name: "d", Parent: 2, Start: 25, End: 35},
	}
	want := []int64{50, 20, 20, 30, 10}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

func TestExactColdOrderDeterministic(t *testing.T) {
	w := &exactCold{seed: 7, passes: 3, funcs: make([]namedFunc, 131)}
	a, b := w.order(), w.order()
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different op sequences")
	}
	for p := 0; p < w.passes; p++ {
		seen := map[int]bool{}
		for _, fn := range a[p*131 : (p+1)*131] {
			seen[fn] = true
		}
		if len(seen) != 131 {
			t.Errorf("pass %d covers %d functions, want 131", p, len(seen))
		}
	}
	w.seed = 8
	if reflect.DeepEqual(a, w.order()) {
		t.Error("different seeds gave the same op sequence")
	}
}

// fakeServeHot has serve-hot's base mix without a server: 63 cheap
// bases and 7 add6 outputs, each variant with its own #L.
func fakeServeHot(seed int64) *serveHot {
	w := &serveHot{seed: seed, secs: 4}
	for i := 0; i < 70; i++ {
		b := shBase{bench: "light", out: i}
		if i >= 63 {
			b.bench = "add6"
		}
		for v := 0; v < serveHotVariants; v++ {
			b.variants = append(b.variants, shVariant{literals: 10 + i})
		}
		w.bases = append(w.bases, b)
	}
	w.seq = w.sequence(rand.New(rand.NewSource(seed)))
	return w
}

func TestServeHotSequence(t *testing.T) {
	a, b := fakeServeHot(3), fakeServeHot(3)
	if !reflect.DeepEqual(a.seq, b.seq) || a.literalsPerOp() != b.literalsPerOp() {
		t.Fatal("same seed gave a different op sequence or literals_per_op")
	}
	if reflect.DeepEqual(a.seq, fakeServeHot(4).seq) {
		t.Error("different seeds gave the same op sequence")
	}
	// Whole rounds: every base equally often within its class, add6 at
	// exactly one op in serveHotAdd6Every, so the mix is seed-free.
	counts := map[int]int{}
	heavy := 0
	for _, op := range a.seq {
		counts[op.base]++
		if a.bases[op.base].bench == "add6" {
			heavy++
		}
	}
	if heavy*serveHotAdd6Every != len(a.seq) {
		t.Errorf("add6 share %d/%d, want 1/%d", heavy, len(a.seq), serveHotAdd6Every)
	}
	for i := 1; i < 63; i++ {
		if counts[i] != counts[0] {
			t.Fatalf("base %d appears %d times, base 0 %d", i, counts[i], counts[0])
		}
	}
	if a.literalsPerOp() != fakeServeHot(4).literalsPerOp() {
		t.Error("the base mix depends on the seed")
	}
}

func TestSwapsStayValidAndNearBase(t *testing.T) {
	f := bench.MustLoad("dist").Output(1)
	a := swaps(rand.New(rand.NewSource(5)), f, 300)
	if !reflect.DeepEqual(a, swaps(rand.New(rand.NewSource(5)), f, 300)) {
		t.Fatal("same seed gave different edits")
	}
	on := map[uint64]bool{}
	for _, p := range f.On() {
		on[p] = true
	}
	g := f
	seen := map[string]bool{fmt.Sprint(f.On()): true}
	for i, e := range a {
		if on[e.add] || g.IsDC(e.add) || !on[e.remove] || e.add == e.remove {
			t.Fatalf("step %d: invalid swap %+v", i, e)
		}
		on[e.add], on[e.remove] = true, false
		delete(on, e.remove)
		g = applyEdit(g, e)
		if k := fmt.Sprint(g.On()); seen[k] {
			t.Fatalf("step %d: returns to an earlier function", i)
		} else {
			seen[k] = true
		}
		moved := 0
		for _, p := range g.On() {
			if !f.IsOn(p) {
				moved++
			}
		}
		if moved > editLoopDrift {
			t.Fatalf("step %d: %d swaps from the base, bound %d", i, moved, editLoopDrift)
		}
	}
	if g.OnCount() != f.OnCount() {
		t.Errorf("ON count drifted from %d to %d", f.OnCount(), g.OnCount())
	}
}

// TestEditLoopSeedDeterminism runs the edit-loop workload twice on one
// seed: the same op sequence must give the same literals_per_op.
func TestEditLoopSeedDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the workload twice")
	}
	run := func() float64 {
		w := newEditLoop(11, 1, false).(*editLoop)
		if err := w.setup(); err != nil {
			t.Fatal(err)
		}
		w.run(nil)
		var ty tally
		if problems := w.check(&ty); len(problems) > 0 || ty.failed > 0 {
			t.Fatalf("checks failed: %v (%d failed ops)", problems, ty.failed)
		}
		return w.literalsPerOp()
	}
	if a, b := run(), run(); a != b {
		t.Errorf("literals_per_op %v then %v on the same seed", a, b)
	}
}
