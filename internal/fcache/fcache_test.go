package fcache

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/bfunc"
	"repro/internal/bitvec"
)

func permFunc(f *bfunc.Func, perm []int) *bfunc.Func {
	n := f.N()
	mapPts := func(pts []uint64) []uint64 {
		out := make([]uint64, len(pts))
		for i, p := range pts {
			out[i] = bitvec.PermutePoint(p, n, perm)
		}
		return out
	}
	return bfunc.NewDC(n, mapPts(f.On()), mapPts(f.DC()))
}

// TestCanonicalizeTable drives the ISSUE's key invariants: variable
// permutation and DC-set representation must not change the key;
// distinct functions must.
func TestCanonicalizeTable(t *testing.T) {
	key := func(f *bfunc.Func) Key {
		k, _, _ := Canonicalize(f)
		return k
	}
	cases := []struct {
		name string
		a, b *bfunc.Func
		same bool
	}{
		{
			name: "identical functions",
			a:    bfunc.New(3, []uint64{0, 3, 5}),
			b:    bfunc.New(3, []uint64{0, 3, 5}),
			same: true,
		},
		{
			name: "duplicate ON minterms normalize away",
			a:    bfunc.New(3, []uint64{0, 3, 5}),
			b:    bfunc.New(3, []uint64{5, 0, 3, 3, 0}),
			same: true,
		},
		{
			name: "swap x0 and x2",
			a:    bfunc.New(3, []uint64{0b100, 0b110}),
			b:    bfunc.New(3, []uint64{0b001, 0b011}),
			same: true,
		},
		{
			name: "rotate all three variables",
			a:    bfunc.New(3, []uint64{0b100, 0b010, 0b111}),
			b:    bfunc.New(3, []uint64{0b010, 0b001, 0b111}),
			same: true,
		},
		{
			name: "DC duplicates and ON-overlap normalize away",
			a:    bfunc.NewDC(3, []uint64{1, 2}, []uint64{4, 6}),
			b:    bfunc.NewDC(3, []uint64{1, 2}, []uint64{6, 4, 4, 1, 2}),
			same: true,
		},
		{
			name: "permutation with DC set",
			a:    bfunc.NewDC(3, []uint64{0b100}, []uint64{0b101}),
			b:    bfunc.NewDC(3, []uint64{0b001}, []uint64{0b101}),
			same: true,
		},
		{
			name: "different ON sets (inequivalent weight profile)",
			a:    bfunc.New(3, []uint64{0b000, 0b001, 0b010}),
			b:    bfunc.New(3, []uint64{0b000, 0b001, 0b111}),
			same: false,
		},
		{
			name: "equivalent under x1-x2 swap",
			a:    bfunc.New(3, []uint64{0, 3, 5}),
			b:    bfunc.New(3, []uint64{0, 3, 6}),
			same: true,
		},
		{
			name: "DC point is not an ON point",
			a:    bfunc.NewDC(3, []uint64{1, 2}, []uint64{4}),
			b:    bfunc.New(3, []uint64{1, 2, 4}),
			same: false,
		},
		{
			name: "ON-only vs same care set with DC",
			a:    bfunc.New(3, []uint64{1, 2, 4}),
			b:    bfunc.NewDC(3, []uint64{1, 2}, []uint64{4}),
			same: false,
		},
		{
			name: "different variable counts",
			a:    bfunc.New(3, []uint64{1, 2}),
			b:    bfunc.New(4, []uint64{1, 2}),
			same: false,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ka, kb := key(tc.a), key(tc.b)
			if (ka == kb) != tc.same {
				t.Errorf("keys equal=%v, want %v\n  a=%v key=%s\n  b=%v key=%s",
					ka == kb, tc.same, tc.a, ka, tc.b, kb)
			}
		})
	}
}

// TestCanonicalizeRandomPermutations: for random functions, every
// permutation of the inputs must land on the same key, and the
// returned perm must actually map f onto canon.
func TestCanonicalizeRandomPermutations(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 60; trial++ {
		n := 2 + rng.Intn(6)
		var on, dc []uint64
		for p := uint64(0); p < 1<<uint(n); p++ {
			switch rng.Intn(4) {
			case 0:
				on = append(on, p)
			case 1:
				dc = append(dc, p)
			}
		}
		if len(on) == 0 {
			on = []uint64{uint64(rng.Intn(1 << uint(n)))}
		}
		f := bfunc.NewDC(n, on, dc)
		k0, perm, canon := Canonicalize(f)

		if got := permFunc(f, perm); !got.Equal(canon) {
			t.Fatalf("trial %d: perm does not map f onto canon\n  f=%v perm=%v", trial, f, perm)
		}
		if got := permFunc(canon, InversePerm(perm)); !got.Equal(f) {
			t.Fatalf("trial %d: inverse perm does not map canon back to f", trial)
		}
		for pi := 0; pi < 5; pi++ {
			shuffle := rng.Perm(n)
			g := permFunc(f, shuffle)
			kg, _, canonG := Canonicalize(g)
			if kg != k0 {
				t.Fatalf("trial %d: permuted function changed key\n  f=%v\n  shuffle=%v", trial, f, shuffle)
			}
			if !canonG.Equal(canon) {
				t.Fatalf("trial %d: canonical forms differ for equivalent inputs", trial)
			}
		}
	}
}

// TestTieBreakBudgetSinglePoint: a single-point function over many
// variables makes every variable ambiguous (13! candidate orderings)
// while pts==1 made the old poison-value budget check a no-op, so
// Canonicalize enumerated the full factorial. The budget fallback must
// kick in and return instantly — and deterministically.
func TestTieBreakBudgetSinglePoint(t *testing.T) {
	for _, f := range []*bfunc.Func{
		bfunc.New(13, []uint64{0}),
		bfunc.New(30, []uint64{0}),
		bfunc.New(20, []uint64{1}),
	} {
		start := time.Now()
		k1, perm, canon := Canonicalize(f)
		if elapsed := time.Since(start); elapsed > 2*time.Second {
			t.Fatalf("n=%d: Canonicalize took %v; budget fallback did not trigger", f.N(), elapsed)
		}
		if got := permFunc(f, perm); !got.Equal(canon) {
			t.Errorf("n=%d: perm does not map f onto canon", f.N())
		}
		if k2, _, _ := Canonicalize(f); k2 != k1 {
			t.Errorf("n=%d: budget fallback is nondeterministic", f.N())
		}
	}
}

// TestTieBreakWalkWorkCap: many small ambiguous classes keep the
// estimated candidate count within budget, yet the walk must still be
// bounded by its own work meter and stay fast.
func TestTieBreakWalkWorkCap(t *testing.T) {
	// 8 fully symmetric variables: 8! = 40320 candidates over 4 points,
	// well under budget — the walk runs to completion and stays exact.
	on := []uint64{0b00000011, 0b00001100, 0b00110000, 0b11000000}
	f := bfunc.New(8, on)
	start := time.Now()
	k0, _, canon := Canonicalize(f)
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("walk took %v", elapsed)
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 5; i++ {
		g := permFunc(f, rng.Perm(8))
		if kg, _, canonG := Canonicalize(g); kg != k0 || !canonG.Equal(canon) {
			t.Fatal("permuted symmetric function changed key")
		}
	}
}

// TestCanonicalizeCtxCancelled: a cancelled context aborts
// canonicalization with its error instead of returning a truncated
// (and so nondeterministic) key.
func TestCanonicalizeCtxCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, _, err := CanonicalizeCtx(ctx, bfunc.New(4, []uint64{1, 2, 4, 8})); err != context.Canceled {
		t.Errorf("CanonicalizeCtx on cancelled ctx: err = %v, want context.Canceled", err)
	}
	k, perm, canon, err := CanonicalizeCtx(context.Background(), bfunc.New(4, []uint64{1, 2, 4, 8}))
	if err != nil || perm == nil || canon == nil {
		t.Fatalf("CanonicalizeCtx on live ctx failed: %v", err)
	}
	if k2, _, _ := Canonicalize(bfunc.New(4, []uint64{1, 2, 4, 8})); k2 != k {
		t.Error("CanonicalizeCtx and Canonicalize disagree")
	}
}

// TestCanonicalizeKeyPins pins raw Canonicalize keys that the original
// canonicalizer computed, one per path through it, so the keys stay
// pinned should the reference oracle ever go. Journaled jobs, clients'
// base keys and cached entries all depend on them. The test also pins
// the path: the candidate count is the product of the class sizes'
// factorials, which the tie-break enumerates when it fits the budget.
func TestCanonicalizeKeyPins(t *testing.T) {
	for _, c := range []struct {
		bench      string
		out        int
		candidates int
		key        string
	}{
		// Five ambiguous classes: the tie-break walks 2·4!·2·2·2 leaves.
		{"add6", 3, 384, "be231f63ae1ac3f025e02da0f0be9608e4d34ebe1b1fa00b6cf54defda889741"},
		// 10!·2 candidates over 2048 points: over budget, so layout().
		{"add6", 6, 7257600, "515bec544c8f2a133bdc5d281af1c445dc551a660875a57690c1aaa429fcb41f"},
		// Refinement alone resolves all 14 variables.
		{"amd", 0, 1, "14df25445141eea560fbafe0147d76a41fe2450c963827b291586ba1577d92d9"},
	} {
		f := bench.MustLoad(c.bench).Output(c.out)
		class, err := refineClasses(context.Background(), f)
		if err != nil {
			t.Fatal(err)
		}
		size := map[int]int{}
		candidates := 1
		for _, cl := range class {
			size[cl]++
			candidates *= size[cl]
		}
		if candidates != c.candidates {
			t.Errorf("%s(%d): %d tie-break candidates, want %d", c.bench, c.out, candidates, c.candidates)
		}
		k, perm, canon := Canonicalize(f)
		if k.String() != c.key {
			t.Errorf("%s(%d): key %s, pinned %s", c.bench, c.out, k, c.key)
		}
		if !permFunc(f, perm).Equal(canon) {
			t.Errorf("%s(%d): perm does not map f onto canon", c.bench, c.out)
		}
	}
}

// canonCases are the allocation gate's and the benchmark's inputs: add6
// output 3 spends its time in a 384-leaf tie-break, amd output 0 in the
// class refinement.
var canonCases = []struct {
	bench string
	out   int
}{{"add6", 3}, {"amd", 0}}

// TestCanonicalizeAllocCeiling is a load-independent gate on the
// canonicalization kernels: allocations, unlike wall time, do not move
// with host load. The original kernels allocated 25,955 times on add6
// output 3 and 8,352 times on amd output 0, per leaf and per point; the
// rewrite sizes its buffers once per call and measured 23 and 20. The
// ceilings sit about 10% above.
func TestCanonicalizeAllocCeiling(t *testing.T) {
	ceilings := []float64{26, 22}
	for i, c := range canonCases {
		f := bench.MustLoad(c.bench).Output(c.out)
		allocs := testing.AllocsPerRun(3, func() { Canonicalize(f) })
		if allocs > ceilings[i] {
			t.Errorf("Canonicalize(%s(%d)) allocates %.0f times, ceiling %.0f", c.bench, c.out, allocs, ceilings[i])
		}
	}
}

var canonSink Key

// BenchmarkCanonicalize times canonCases, which truth tables score, and
// one function the point lists score: a single point over ten variables
// is sparser than its 16-word table, and the tie-break walks all 10!
// orderings of its one class.
func BenchmarkCanonicalize(b *testing.B) {
	names := []string{"single-point-10"}
	funcs := []*bfunc.Func{bfunc.New(10, []uint64{0})}
	for _, c := range canonCases {
		names = append(names, fmt.Sprintf("%s-%d", c.bench, c.out))
		funcs = append(funcs, bench.MustLoad(c.bench).Output(c.out))
	}
	for i, f := range funcs {
		b.Run(names[i], func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				canonSink, _, _ = Canonicalize(f)
			}
		})
	}
}

// TestTransposeMatchesPoints holds the truth-table swap to its meaning:
// transposing index bits i < j equals rebuilding the table from the
// points with bits i and j swapped, for every pair up to n = 14. That
// covers all three kinds of exchange: inside a word (j < 6), across
// words (i < 6 ≤ j) and of whole words (6 ≤ i).
func TestTransposeMatchesPoints(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for n := 1; n <= 14; n++ {
		table := func(pts []uint64) []uint64 {
			tt := make([]uint64, max(1, 1<<n/64))
			for _, p := range pts {
				tt[p>>6] |= 1 << (p & 63)
			}
			return tt
		}
		var pts []uint64
		for p := uint64(0); p < 1<<n; p++ {
			if rng.Intn(2) == 0 {
				pts = append(pts, p)
			}
		}
		swapped := make([]uint64, len(pts))
		for j := 1; j < n; j++ {
			for i := 0; i < j; i++ {
				for k, p := range pts {
					d := (p>>i ^ p>>j) & 1
					swapped[k] = p ^ d<<i ^ d<<j
				}
				got := table(pts)
				transpose(got, i, j)
				if want := table(swapped); !slices.Equal(got, want) {
					t.Fatalf("n=%d: transposing bits %d and %d gives %x, want %x", n, i, j, got, want)
				}
			}
		}
	}
}

func TestKeyDerive(t *testing.T) {
	f := bfunc.New(3, []uint64{1, 2, 4})
	k, _, _ := Canonicalize(f)
	a, b := k.Derive("k=1;exact=true"), k.Derive("k=2;exact=true")
	if a == b {
		t.Error("different tags produced equal derived keys")
	}
	if a != k.Derive("k=1;exact=true") {
		t.Error("Derive is not deterministic")
	}
	if a == k {
		t.Error("derived key equals base key")
	}
}

// The shared-warm-state and per-client-pointer keyspaces must stay
// disjoint for every tag — a pointer entry colliding with a state entry
// would hand a client another client's permutation bookkeeping.
func TestWarmKeyspacesDisjoint(t *testing.T) {
	f := bfunc.New(3, []uint64{1, 2, 4})
	k, _, _ := Canonicalize(f)
	for _, tag := range []string{"", "alg=exact;k=2", "state;x"} {
		sk, pk := WarmStateKey(k, tag), WarmPointerKey(k, tag)
		if sk == pk {
			t.Errorf("tag %q: state and pointer keys collide", tag)
		}
		if sk == k || pk == k {
			t.Errorf("tag %q: warm key equals base key", tag)
		}
		if sk != WarmStateKey(k, tag) || pk != WarmPointerKey(k, tag) {
			t.Errorf("tag %q: warm keys not deterministic", tag)
		}
	}
	// A crafted tag must not alias one keyspace into the other.
	if WarmPointerKey(k, "state;x") == WarmStateKey(k, "x") {
		t.Error("pointer tag aliases into the state keyspace")
	}
}

func TestLRUCache(t *testing.T) {
	c := NewSharded[int](2, 1) // single shard: exact global LRU
	k := func(b byte) Key {
		var k Key
		k[0] = b
		return k
	}
	if _, ok := c.Get(k(1)); ok {
		t.Fatal("empty cache returned a hit")
	}
	c.Put(k(1), 10)
	c.Put(k(2), 20)
	if v, ok := c.Get(k(1)); !ok || v != 10 {
		t.Fatalf("Get(1) = %d,%v want 10,true", v, ok)
	}
	c.Put(k(3), 30) // evicts 2 (LRU; 1 was just touched)
	if _, ok := c.Get(k(2)); ok {
		t.Error("entry 2 should have been evicted")
	}
	if v, ok := c.Get(k(1)); !ok || v != 10 {
		t.Errorf("entry 1 should have survived, got %d,%v", v, ok)
	}
	if v, ok := c.Get(k(3)); !ok || v != 30 {
		t.Errorf("entry 3 should be present, got %d,%v", v, ok)
	}
	c.Put(k(3), 33) // replace in place
	if v, _ := c.Get(k(3)); v != 33 {
		t.Errorf("replace failed, got %d", v)
	}
	if c.Len() != 2 {
		t.Errorf("Len = %d, want 2", c.Len())
	}
	st := c.Stats()
	if st.Hits != 4 || st.Misses != 2 {
		t.Errorf("Stats = %d hits, %d misses; want 4, 2", st.Hits, st.Misses)
	}
	if st.Evictions != 1 {
		t.Errorf("Stats evictions = %d, want 1", st.Evictions)
	}
	if st.Shards != 1 {
		t.Errorf("Stats shards = %d, want 1", st.Shards)
	}
}

func TestLRUCacheEvictionOrder(t *testing.T) {
	c := NewSharded[int](3, 1)
	k := func(b byte) Key {
		var k Key
		k[0] = b
		return k
	}
	for i := byte(1); i <= 3; i++ {
		c.Put(k(i), int(i))
	}
	c.Get(k(1)) // order now 1,3,2 (MRU..LRU)
	c.Put(k(4), 4)
	if _, ok := c.Get(k(2)); ok {
		t.Error("2 was LRU and should be gone")
	}
	for _, b := range []byte{1, 3, 4} {
		if _, ok := c.Get(k(b)); !ok {
			t.Errorf("%d should still be cached", b)
		}
	}
}
