package fcache

// This file carries verbatim copies of the original canonicalizer as a
// test oracle: the refinement that builds and sorts a slice per point
// and hashes through hash/fnv, and the tie-break that allocates,
// permutes bit by bit and sorts two point slices per leaf. Only the
// names gained a ref prefix. The tests below assert that the rewritten
// kernels return byte-identical keys, perms and canonical functions.

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/bench"
	"repro/internal/bfunc"
	"repro/internal/bitvec"
)

// refCanonicalize is the original CanonicalizeCtx.
func refCanonicalize(ctx context.Context, f *bfunc.Func) (Key, []int, *bfunc.Func, error) {
	class, err := refRefineClasses(ctx, f)
	if err != nil {
		return Key{}, nil, nil, err
	}
	perm, err := refTieBreak(ctx, f, class)
	if err != nil {
		return Key{}, nil, nil, err
	}
	canon := refApplyPerm(f, perm)
	return keyOf(canon), perm, canon, nil
}

func refRefineClasses(ctx context.Context, f *bfunc.Func) ([]int, error) {
	n := f.N()
	class := make([]int, n)
	nclasses := 1
	for iter := 0; iter < n; iter++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		varSigs := make([][]uint64, n)
		cancelled := false
		collect := func(pts []uint64, tag byte) {
			for j, p := range pts {
				if j&1023 == 1023 && ctx.Err() != nil {
					cancelled = true
					return
				}
				h := refPointHash(p, n, class, tag)
				for i := 0; i < n; i++ {
					if p&bitvec.VarMask(n, i) != 0 {
						varSigs[i] = append(varSigs[i], h)
					}
				}
			}
		}
		collect(f.On(), 1)
		collect(f.DC(), 2)
		if cancelled {
			return nil, ctx.Err()
		}
		varHash := make([]uint64, n)
		for i := 0; i < n; i++ {
			sort.Slice(varSigs[i], func(a, b int) bool { return varSigs[i][a] < varSigs[i][b] })
			varHash[i] = refHashSeq(uint64(class[i]), varSigs[i])
		}
		order := make([]int, n)
		for i := range order {
			order[i] = i
		}
		sort.Slice(order, func(a, b int) bool {
			ia, ib := order[a], order[b]
			if class[ia] != class[ib] {
				return class[ia] < class[ib]
			}
			return varHash[ia] < varHash[ib]
		})
		next := make([]int, n)
		nnext := 0
		for idx, v := range order {
			if idx > 0 {
				prev := order[idx-1]
				if class[prev] != class[v] || varHash[prev] != varHash[v] {
					nnext++
				}
			}
			next[v] = nnext
		}
		nnext++
		if nnext == nclasses {
			return class, nil
		}
		class, nclasses = next, nnext
		if nclasses == n {
			return class, nil
		}
	}
	return class, nil
}

func refPointHash(p uint64, n int, class []int, tag byte) uint64 {
	var classes []uint64
	for i := 0; i < n; i++ {
		if p&bitvec.VarMask(n, i) != 0 {
			classes = append(classes, uint64(class[i]))
		}
	}
	sort.Slice(classes, func(a, b int) bool { return classes[a] < classes[b] })
	return refHashSeq(uint64(tag), classes)
}

func refHashSeq(seed uint64, vals []uint64) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], seed)
	h.Write(buf[:])
	for _, v := range vals {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	return h.Sum64()
}

func refTieBreak(ctx context.Context, f *bfunc.Func, class []int) ([]int, error) {
	n := f.N()
	groups := make([][]int, 0, n)
	byClass := map[int][]int{}
	for i := 0; i < n; i++ {
		byClass[class[i]] = append(byClass[class[i]], i)
	}
	classes := make([]int, 0, len(byClass))
	for c := range byClass {
		classes = append(classes, c)
	}
	sort.Ints(classes)
	ambiguous := false
	overBudget := false
	candidates := 1
	pts := f.OnCount() + len(f.DC())
	if pts == 0 {
		pts = 1
	}
	for _, c := range classes {
		g := byClass[c]
		groups = append(groups, g)
		if len(g) > 1 {
			ambiguous = true
			// Once over budget, stop multiplying: candidates stays
			// bounded (no overflow) and the flag cannot be unset.
			for k := 2; k <= len(g) && !overBudget; k++ {
				candidates *= k
				if candidates > tieBreakWork/pts {
					overBudget = true
				}
			}
		}
	}

	// Fallback / unambiguous layout: group members in original index
	// order at the group's positions.
	layout := func() []int {
		perm := make([]int, n)
		pos := 0
		for _, g := range groups {
			for _, v := range g {
				perm[v] = pos
				pos++
			}
		}
		return perm
	}
	if !ambiguous || overBudget {
		return layout(), nil
	}

	best := layout()
	bestOn, bestDC := refMapPoints(f, best)
	perm := make([]int, n)
	work, leaves := 0, 0
	var ctxErr error
	var walk func(gi, pos int) bool // false stops the enumeration
	walk = func(gi, pos int) bool {
		if gi == len(groups) {
			leaves++
			if leaves&255 == 0 {
				if err := ctx.Err(); err != nil {
					ctxErr = err
					return false
				}
			}
			work += pts
			if work > tieBreakWork {
				return false // hard cap: the estimate undercounted
			}
			on, dc := refMapPoints(f, perm)
			if refLessPoints(on, dc, bestOn, bestDC) {
				copy(best, perm)
				bestOn, bestDC = on, dc
			}
			return true
		}
		g := groups[gi]
		return refPermuteGroup(g, func(assign []int) bool {
			for k, v := range assign {
				perm[v] = pos + k
			}
			return walk(gi+1, pos+len(g))
		})
	}
	walk(0, 0)
	if ctxErr != nil {
		return nil, ctxErr
	}
	return best, nil
}

func refPermuteGroup(g []int, fn func([]int) bool) bool {
	a := append([]int(nil), g...)
	var rec func(k int) bool
	rec = func(k int) bool {
		if k == 1 {
			return fn(a)
		}
		for i := 0; i < k; i++ {
			if !rec(k - 1) {
				return false
			}
			if k%2 == 0 {
				a[i], a[k-1] = a[k-1], a[i]
			} else {
				a[0], a[k-1] = a[k-1], a[0]
			}
		}
		return true
	}
	return rec(len(a))
}

func refMapPoints(f *bfunc.Func, perm []int) (on, dc []uint64) {
	n := f.N()
	on = make([]uint64, f.OnCount())
	for i, p := range f.On() {
		on[i] = bitvec.PermutePoint(p, n, perm)
	}
	sort.Slice(on, func(a, b int) bool { return on[a] < on[b] })
	if len(f.DC()) > 0 {
		dc = make([]uint64, len(f.DC()))
		for i, p := range f.DC() {
			dc[i] = bitvec.PermutePoint(p, n, perm)
		}
		sort.Slice(dc, func(a, b int) bool { return dc[a] < dc[b] })
	}
	return on, dc
}

func refLessPoints(on1, dc1, on2, dc2 []uint64) bool {
	for i := range on1 {
		if on1[i] != on2[i] {
			return on1[i] < on2[i]
		}
	}
	for i := range dc1 {
		if dc1[i] != dc2[i] {
			return dc1[i] < dc2[i]
		}
	}
	return false
}

func refApplyPerm(f *bfunc.Func, perm []int) *bfunc.Func {
	on, dc := refMapPoints(f, perm)
	return bfunc.NewDC(f.N(), on, dc)
}

// checkMatchesReference fails t unless Canonicalize and the reference
// agree on f's class partition, key, perm and canonical function, and
// returns the perm and canonical function Canonicalize gave.
func checkMatchesReference(t *testing.T, name string, f *bfunc.Func) ([]int, *bfunc.Func) {
	t.Helper()
	ctx := context.Background()
	gotClass, err := refineClasses(ctx, f)
	if err != nil {
		t.Fatalf("%s: refineClasses: %v", name, err)
	}
	wantClass, err := refRefineClasses(ctx, f)
	if err != nil {
		t.Fatalf("%s: reference refineClasses: %v", name, err)
	}
	if !slices.Equal(gotClass, wantClass) {
		t.Fatalf("%s: classes %v, reference %v", name, gotClass, wantClass)
	}
	k, perm, canon := Canonicalize(f)
	wk, wperm, wcanon, err := refCanonicalize(ctx, f)
	if err != nil {
		t.Fatalf("%s: reference: %v", name, err)
	}
	if k != wk || !slices.Equal(perm, wperm) || !canon.Equal(wcanon) {
		t.Fatalf("%s: got key %s perm %v, reference key %s perm %v (canon equal %v)",
			name, k, perm, wk, wperm, canon.Equal(wcanon))
	}
	return perm, canon
}

// serveHotBases are the functions the repository benchmark's serve-hot
// workload permutes and requests.
var serveHotBases = []string{"max512", "prom2", "max1024", "newtpla2", "newcond", "amd", "add6"}

// TestCanonicalizeMatchesReference holds the kernels to the original
// canonicalizer on every benchmark output, on seeded permutations of
// the serve-hot outputs (the perm must follow the input's variable
// order), on random and symmetric functions with DC sets, where the
// refinement leaves the most ambiguity, and on sparse functions: tied
// cycles over 9 or 10 variables, whose leaves the point lists score,
// and random points over up to 64 variables.
func TestCanonicalizeMatchesReference(t *testing.T) {
	t.Run("bench", func(t *testing.T) {
		for _, name := range bench.Names() {
			for i, f := range bench.MustLoad(name).Outputs {
				checkMatchesReference(t, fmt.Sprintf("%s/%d", name, i), f)
			}
		}
	})
	t.Run("serve-hot-permutations", func(t *testing.T) {
		rng := rand.New(rand.NewSource(1))
		for _, name := range serveHotBases {
			for i, f := range bench.MustLoad(name).Outputs {
				for v := 0; v < 8; v++ {
					checkMatchesReference(t, fmt.Sprintf("%s/%d/perm%d", name, i, v), permFunc(f, rng.Perm(f.N())))
				}
			}
		}
	})
	t.Run("random-dc", func(t *testing.T) {
		rng := rand.New(rand.NewSource(15))
		for trial := 0; trial < 300; trial++ {
			n := 1 + rng.Intn(12)
			var on, dc []uint64
			for p := uint64(0); p < 1<<uint(n); p++ {
				switch rng.Intn(5) {
				case 0, 1:
					on = append(on, p)
				case 2:
					dc = append(dc, p)
				}
			}
			checkMatchesReference(t, fmt.Sprintf("random/%d", trial), bfunc.NewDC(n, on, dc))
		}
	})
	t.Run("threshold-dc", func(t *testing.T) {
		// Symmetric functions (ON by weight, DC on a band of weights)
		// put every variable in one class; a few renamed asymmetric
		// points split it into the small classes the tie-break walks.
		rng := rand.New(rand.NewSource(16))
		for trial := 0; trial < 200; trial++ {
			n := 2 + rng.Intn(11)
			th := rng.Intn(n + 1)
			band := rng.Intn(3)
			var on, dc []uint64
			for p := uint64(0); p < 1<<uint(n); p++ {
				w := bitvec.OnesCount(p)
				switch {
				case w >= th && w < th+band:
					dc = append(dc, p)
				case w >= th+band:
					on = append(on, p)
				}
			}
			for k := rng.Intn(3); k > 0; k-- {
				dc = append(dc, uint64(rng.Intn(1<<uint(n))))
			}
			f := permFunc(bfunc.NewDC(n, on, dc), rng.Perm(n))
			checkMatchesReference(t, fmt.Sprintf("threshold/%d", trial), f)
		}
	})
	t.Run("sparse", func(t *testing.T) {
		// Fewer points than a truth table has words, so the point lists
		// score the leaves. Each function is disjoint cycles over 3 to
		// n-3 of the variables, one ON or DC point per edge: every cycle
		// variable has two neighbours, so the refinement cannot tell
		// cycles of different lengths apart, and the tie-break finds
		// smaller leaves than the layout.
		rng := rand.New(rand.NewSource(18))
		for trial := 0; trial < 60; trial++ {
			n := 9 + rng.Intn(2)
			var lens []int
			for left := 3 + rng.Intn(n-5); left > 0; {
				l := left
				if left >= 6 {
					l = 3 + rng.Intn(left-5)
				}
				lens = append(lens, l)
				left -= l
			}
			on := cycleEdges(n, lens...)
			var dc []uint64
			for k := rng.Intn(3); k > 0; k-- {
				i := rng.Intn(len(on))
				dc = append(dc, on[i])
				on = append(on[:i], on[i+1:]...)
			}
			f := permFunc(bfunc.NewDC(n, on, dc), rng.Perm(n))
			checkMatchesReference(t, fmt.Sprintf("sparse/%d", trial), f)
		}
	})
	t.Run("wide", func(t *testing.T) {
		// Up to 64 variables: images span up to 16 lookup tables and 8
		// radix passes. Six variables are 0 in every point, so they
		// form one class and the tie-break walks its 6! orderings.
		rng := rand.New(rand.NewSource(17))
		for trial := 0; trial < 24; trial++ {
			n := []int{17, 24, 40, 64}[trial%4]
			var zero uint64
			for _, v := range rng.Perm(n)[:6] {
				zero |= bitvec.VarMask(n, v)
			}
			point := func() uint64 { return rng.Uint64() & bitvec.SpaceMask(n) &^ zero }
			var on, dc []uint64
			for k := 65 + rng.Intn(200); k > 0; k-- {
				on = append(on, point())
			}
			for k := rng.Intn(80); k > 0; k-- {
				dc = append(dc, point())
			}
			checkMatchesReference(t, fmt.Sprintf("wide/%d", trial), bfunc.NewDC(n, on, dc))
		}
	})
}

// cycleEdges returns one point per edge of disjoint cycles of the given
// lengths, laid over variables 0, 1, ... in order: each point sets the
// bits of an edge's two variables.
func cycleEdges(n int, lens ...int) []uint64 {
	var pts []uint64
	v := 0
	for _, l := range lens {
		for k := 0; k < l; k++ {
			pts = append(pts, bitvec.VarMask(n, v+k)|bitvec.VarMask(n, v+(k+1)%l))
		}
		v += l
	}
	return pts
}

// fuzzSeed encodes f for decodeFuzzFunc, one 2-bit code a point. The
// same bytes drive the renaming, so f comes back permuted.
func fuzzSeed(f *bfunc.Func) []byte {
	n := f.N()
	data := make([]byte, 1+max(1, 1<<n/4))
	data[0] = byte(n - 1)
	for _, p := range f.On() {
		data[1+p/4] |= 1 << (2 * (p % 4))
	}
	for _, p := range f.DC() {
		data[1+p/4] |= 2 << (2 * (p % 4))
	}
	return data
}

// decodeFuzzFunc reads a function and a variable renaming from data.
// Byte 0 picks n ≤ 10. The remaining bytes, repeated as often as
// needed, drive a Fisher–Yates shuffle and, read again from the start,
// give each point two bits in point order: ON, DC or (both clear) OFF.
// Repeating the bytes rather than padding with OFF points keeps a short
// input from decoding to a function that is OFF past its first few
// points. An all-zero body still decodes to the empty function, whose
// n symmetric variables make the tie-break walk up to 10! leaves (a few
// tenths of a second for each of the kernels and the reference).
func decodeFuzzFunc(data []byte) (*bfunc.Func, []int, bool) {
	if len(data) < 2 {
		return nil, nil, false
	}
	n := 1 + int(data[0])%10
	body := data[1:]
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := int(body[i%len(body)]) % (i + 1)
		perm[i], perm[j] = perm[j], perm[i]
	}
	var on, dc []uint64
	for p := 0; p < 1<<uint(n); p++ {
		switch (body[p/4%len(body)] >> (2 * (p % 4))) & 3 {
		case 1, 3:
			on = append(on, uint64(p))
		case 2:
			dc = append(dc, uint64(p))
		}
	}
	return bfunc.NewDC(n, on, dc), perm, true
}

// FuzzCanonicalize holds Canonicalize to the reference on fuzzed
// functions with DC sets, renamed by a fuzzed permutation, and checks
// that the returned perm maps the input onto the canonical function.
// The last two seeds make the seed corpus reach both scorers with tied
// classes whose tie-break finds smaller leaves than the layout: truth
// tables on a dense function with DC points (a 3-cycle and a 5-cycle of
// ON edges over 8 variables, DC from weight 6 up), and point lists on a
// sparse one (a 3-cycle and a 4-cycle over 7 of 10 variables).
func FuzzCanonicalize(f *testing.F) {
	f.Add([]byte{3, 1, 2, 0x19, 0x86, 0x42, 0x11})
	f.Add([]byte{5, 7, 3, 1, 0, 0xff, 0x00, 0x5a, 0xa5, 0x24, 0x81, 0x66, 0x99})
	f.Add([]byte{7, 9, 4, 4, 1, 8, 2, 0x21, 0x84, 0x12, 0x48, 0x60, 0x06, 0x90, 0x09})
	f.Add([]byte{9, 3, 1, 4, 1, 5, 9, 2, 6, 0x66, 0x55, 0x99, 0xaa, 0x5a, 0xa5, 0x69, 0x96})
	var heavy []uint64
	for p := uint64(0); p < 1<<8; p++ {
		if bitvec.OnesCount(p) >= 6 {
			heavy = append(heavy, p)
		}
	}
	f.Add(fuzzSeed(bfunc.NewDC(8, cycleEdges(8, 3, 5), heavy)))
	f.Add(fuzzSeed(bfunc.New(10, cycleEdges(10, 3, 4))))
	f.Fuzz(func(t *testing.T, data []byte) {
		fn, perm, ok := decodeFuzzFunc(data)
		if !ok {
			return
		}
		g := permFunc(fn, perm)
		cperm, canon := checkMatchesReference(t, "fuzz", g)
		if !permFunc(g, cperm).Equal(canon) {
			t.Fatalf("perm %v does not map %v onto its canonical function", cperm, g)
		}
	})
}
