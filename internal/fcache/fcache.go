// Package fcache provides a canonical-function cache for minimization
// results. Two requests whose Boolean functions differ only by a
// permutation of input variables (P-equivalence) or by the textual
// representation of their DC sets reduce to the same canonical function
// and therefore the same cache key, so the second request is served
// from the cache and its SPP form is mapped back to the request's
// variable order.
//
// Safety does not depend on the canonicalization being perfect: the key
// is a SHA-256 hash of the canonical point sets, so equal keys imply
// identical canonical functions (up to hash collision). When the
// tie-break search is cut off by its work budget the canonical form is
// merely best-effort — two equivalent functions may map to different
// keys and miss the cache — but a hit is always sound. Callers that
// want belt-and-braces safety can store the canonical *bfunc.Func in
// the cache value and Equal-check it on hit.
package fcache

import (
	"cmp"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"math/bits"
	"slices"

	"repro/internal/bfunc"
	"repro/internal/bitvec"
)

// Key identifies a canonical function (plus, via Derive, any
// result-affecting options) in the cache.
type Key [32]byte

// String returns the key as lowercase hex.
func (k Key) String() string { return hex.EncodeToString(k[:]) }

// ParseKey decodes the 64-hex-digit form produced by Key.String. It is
// how serving layers turn a client-supplied base key (an opaque token
// from an earlier response) back into a cache key.
func ParseKey(s string) (Key, error) {
	var k Key
	if hex.DecodedLen(len(s)) != len(k) {
		return Key{}, fmt.Errorf("fcache: key must be %d hex digits, got %d characters", 2*len(k), len(s))
	}
	if _, err := hex.Decode(k[:], []byte(s)); err != nil {
		return Key{}, fmt.Errorf("fcache: bad key: %v", err)
	}
	return k, nil
}

// Derive returns a key that mixes in a tag describing result-affecting
// options (e.g. "k=2;exact=true"), so the same function minimized under
// different options occupies distinct cache slots.
func (k Key) Derive(tag string) Key {
	h := sha256.New()
	h.Write(k[:])
	io.WriteString(h, tag)
	var out Key
	h.Sum(out[:0])
	return out
}

// WarmStateKey derives the cache slot of the shared canonical-space
// warm state: one heavy snapshot per (canonical function, option tag),
// no matter how many permuted-equivalent client bases point at it.
// canonical must be a key from Canonicalize (or a Derive-free KeyOf of
// an already-canonical function).
func WarmStateKey(canonical Key, tag string) Key {
	return canonical.Derive("warmstate;" + tag)
}

// WarmPointerKey derives the cache slot of a per-client warm pointer
// entry: keyed by the client's exact (request-space) function key, it
// carries the client's permutation plus a WarmStateKey reference to the
// shared canonical snapshot. The "warm;" vs "warmstate;" tag prefixes
// keep the two keyspaces disjoint for every tag.
func WarmPointerKey(exact Key, tag string) Key {
	return exact.Derive("warm;" + tag)
}

// tieBreakWork bounds the work spent enumerating permutations inside
// ambiguous variable classes. Each leaf is charged one unit per ON and
// DC point, what mapping and sorting its point lists costs, on both
// scorers: a truth table scores a leaf for less, but the charge, and so
// which functions are enumerated and which keys they get, does not
// depend on the scorer. Small functions get thousands of candidates;
// huge ON sets fall back to a deterministic (but not
// permutation-invariant) order almost immediately.
const tieBreakWork = 1 << 22

// Canonicalize computes a canonical representative of f's
// P-equivalence class. It returns the cache key, the permutation perm
// such that canonical variable perm[i] corresponds to f's variable i
// (canon's points are bitvec.PermutePoint(p, n, perm) of f's points),
// and the canonical function itself. Results computed over canon map
// back to f's variable order via the inverse permutation.
//
// The canonicalization is exact — equivalent functions get equal keys —
// whenever the class refinement plus the bounded tie-break resolves
// every variable; beyond the work budget it degrades to a deterministic
// best effort (equal inputs still get equal keys, some equivalent
// inputs may not).
func Canonicalize(f *bfunc.Func) (Key, []int, *bfunc.Func) {
	k, perm, canon, _ := CanonicalizeCtx(context.Background(), f)
	return k, perm, canon
}

// CanonicalizeCtx is Canonicalize with cancellation: the refinement
// rounds and the tie-break enumeration poll ctx and abort with its
// error, so a per-request deadline bounds canonicalization of large or
// adversarial inputs. On error the other return values are unusable.
// Cancellation never yields a truncated key — truncation by the
// (deterministic) work budget does not report an error.
func CanonicalizeCtx(ctx context.Context, f *bfunc.Func) (Key, []int, *bfunc.Func, error) {
	k, perm, canon, _, err := CanonicalizeExact(ctx, f)
	return k, perm, canon, err
}

// CanonicalizeExact is CanonicalizeCtx that also reports whether the
// key is exact: false when the tie-break's work budget cut its
// enumeration short, so that a permuted variant of f may get a key of
// its own.
func CanonicalizeExact(ctx context.Context, f *bfunc.Func) (Key, []int, *bfunc.Func, bool, error) {
	class, err := refineClasses(ctx, f)
	if err != nil {
		return Key{}, nil, nil, false, err
	}
	perm, img, exact, err := tieBreak(ctx, f, class)
	if err != nil {
		return Key{}, nil, nil, false, err
	}
	on := f.OnCount()
	canon := bfunc.NewDC(f.N(), img[:on], img[on:])
	return keyOf(canon), perm, canon, exact, nil
}

// KeyOf returns the cache key of f without canonicalizing: equal
// functions get equal keys, permuted ones do not. Useful for tests and
// for callers that have already canonicalized.
func KeyOf(f *bfunc.Func) Key { return keyOf(f) }

// refineClasses partitions variables into equivalence classes by
// iterated Weisfeiler–Leman-style refinement over the point/variable
// incidence structure: each round hashes, per variable, the multiset of
// point signatures (ON/DC tag + multiset of current classes of the
// point's set bits) of the points containing that variable, then splits
// classes that hash apart. Equivalent-under-permutation inputs produce
// identical class structures. The initial uniform class makes round one
// equivalent to the classic per-weight bit-count signature. Class ids
// are dense, from 0 to the number of classes less one.
//
// The rounds allocate nothing. Every buffer is sized once. Each round
// hashes every point and sorts the points by signature, ON and DC
// together; variable i's signatures then fill sigs[off[i]:off[i+1]] in
// that order, a span as long as the number of points that contain i and
// already sorted.
func refineClasses(ctx context.Context, f *bfunc.Func) ([]int, error) {
	n := f.N()
	on, dc := f.On(), f.DC()
	off := make([]int, n+1)
	for _, pts := range [2][]uint64{on, dc} {
		for _, p := range pts {
			for q := p; q != 0; q &= q - 1 {
				i := n - 1 - bits.TrailingZeros64(q)
				off[i+1]++
			}
		}
	}
	for i := 0; i < n; i++ {
		off[i+1] += off[i]
	}
	sigs := make([]uint64, off[n])
	byHash := make([]signedPoint, len(on)+len(dc))
	fill := make([]int, n)
	class, next := make([]int, n), make([]int, n)
	classBits := make([]uint64, n)
	varHash := make([]uint64, n)
	order := make([]int, n)
	nclasses := 1
	for iter := 0; iter < n; iter++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		clear(classBits[:nclasses])
		for i, c := range class {
			classBits[c] |= bitvec.VarMask(n, i)
		}
		if !hashPoints(ctx, byHash[:len(on)], on, 1, classBits[:nclasses]) ||
			!hashPoints(ctx, byHash[len(on):], dc, 2, classBits[:nclasses]) {
			return nil, ctx.Err()
		}
		slices.SortFunc(byHash, func(a, b signedPoint) int { return cmp.Compare(a.sig, b.sig) })
		copy(fill, off[:n])
		for _, s := range byHash {
			for q := s.p; q != 0; q &= q - 1 {
				i := n - 1 - bits.TrailingZeros64(q)
				sigs[fill[i]] = s.sig
				fill[i]++
			}
		}
		for i := 0; i < n; i++ {
			varHash[i] = hashSeq(uint64(class[i]), sigs[off[i]:off[i+1]])
		}
		for i := range order {
			order[i] = i
		}
		// Variables tied on (class, hash) get the same next id, so the
		// sort need not be stable.
		slices.SortFunc(order, func(a, b int) int {
			if c := cmp.Compare(class[a], class[b]); c != 0 {
				return c
			}
			return cmp.Compare(varHash[a], varHash[b])
		})
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
		class, next = next, class
		nclasses = nnext
		if nclasses == n {
			return class, nil
		}
	}
	return class, nil
}

// signedPoint is a point with its signature in the current round.
type signedPoint struct{ sig, p uint64 }

// hashPoints sets dst[j] to pts[j] and its signature; it reports false
// if ctx was cancelled.
func hashPoints(ctx context.Context, dst []signedPoint, pts []uint64, tag uint64, classBits []uint64) bool {
	for j, p := range pts {
		if j&1023 == 1023 && ctx.Err() != nil {
			return false
		}
		dst[j] = signedPoint{pointHash(p, classBits, tag), p}
	}
	return true
}

// pointHash hashes a point's invariant view: its ON/DC tag plus the
// ascending multiset of variable classes at its set bits. classBits[c]
// holds the bits of class c's variables, so class c occurs
// OnesCount(p&classBits[c]) times.
func pointHash(p uint64, classBits []uint64, tag uint64) uint64 {
	h := fnvByte(fnvOffset, tag)
	for c, m := range classBits {
		for k := bits.OnesCount64(p & m); k > 0; k-- {
			h = fnvByte(h, uint64(c))
		}
	}
	return h
}

// The 64-bit FNV-1a parameters; hashing inline allocates nothing.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
	fnvPrime8 = 0x1efac7090aef4a21 // fnvPrime⁸ mod 2⁶⁴
)

// fnvWord feeds v's eight little-endian bytes to the FNV-1a state h.
func fnvWord(h, v uint64) uint64 {
	for b := 0; b < 8; b++ {
		h = (h ^ v&0xff) * fnvPrime
		v >>= 8
	}
	return h
}

// fnvByte is fnvWord for v < 256: XOR with each of the seven zero high
// bytes leaves h alone, so the eight steps collapse into one product.
func fnvByte(h, v uint64) uint64 {
	return (h ^ v) * fnvPrime8
}

// hashSeq is the FNV-1a hash of seed (< 256) and then vals, each as
// eight little-endian bytes.
func hashSeq(seed uint64, vals []uint64) uint64 {
	h := fnvByte(fnvOffset, seed)
	for _, v := range vals {
		h = fnvWord(h, v)
	}
	return h
}

// tieBreak turns the class partition into a concrete permutation, and
// returns it with the sorted images of f's ON points followed by the
// sorted images of its DC points, and whether the permutation is exact.
// Classes are laid out in class order; within a class, every assignment
// of members to positions yields an equivalent candidate, so we
// enumerate all combinations (as long as the total point-mapping work
// stays under tieBreakWork) and keep the one whose permuted (ON, DC)
// point lists are lexicographically smallest. If the class structure is
// too ambiguous to afford enumeration, members keep their original
// relative order — deterministic, but not permutation-invariant, so not
// exact. The walk itself meters the work actually spent, so even a wrong
// estimate cannot exceed the budget; ctx cancellation aborts with an
// error rather than a (nondeterministically) truncated permutation.
func tieBreak(ctx context.Context, f *bfunc.Func, class []int) ([]int, []uint64, bool, error) {
	n := f.N()
	// members lists the variables by class, then by index; each group
	// is one class's span of it.
	members := make([]int, n)
	for i := range members {
		members[i] = i
	}
	slices.SortStableFunc(members, func(a, b int) int { return cmp.Compare(class[a], class[b]) })
	groups := make([][]int, 0, n)
	for lo := 0; lo < n; {
		hi := lo + 1
		for hi < n && class[members[hi]] == class[members[lo]] {
			hi++
		}
		groups = append(groups, members[lo:hi])
		lo = hi
	}
	ambiguous := false
	overBudget := false
	candidates := 1
	pts := f.OnCount() + len(f.DC())
	if pts == 0 {
		pts = 1
	}
	for _, g := range groups {
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
	best := make([]int, n)
	for pos, v := range members {
		best[v] = pos
	}
	s := newScorer(f, best)
	if !ambiguous || overBudget {
		return best, s.images(), !overBudget, nil
	}

	w := leafWalk{
		ctx:    ctx,
		s:      s,
		groups: groups,
		order:  slices.Clone(members),
		perm:   slices.Clone(best),
		best:   best,
		pts:    pts,
	}
	w.walk(0, 0)
	if w.err != nil {
		return nil, nil, false, w.err
	}
	return w.best, s.images(), w.work <= tieBreakWork, nil
}

// leafWalk enumerates the tie-break's candidates: Heap's algorithm over
// each group's members, nested group by group, keeping the leaf whose
// sorted images are lexicographically smallest. Group gi occupies
// positions pos..pos+len(groups[gi])-1, and order holds the variables
// at every position, which Heap's algorithm permutes.
type leafWalk struct {
	ctx          context.Context
	s            scorer
	groups       [][]int
	order        []int
	perm         []int // the leaf being built: the inverse of order
	best         []int
	pts          int
	work, leaves int
	err          error
}

// walk enumerates the assignments of groups gi onward, starting at
// position pos; false stops the enumeration. Each group's enumeration
// starts from its members in index order, which swaps restore.
func (w *leafWalk) walk(gi, pos int) bool {
	if gi == len(w.groups) {
		return w.leaf()
	}
	g := w.groups[gi]
	for j, v := range g {
		if w.order[pos+j] != v {
			w.swap(pos+j, w.perm[v])
		}
	}
	return w.permute(gi, pos, len(g))
}

// permute runs Heap's algorithm over the first k entries of group gi's
// ordering, descending to the next group at each ordering it reaches.
func (w *leafWalk) permute(gi, pos, k int) bool {
	if k == 1 {
		return w.walk(gi+1, pos+len(w.groups[gi]))
	}
	for i := 0; i < k; i++ {
		if !w.permute(gi, pos, k-1) {
			return false
		}
		j := 0
		if k%2 == 0 {
			j = i
		}
		if j != k-1 {
			w.swap(pos+j, pos+k-1)
		}
	}
	return true
}

// swap exchanges the variables at positions a and b.
func (w *leafWalk) swap(a, b int) {
	va, vb := w.order[b], w.order[a]
	w.order[a], w.order[b] = va, vb
	w.perm[va], w.perm[vb] = a, b
	w.s.swap(a, b, va, vb)
}

// leaf meters the work of scoring w.perm, scores it, and keeps it on a
// strict improvement.
func (w *leafWalk) leaf() bool {
	w.leaves++
	if w.leaves&255 == 0 {
		if err := w.ctx.Err(); err != nil {
			w.err = err
			return false
		}
	}
	w.work += w.pts
	if w.work > tieBreakWork {
		return false // hard cap: the estimate undercounted
	}
	if w.s.improve() {
		copy(w.best, w.perm)
	}
	return true
}

// A scorer holds the images of f's points under the tie-break's
// current leaf, and those of the smallest leaf it has kept.
type scorer interface {
	// swap moves variable va to position a and vb to position b,
	// exchanging the two.
	swap(a, b, va, vb int)
	// improve keeps the current leaf if its sorted (ON, DC) images are
	// lexicographically smaller than the kept leaf's, and reports
	// whether it did.
	improve() bool
	// images returns the kept leaf's sorted ON images followed by its
	// sorted DC images.
	images() []uint64
}

// newScorer places f's variables at the positions place gives. It
// scores on truth tables when their ⌈2^n/64⌉ words are no more than f's
// ON and DC points, and on the point lists otherwise: only they fit
// every n up to 64 and every sparse function.
func newScorer(f *bfunc.Func, place []int) scorer {
	n, pts := f.N(), f.OnCount()+len(f.DC())
	// A table takes 2^(n-6) words, one for n ≤ 6: no more than pts
	// exactly when n-6 < bits.Len(pts), which keeps the shift in range.
	if pts > 0 && (n <= 6 || n-6 < bits.Len(uint(pts))) {
		return newTruthTable(f, place, 1<<max(n-6, 0))
	}
	return newImager(f, place)
}

// truthTable scores leaves on bitmaps over B^n: bit x of the ON table
// is set when x is the image of an ON point, and likewise for the DC
// table, which is present only when f has DC points. Exchanging two
// positions transposes two index bits of each table. The sorted list of
// a set is lexicographically smaller than that of another set of the
// same size exactly when the lowest element of their symmetric
// difference lies in the first, so leaves compare by the lowest bit
// where their tables differ: ON first, then DC, as the point lists do.
type truthTable struct {
	n, words, pts int
	cur, best     []uint64 // the ON table, then the DC table
}

func newTruthTable(f *bfunc.Func, place []int, words int) *truthTable {
	n := f.N()
	size := words
	if len(f.DC()) > 0 {
		size *= 2
	}
	buf := make([]uint64, 2*size)
	t := &truthTable{n: n, words: words, pts: f.OnCount() + len(f.DC()), cur: buf[:size], best: buf[size:]}
	// bitImg[k] is the image of point bit k, the bit of variable n-1-k.
	var bitImg [64]uint64
	for v, pos := range place {
		bitImg[n-1-v] = bitvec.VarMask(n, pos)
	}
	for i, pts := range [2][]uint64{f.On(), f.DC()} {
		table := t.cur[i*words:]
		for _, p := range pts {
			var x uint64
			for q := p; q != 0; q &= q - 1 {
				x |= bitImg[bits.TrailingZeros64(q)]
			}
			table[x>>6] |= 1 << (x & 63)
		}
	}
	copy(t.best, t.cur)
	return t
}

// swap transposes the index bits of positions a and b, whichever
// variables sit there.
func (t *truthTable) swap(a, b, _, _ int) {
	i, j := t.n-1-max(a, b), t.n-1-min(a, b)
	for lo := 0; lo < len(t.cur); lo += t.words {
		transpose(t.cur[lo:lo+t.words], i, j)
	}
}

func (t *truthTable) improve() bool {
	for k, x := range t.cur {
		if d := x ^ t.best[k]; d != 0 {
			if x&d&-d == 0 {
				return false
			}
			copy(t.best, t.cur)
			return true
		}
	}
	return false
}

func (t *truthTable) images() []uint64 {
	img := make([]uint64, 0, t.pts)
	for k, x := range t.best {
		base := uint64(k%t.words) << 6
		for ; x != 0; x &= x - 1 {
			img = append(img, base|uint64(bits.TrailingZeros64(x)))
		}
	}
	return img
}

// bitMask[b] has bit y set, for y < 64, when y has bit b set.
var bitMask = [6]uint64{
	0xaaaaaaaaaaaaaaaa, 0xcccccccccccccccc, 0xf0f0f0f0f0f0f0f0,
	0xff00ff00ff00ff00, 0xffff0000ffff0000, 0xffffffff00000000,
}

// transpose exchanges index bits i < j of the truth table t: the bit at
// index x moves to x with bits i and j swapped. Index bits below 6 pick
// a bit within a word, the rest pick the word, so there are three kinds
// of exchange.
func transpose(t []uint64, i, j int) {
	switch {
	case j < 6:
		// A delta swap in each word: bit y, with bit i set and bit j
		// clear, trades places with bit y + 2^j - 2^i.
		s := uint(1<<j - 1<<i)
		m := bitMask[i] &^ bitMask[j]
		for k, x := range t {
			d := (x ^ x>>s) & m
			t[k] = x ^ d ^ d<<s
		}
	case i < 6:
		// Word k, with bit j-6 clear, trades its bits with bit i set for
		// the bits 2^i lower of word k + 2^(j-6).
		s, stride := uint(1)<<i, 1<<(j-6)
		m := ^bitMask[i]
		for lo := 0; lo < len(t); lo += 2 * stride {
			for k := lo; k < lo+stride; k++ {
				d := (t[k]>>s ^ t[k+stride]) & m
				t[k] ^= d << s
				t[k+stride] ^= d
			}
		}
	default:
		// Word k, with bit i-6 set and bit j-6 clear, trades places
		// with word k + 2^(j-6) - 2^(i-6).
		si, sj := 1<<(i-6), 1<<(j-6)
		for k := range t {
			if k&si != 0 && k&sj == 0 {
				t[k], t[k-si+sj] = t[k-si+sj], t[k]
			}
		}
	}
}

// imager scores leaves on the point lists: it maps f's points through
// the placement and sorts the images. A point's image is the OR of one
// table lookup per nibble of the point: tables[b][x] is the image of the
// bits x sets in nibble b. The sort is an LSD radix sort with at most
// one pass per byte, so every n up to 64 and every point count takes the
// same path.
type imager struct {
	on, dc         []uint64
	n              int
	bitImg         [64]uint64 // bitImg[k]: the image of point bit k
	tables         [16][16]uint64
	tmp, cur, best []uint64
	count          [256]int
}

func newImager(f *bfunc.Func, place []int) *imager {
	pts := f.OnCount() + len(f.DC())
	buf := make([]uint64, 3*pts)
	m := &imager{
		on:   f.On(),
		dc:   f.DC(),
		n:    f.N(),
		tmp:  buf[:pts],
		cur:  buf[pts : 2*pts],
		best: buf[2*pts:],
	}
	for v, pos := range place {
		m.place(v, pos)
	}
	m.sortedImages(m.best)
	return m
}

func (m *imager) swap(a, b, va, vb int) {
	m.place(va, a)
	m.place(vb, b)
}

func (m *imager) improve() bool {
	m.sortedImages(m.cur)
	if slices.Compare(m.cur, m.best) < 0 {
		m.cur, m.best = m.best, m.cur
		return true
	}
	return false
}

func (m *imager) images() []uint64 { return m.best }

// place sends variable v, which is point bit n-1-v, to position pos.
// Each table entry is the XOR of the images of the bits it sets (the
// OR, once every variable is placed), so moving one bit's image
// touches the eight entries that set the bit.
func (m *imager) place(v, pos int) {
	k := m.n - 1 - v
	img := bitvec.VarMask(m.n, pos)
	d := img ^ m.bitImg[k]
	m.bitImg[k] = img
	t, bit := &m.tables[k/4], 1<<(k%4)
	for x := bit; x < 16; x = (x + 1) | bit {
		t[x] ^= d
	}
}

// sortedImages writes into dst the sorted images of the ON points under
// the current placement, followed by the sorted images of the DC points.
func (m *imager) sortedImages(dst []uint64) {
	on, dc := dst[:len(m.on)], dst[len(m.on):]
	m.mapPoints(on, m.on)
	m.mapPoints(dc, m.dc)
	m.radixSort(on)
	m.radixSort(dc)
}

func (m *imager) mapPoints(dst, pts []uint64) {
	tables := m.tables[:(m.n+3)/4]
	for i, p := range pts {
		var q uint64
		for b := range tables {
			q |= tables[b][(p>>(4*b))&15]
		}
		dst[i] = q
	}
}

// radixSort sorts a ascending: one stable counting pass per byte of the
// keys, least significant first. A byte's digits all lie between that
// byte of the keys' AND and of their OR, so a pass counts into that
// span of the counters only, and a byte every key shares (or any byte,
// when a is empty) needs no pass.
func (m *imager) radixSort(a []uint64) {
	and, or := ^uint64(0), uint64(0)
	for _, v := range a {
		and &= v
		or |= v
	}
	count := &m.count
	src, dst := a, m.tmp[:len(a)]
	for shift := 0; shift < m.n; shift += 8 {
		lo, hi := int(byte(and>>shift)), int(byte(or>>shift))
		if lo >= hi {
			continue
		}
		for _, v := range src {
			count[byte(v>>shift)]++
		}
		sum := 0
		for d := lo; d <= hi; d++ {
			c := count[d]
			count[d] = sum
			sum += c
		}
		for _, v := range src {
			d := byte(v >> shift)
			dst[count[d]] = v
			count[d]++
		}
		clear(count[lo : hi+1])
		src, dst = dst, src
	}
	// After an odd number of passes the keys sit in tmp.
	if len(a) > 0 && &src[0] != &a[0] {
		copy(a, src)
	}
}

func keyOf(f *bfunc.Func) Key {
	h := sha256.New()
	var buf [8]byte
	write := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	write(uint64(f.N()))
	write(uint64(f.OnCount()))
	for _, p := range f.On() {
		write(p)
	}
	write(^uint64(0)) // ON/DC separator
	write(uint64(len(f.DC())))
	for _, p := range f.DC() {
		write(p)
	}
	var k Key
	h.Sum(k[:0])
	return k
}

// InversePerm returns the inverse of perm: if perm maps original
// variable i to canonical position perm[i], the inverse maps canonical
// variable j back to original position inv[j].
func InversePerm(perm []int) []int {
	inv := make([]int, len(perm))
	for i, v := range perm {
		inv[v] = i
	}
	return inv
}
