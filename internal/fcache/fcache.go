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

// tieBreakWork bounds the point-mapping work spent enumerating
// permutations inside ambiguous variable classes. Small functions get
// thousands of candidates; huge ON sets fall back to a deterministic
// (but not permutation-invariant) order almost immediately.
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
	class, err := refineClasses(ctx, f)
	if err != nil {
		return Key{}, nil, nil, err
	}
	perm, img, err := tieBreak(ctx, f, class)
	if err != nil {
		return Key{}, nil, nil, err
	}
	on := f.OnCount()
	canon := bfunc.NewDC(f.N(), img[:on], img[on:])
	return keyOf(canon), perm, canon, nil
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
// The rounds allocate nothing. Every buffer is sized once, and variable
// i's signatures fill sigs[off[i]:off[i+1]], a span as long as the
// number of points that contain i.
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
		copy(fill, off[:n])
		if !collectSigs(ctx, on, 1, classBits[:nclasses], sigs, fill) ||
			!collectSigs(ctx, dc, 2, classBits[:nclasses], sigs, fill) {
			return nil, ctx.Err()
		}
		for i := 0; i < n; i++ {
			s := sigs[off[i]:off[i+1]]
			slices.Sort(s)
			varHash[i] = hashSeq(uint64(class[i]), s)
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

// collectSigs writes each point's signature into the span of every
// variable the point contains, advancing fill; it reports false if ctx
// was cancelled.
func collectSigs(ctx context.Context, pts []uint64, tag uint64, classBits, sigs []uint64, fill []int) bool {
	n := len(fill)
	for j, p := range pts {
		if j&1023 == 1023 && ctx.Err() != nil {
			return false
		}
		h := pointHash(p, classBits, tag)
		for q := p; q != 0; q &= q - 1 {
			i := n - 1 - bits.TrailingZeros64(q)
			sigs[fill[i]] = h
			fill[i]++
		}
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
// sorted images of its DC points. Classes are laid out in class order;
// within a class, every assignment of members to positions yields an
// equivalent candidate, so we enumerate all combinations (as long as
// the total point-mapping work stays under tieBreakWork) and keep the
// one whose permuted (ON, DC) point lists are lexicographically
// smallest. If the class structure is too ambiguous to afford
// enumeration, members keep their original relative order —
// deterministic, but not permutation-invariant. The walk itself meters
// the work actually spent, so even a wrong estimate cannot exceed the
// budget; ctx cancellation aborts with an error rather than a
// (nondeterministically) truncated permutation.
func tieBreak(ctx context.Context, f *bfunc.Func, class []int) ([]int, []uint64, error) {
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
	m := newImager(f)
	for v, pos := range best {
		m.place(v, pos)
	}
	bestImg := make([]uint64, f.OnCount()+len(f.DC()))
	m.images(bestImg)
	if !ambiguous || overBudget {
		return best, bestImg, nil
	}

	w := leafWalk{
		ctx:     ctx,
		m:       m,
		groups:  groups,
		order:   make([]int, n),
		perm:    make([]int, n),
		best:    best,
		cur:     make([]uint64, len(bestImg)),
		bestImg: bestImg,
		pts:     pts,
	}
	w.walk(0, 0)
	if w.err != nil {
		return nil, nil, w.err
	}
	return w.best, w.bestImg, nil
}

// leafWalk enumerates the tie-break's candidates: Heap's algorithm over
// each group's members, nested group by group, keeping the leaf whose
// sorted images are lexicographically smallest. Group gi occupies
// positions pos..pos+len(groups[gi])-1, and order holds the orderings
// Heap's algorithm permutes at those same indices.
type leafWalk struct {
	ctx          context.Context
	m            *imager
	groups       [][]int
	order        []int
	perm         []int // the leaf being built
	best         []int
	cur, bestImg []uint64
	pts          int
	work, leaves int
	err          error
}

// walk enumerates the assignments of groups gi onward, starting at
// position pos; false stops the enumeration.
func (w *leafWalk) walk(gi, pos int) bool {
	if gi == len(w.groups) {
		return w.leaf()
	}
	g := w.groups[gi]
	copy(w.order[pos:], g)
	for j, v := range g {
		w.assign(v, pos+j)
	}
	return w.permute(gi, pos, len(g))
}

// permute runs Heap's algorithm over the first k entries of group gi's
// ordering, descending to the next group at each ordering it reaches.
// A swap reassigns just the two members it moves.
func (w *leafWalk) permute(gi, pos, k int) bool {
	a := w.order[pos : pos+len(w.groups[gi])]
	if k == 1 {
		return w.walk(gi+1, pos+len(a))
	}
	for i := 0; i < k; i++ {
		if !w.permute(gi, pos, k-1) {
			return false
		}
		j := 0
		if k%2 == 0 {
			j = i
		}
		a[j], a[k-1] = a[k-1], a[j]
		w.assign(a[j], pos+j)
		w.assign(a[k-1], pos+k-1)
	}
	return true
}

func (w *leafWalk) assign(v, pos int) {
	w.perm[v] = pos
	w.m.place(v, pos)
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
	w.m.images(w.cur)
	if slices.Compare(w.cur, w.bestImg) < 0 {
		copy(w.best, w.perm)
		w.cur, w.bestImg = w.bestImg, w.cur
	}
	return true
}

// imager maps f's points through a variable placement and sorts the
// images. A point's image is the OR of one table lookup per nibble of
// the point: tables[b][x] is the image of the bits x sets in nibble b.
// The sort is an LSD radix sort with at most one pass per byte, so
// every n up to 64 and every point count takes the same path.
type imager struct {
	on, dc []uint64
	n      int
	bitImg []uint64 // bitImg[k]: the image of point bit k
	tables [][16]uint64
	tmp    []uint64
	count  [256]int
}

func newImager(f *bfunc.Func) *imager {
	n := f.N()
	return &imager{
		on:     f.On(),
		dc:     f.DC(),
		n:      n,
		bitImg: make([]uint64, n),
		tables: make([][16]uint64, (n+3)/4),
		tmp:    make([]uint64, f.OnCount()+len(f.DC())),
	}
}

// place sends variable v, which is point bit n-1-v, to position pos.
// Each table entry is the XOR of the images of the bits it sets (the
// OR, once every variable is placed), so moving one bit's image
// touches the eight entries that set the bit.
func (m *imager) place(v, pos int) {
	k := m.n - 1 - v
	img := bitvec.VarMask(m.n, pos)
	d := img ^ m.bitImg[k]
	if d == 0 {
		return
	}
	m.bitImg[k] = img
	t, bit := &m.tables[k/4], 1<<(k%4)
	for x := bit; x < 16; x = (x + 1) | bit {
		t[x] ^= d
	}
}

// images writes into dst the sorted images of the ON points under the
// current placement, followed by the sorted images of the DC points.
func (m *imager) images(dst []uint64) {
	on, dc := dst[:len(m.on)], dst[len(m.on):]
	m.mapPoints(on, m.on)
	m.mapPoints(dc, m.dc)
	m.radixSort(on)
	m.radixSort(dc)
}

func (m *imager) mapPoints(dst, pts []uint64) {
	tables := m.tables
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
