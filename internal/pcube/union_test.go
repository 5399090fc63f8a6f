package pcube

import (
	"bytes"
	"math/bits"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/bitvec"
)

// checkUnionInto is the differential oracle for the allocation-free
// union: a is the affine subspace off + span(dirs) of B^n, built by
// FromPoints, and b = a.Transform(alpha) is a same-structure partner.
// UnionInto must agree with Union, and both with FromPoints of the
// merged point sets — the union recomputed from scratch.
// UnionCompVector must give the union's complement vector, and the
// pair c = a.Transform(shift), d = c.Transform(alpha), which has the
// same complement difference δ, must give a union with the same
// canonical mask, factor masks and cost: what Algorithm 2's pair loop
// memoizes per δ.
func checkUnionInto(t *testing.T, n int, off uint64, dirs []uint64, alpha, shift uint64) {
	t.Helper()
	mask := bitvec.SpaceMask(n)
	basis := bitvec.NewBasis(n)
	for _, d := range dirs {
		basis.Insert(d & mask)
	}
	pts := basis.Span()
	for i := range pts {
		pts[i] ^= off & mask
	}
	a, ok := FromPoints(n, pts)
	if !ok {
		t.Fatalf("FromPoints rejected the affine subspace %#x + span%v", off&mask, basis.Rows())
	}
	b := a.Transform(alpha & mask)
	want := Union(a, b)

	// Dirty scratch with spare capacity: UnionInto must overwrite it.
	scratch := make([]Factor, n+2)
	for i := range scratch {
		scratch[i] = Factor{Vars: ^uint64(0), Comp: 1}
	}
	got, canon, ok := UnionInto(scratch, a, b)
	if ok != (want != nil) {
		t.Fatalf("UnionInto ok=%v, Union=%v", ok, want)
	}
	if !ok {
		if !a.Equal(b) {
			t.Fatalf("union of distinct same-structure %v and %v refused", a, b)
		}
		return
	}
	if canon != want.Canon || len(got) != len(want.Factors) {
		t.Fatalf("UnionInto canon=%#x factors=%v, Union %#x %v", canon, got, want.Canon, want.Factors)
	}
	for i := range got {
		if got[i] != want.Factors[i] {
			t.Fatalf("factor %d: UnionInto %+v, Union %+v", i, got[i], want.Factors[i])
		}
	}
	if cap(got) == 0 || &got[:1][0] != &scratch[0] {
		t.Fatal("UnionInto reallocated although the scratch had capacity")
	}
	if FactorLiterals(got) != want.Literals() || CompVectorOf(got) != want.CompVector() {
		t.Fatalf("derived values differ: lits %d/%d cvec %#x/%#x",
			FactorLiterals(got), want.Literals(), CompVectorOf(got), want.CompVector())
	}
	if !bytes.Equal(AppendKey(nil, got), []byte(want.Key())) {
		t.Fatal("AppendKey of the scratch differs from the union's Key")
	}
	if err := want.Verify(); err != nil {
		t.Fatal(err)
	}
	if cv := UnionCompVector(a.CompVector(), b.CompVector()); cv != CompVectorOf(got) {
		t.Fatalf("UnionCompVector = %#x, union's complement vector %#x", cv, CompVectorOf(got))
	}
	if cv := UnionCompVector(b.CompVector(), a.CompVector()); cv != CompVectorOf(got) {
		t.Fatalf("UnionCompVector(b, a) = %#x, union's complement vector %#x", cv, CompVectorOf(got))
	}
	var masks []uint64
	for _, f := range a.Factors {
		masks = append(masks, f.Vars)
	}
	ms, mcanon := UnionMasks(nil, a.Canon, masks, a.CompVector()^b.CompVector())
	if mcanon != canon || !slices.Equal(AppendFactors(nil, ms, CompVectorOf(got)), got) {
		t.Fatalf("UnionMasks canon=%#x masks=%#x, union %#x %v", mcanon, ms, canon, got)
	}
	c := a.Transform(shift & mask)
	d := c.Transform(alpha & mask)
	if c.CompVector()^d.CompVector() != a.CompVector()^b.CompVector() {
		t.Fatalf("δ differs: %#x for (c, d), %#x for (a, b)", c.CompVector()^d.CompVector(), a.CompVector()^b.CompVector())
	}
	other, ocanon, ok := UnionInto(nil, c, d)
	if !ok {
		t.Fatalf("no union of %v and %v, which have δ of a union", c, d)
	}
	if ocanon != canon || len(other) != len(got) || FactorLiterals(other) != FactorLiterals(got) {
		t.Fatalf("equal δ, different unions: canon %#x/%#x, %d/%d factors, %d/%d literals",
			ocanon, canon, len(other), len(got), FactorLiterals(other), FactorLiterals(got))
	}
	for i := range other {
		if other[i].Vars != got[i].Vars {
			t.Fatalf("equal δ, factor %d mask %#x, want %#x", i, other[i].Vars, got[i].Vars)
		}
	}
	if cv := UnionCompVector(c.CompVector(), d.CompVector()); cv != CompVectorOf(other) {
		t.Fatalf("UnionCompVector = %#x for (c, d), union's complement vector %#x", cv, CompVectorOf(other))
	}
	ref, ok := FromPoints(n, append(a.Points(), b.Points()...))
	if !ok {
		t.Fatalf("merged points of %v and %v are not a pseudocube", a, b)
	}
	if !ref.Equal(want) {
		t.Fatalf("Union %v, FromPoints of merged points %v", want, ref)
	}
}

// FuzzUnionInto runs the differential oracle on fuzzer-chosen
// subspaces: n in [1, 12], up to four directions, any partner shift;
// the equal-δ pair's shift mixes the offset and the last direction.
func FuzzUnionInto(f *testing.F) {
	f.Add(uint8(6), uint64(0x2a), uint64(0x03), uint64(0x0c), uint64(0), uint64(0), uint64(0x30))
	f.Add(uint8(1), uint64(0), uint64(0), uint64(0), uint64(0), uint64(0), uint64(1))
	f.Add(uint8(4), uint64(0x5), uint64(0xf), uint64(0x3), uint64(0x1), uint64(0), uint64(0x8))
	f.Add(uint8(12), uint64(0x5a5), uint64(0x003), uint64(0x00c), uint64(0x030), uint64(0x0c0), uint64(0x700))
	f.Add(uint8(8), uint64(0x81), uint64(0x11), uint64(0x22), uint64(0x44), uint64(0x88), uint64(0x33)) // alpha in span: no union
	f.Fuzz(func(t *testing.T, nb uint8, off, d1, d2, d3, d4, alpha uint64) {
		checkUnionInto(t, 1+int(nb%12), off, []uint64{d1, d2, d3, d4}, alpha, bits.RotateLeft64(off, 29)^d4)
	})
}

func TestUnionIntoMatchesUnionRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for i := 0; i < 2000; i++ {
		n := 1 + rng.Intn(10)
		dirs := make([]uint64, rng.Intn(n+1))
		for j := range dirs {
			dirs[j] = rng.Uint64()
		}
		checkUnionInto(t, n, rng.Uint64(), dirs, rng.Uint64(), rng.Uint64())
	}
}

// TestKeyLayout pins the byte layout of Key, StructureKey and AppendKey:
// each factor's variable mask as 8 little-endian bytes, then one
// complement byte per factor. MinimizeMulti sorts its shared candidate
// pool by Key, so this layout fixes the column order of every shared
// form; changing it changes outputs.
func TestKeyLayout(t *testing.T) {
	// (x0⊕x̄1)·x3 in B^4: canonical x0 and x2. Under the packing x0 is
	// bit 3, so the masks are 0b1100 and 0b0001.
	fs := []Factor{{Vars: 0b1100, Comp: 1}, {Vars: 0b0001, Comp: 0}}
	want := []byte{
		0x0c, 0, 0, 0, 0, 0, 0, 0,
		0x01, 0, 0, 0, 0, 0, 0, 0,
		1, 0,
	}
	sealed := NewCEX(4, 0b1010, append([]Factor(nil), fs...))
	raw := &CEX{N: 4, Canon: 0b1010, Factors: fs}
	for _, c := range []*CEX{sealed, raw} {
		if err := c.Verify(); err != nil {
			t.Fatal(err)
		}
		if got := []byte(c.Key()); !bytes.Equal(got, want) {
			t.Fatalf("Key = % x, want % x", got, want)
		}
		if got := []byte(c.StructureKey()); !bytes.Equal(got, want[:16]) {
			t.Fatalf("StructureKey = % x, want % x", got, want[:16])
		}
	}
	prefix := []byte("pre")
	got := AppendKey(prefix, fs)
	if !bytes.Equal(got[:3], prefix) || !bytes.Equal(got[3:], want) {
		t.Fatalf("AppendKey = % x, want \"pre\" + % x", got, want)
	}
	if AppendKey(nil, nil) != nil || NewCEX(4, 0b1111, nil).Key() != "" {
		t.Fatal("the empty product (constant one) must have the empty key")
	}
}
