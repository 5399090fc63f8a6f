package pcube

import (
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/bitvec"
	"repro/internal/cube"
)

// figure1Points are the eight points of the paper's Figure 1 pseudocube
// in B^6 (x0 most significant).
var figure1Points = []uint64{
	0b010101, 0b010110, 0b011001, 0b011010,
	0b110000, 0b110011, 0b111100, 0b111111,
}

func mustFromPoints(t *testing.T, n int, pts []uint64) *CEX {
	t.Helper()
	c, ok := FromPoints(n, pts)
	if !ok {
		t.Fatalf("FromPoints failed on %v", pts)
	}
	return c
}

func TestFigure1CEX(t *testing.T) {
	c := mustFromPoints(t, 6, figure1Points)
	// Paper: CEX = x1 · (x0⊕x2⊕x3) · (x0⊕x4⊕x5), canonical x0,x2,x4.
	if c.Canon != bitvec.MaskOf(6, 0, 2, 4) {
		t.Fatalf("canonical vars = %06b, want x0,x2,x4", c.Canon)
	}
	want := []Factor{
		{Vars: bitvec.MaskOf(6, 1), Comp: 0},
		{Vars: bitvec.MaskOf(6, 0, 2, 3), Comp: 0},
		{Vars: bitvec.MaskOf(6, 0, 4, 5), Comp: 0},
	}
	if len(c.Factors) != len(want) {
		t.Fatalf("factors = %v", c.Factors)
	}
	for i := range want {
		if c.Factors[i] != want[i] {
			t.Errorf("factor %d = %+v, want %+v", i, c.Factors[i], want[i])
		}
	}
	if got := c.String(); got != "x1·(x0⊕x2⊕x3)·(x0⊕x4⊕x5)" {
		t.Errorf("String = %q", got)
	}
	if c.Degree() != 3 || c.Literals() != 7 {
		t.Errorf("degree=%d literals=%d", c.Degree(), c.Literals())
	}
	if err := c.Verify(); err != nil {
		t.Error(err)
	}
}

func TestFigure1Definition1Agrees(t *testing.T) {
	m, err := NewMatrix(6, figure1Points)
	if err != nil {
		t.Fatal(err)
	}
	if !m.IsCanonical() {
		t.Fatal("figure-1 matrix must be canonical")
	}
	cols := m.CanonicalColumns()
	if len(cols) != 3 || cols[0] != 0 || cols[1] != 2 || cols[2] != 4 {
		t.Fatalf("canonical columns = %v, want [0 2 4]", cols)
	}
	def1, err := m.CEXDefinition1()
	if err != nil {
		t.Fatal(err)
	}
	rref := mustFromPoints(t, 6, figure1Points)
	if !def1.Equal(rref) {
		t.Fatalf("Definition 1 CEX %v != RREF CEX %v", def1, rref)
	}
}

func TestPointsRoundTrip(t *testing.T) {
	c := mustFromPoints(t, 6, figure1Points)
	pts := c.SortedPoints()
	want := append([]uint64(nil), figure1Points...)
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	if len(pts) != len(want) {
		t.Fatalf("points = %v", pts)
	}
	for i := range want {
		if pts[i] != want[i] {
			t.Fatalf("points[%d] = %06b, want %06b", i, pts[i], want[i])
		}
	}
	for _, p := range pts {
		if !c.Contains(p) {
			t.Errorf("Contains(%06b) = false", p)
		}
	}
	outside := 0
	for p := uint64(0); p < 64; p++ {
		if !c.Contains(p) {
			outside++
		}
	}
	if outside != 64-8 {
		t.Errorf("Contains matched %d points, want 8", 64-outside)
	}
}

// randomCEX builds a random pseudocube of the given degree by unioning
// random single points (rejection-free: start from a random point and
// repeatedly union with a transform by a random subset of non-canonical
// variables, per Proposition 1).
func randomCEX(rng *rand.Rand, n, degree int) *CEX {
	c := FromPoint(n, rng.Uint64()&bitvec.SpaceMask(n))
	for c.Degree() < degree {
		nc := bitvec.SpaceMask(n) &^ c.Canon
		var alpha uint64
		for alpha == 0 {
			alpha = rng.Uint64() & nc
		}
		d := c.Transform(alpha)
		u := Union(c, d)
		if u == nil {
			panic("transform by non-canonical subset must union")
		}
		c = u
	}
	return c
}

func TestRandomCEXInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 300; trial++ {
		n := 3 + rng.Intn(8)
		deg := rng.Intn(n + 1)
		c := randomCEX(rng, n, deg)
		if err := c.Verify(); err != nil {
			t.Fatalf("n=%d deg=%d: %v (%v)", n, deg, err, c)
		}
		pts := c.Points()
		if len(pts) != 1<<uint(deg) {
			t.Fatalf("point count %d, want 2^%d", len(pts), deg)
		}
		// Round trip: FromPoints must reproduce the identical CEX
		// (canonical-form fixpoint).
		c2 := mustFromPoints(t, n, pts)
		if !c.Equal(c2) {
			t.Fatalf("canonical fixpoint violated:\n  built %v\n  redid %v", c, c2)
		}
		// Definition-1 oracle must agree.
		m, err := NewMatrix(n, pts)
		if err != nil {
			t.Fatal(err)
		}
		d1, err := m.CEXDefinition1()
		if err != nil {
			t.Fatalf("Definition1 on valid pseudocube: %v", err)
		}
		if !d1.Equal(c) {
			t.Fatalf("Definition 1 disagrees:\n  def1 %v\n  rref %v", d1, c)
		}
	}
}

func TestTheorem1BothDirections(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 300; trial++ {
		n := 3 + rng.Intn(6)
		deg := rng.Intn(n)
		a := randomCEX(rng, n, deg)
		b := randomCEX(rng, n, deg)
		if a.Equal(b) {
			continue
		}
		union := append(a.Points(), b.Points()...)
		isPC := IsPseudocube(n, union)
		same := a.SameStructure(b)
		if same != isPC {
			t.Fatalf("theorem 1 violated: sameStructure=%v isPseudocube=%v\n a=%v\n b=%v",
				same, isPC, a, b)
		}
		if same {
			u := Union(a, b)
			if u == nil {
				t.Fatal("Union returned nil for same-structure pair")
			}
			got := u.SortedPoints()
			want := append([]uint64(nil), union...)
			sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
			if len(got) != len(want) {
				t.Fatalf("union size %d want %d", len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("union points differ at %d", i)
				}
			}
			if err := u.Verify(); err != nil {
				t.Fatal(err)
			}
			// Union result must itself be canonical.
			u2 := mustFromPoints(t, n, got)
			if !u.Equal(u2) {
				t.Fatalf("Union not canonical:\n alg1 %v\n rref %v", u, u2)
			}
		}
	}
}

func TestUnionPaperExample(t *testing.T) {
	n := 9
	// Expression (1): (x0⊕x̄1)·x4·(x0⊕x2⊕x̄5)·(x3⊕x6)·(x3⊕x8)
	p1 := &CEX{N: n, Canon: bitvec.MaskOf(n, 0, 2, 3, 7), Factors: []Factor{
		{Vars: bitvec.MaskOf(n, 0, 1), Comp: 1},
		{Vars: bitvec.MaskOf(n, 4), Comp: 0},
		{Vars: bitvec.MaskOf(n, 0, 2, 5), Comp: 1},
		{Vars: bitvec.MaskOf(n, 3, 6), Comp: 0},
		{Vars: bitvec.MaskOf(n, 3, 8), Comp: 0},
	}}
	// Expression (2): (x0⊕x1)·x̄4·(x0⊕x2⊕x5)·(x3⊕x6)·(x3⊕x̄8)
	p2 := &CEX{N: n, Canon: bitvec.MaskOf(n, 0, 2, 3, 7), Factors: []Factor{
		{Vars: bitvec.MaskOf(n, 0, 1), Comp: 0},
		{Vars: bitvec.MaskOf(n, 4), Comp: 1},
		{Vars: bitvec.MaskOf(n, 0, 2, 5), Comp: 0},
		{Vars: bitvec.MaskOf(n, 3, 6), Comp: 0},
		{Vars: bitvec.MaskOf(n, 3, 8), Comp: 1},
	}}
	for _, p := range []*CEX{p1, p2} {
		if err := p.Verify(); err != nil {
			t.Fatal(err)
		}
		if p.Literals() != 10 {
			t.Fatalf("input literals = %d, want 10", p.Literals())
		}
	}
	alpha, ok := Alpha(p1, p2)
	if !ok || alpha != bitvec.MaskOf(n, 1, 4, 5, 8) {
		t.Fatalf("alpha = %09b, want x1,x4,x5,x8", alpha)
	}
	u := Union(p1, p2)
	if u == nil {
		t.Fatal("union failed")
	}
	// Paper: (x0⊕x1⊕x4)·(x1⊕x2⊕x̄5)·(x3⊕x6)·(x0⊕x1⊕x3⊕x8),
	// canonical x0,x1,x2,x3,x7, 12 literals.
	want := &CEX{N: n, Canon: bitvec.MaskOf(n, 0, 1, 2, 3, 7), Factors: []Factor{
		{Vars: bitvec.MaskOf(n, 0, 1, 4), Comp: 0},
		{Vars: bitvec.MaskOf(n, 1, 2, 5), Comp: 1},
		{Vars: bitvec.MaskOf(n, 3, 6), Comp: 0},
		{Vars: bitvec.MaskOf(n, 0, 1, 3, 8), Comp: 0},
	}}
	if !u.Equal(want) {
		t.Fatalf("union = %v\nwant %v", u, want)
	}
	if u.Literals() != 12 {
		t.Fatalf("union literals = %d, want 12 (paper §3.3)", u.Literals())
	}
}

func TestNormExorPaperExample(t *testing.T) {
	// f1 = (x0⊕x2⊕x5), f2 = (x0⊕x̄1) → NORM_EXOR = (x1⊕x2⊕x̄5).
	n := 6
	f1 := Factor{Vars: bitvec.MaskOf(n, 0, 2, 5), Comp: 0}
	f2 := Factor{Vars: bitvec.MaskOf(n, 0, 1), Comp: 1}
	got := NormExor(f1, f2)
	want := Factor{Vars: bitvec.MaskOf(n, 1, 2, 5), Comp: 1}
	if got != want {
		t.Fatalf("NormExor = %+v, want %+v", got, want)
	}
}

func TestUnionRejects(t *testing.T) {
	n := 4
	a := FromPoint(n, 0b0000)
	if Union(a, a) != nil {
		t.Fatal("union of identical pseudocubes must be nil")
	}
	b := FromPoint(n, 0b0001)
	u := Union(a, b)
	if u == nil || u.Degree() != 1 {
		t.Fatal("union of two points must be a degree-1 pseudocube")
	}
	// Different structure: a degree-1 cube vs a degree-1 xor pair.
	c1 := mustFromPoints(t, n, []uint64{0b0000, 0b0001})
	c2 := mustFromPoints(t, n, []uint64{0b0000, 0b0011})
	if c1.SameStructure(c2) {
		t.Fatal("structures should differ")
	}
	if Union(c1, c2) != nil {
		t.Fatal("union across structures must be nil")
	}
}

func TestStructureKeyMatchesSameStructure(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 200; trial++ {
		n := 3 + rng.Intn(5)
		deg := rng.Intn(n)
		a := randomCEX(rng, n, deg)
		b := randomCEX(rng, n, deg)
		if (a.StructureKey() == b.StructureKey()) != a.SameStructure(b) {
			t.Fatalf("StructureKey inconsistent with SameStructure")
		}
		if (a.Key() == b.Key()) != a.Equal(b) {
			t.Fatalf("Key inconsistent with Equal")
		}
	}
}

func TestTransformProposition1(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	for trial := 0; trial < 200; trial++ {
		n := 3 + rng.Intn(6)
		deg := rng.Intn(n)
		p := randomCEX(rng, n, deg)
		nc := bitvec.SpaceMask(n) &^ p.Canon
		if nc == 0 {
			continue
		}
		var alpha uint64
		for alpha == 0 {
			alpha = rng.Uint64() & nc
		}
		q := p.Transform(alpha)
		// α(P) point set == {α(s) : s ∈ P}.
		qp := q.SortedPoints()
		want := p.Points()
		for i := range want {
			want[i] ^= alpha
		}
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		for i := range want {
			if qp[i] != want[i] {
				t.Fatalf("transform points wrong")
			}
		}
		// Same structure, disjoint, union is a pseudocube of degree m+1.
		if !p.SameStructure(q) {
			t.Fatal("transform by non-canonical subset must preserve structure")
		}
		u := Union(p, q)
		if u == nil || u.Degree() != deg+1 {
			t.Fatalf("union degree wrong")
		}
	}
}

func TestTransformByCanonicalVarsKeepsPointsetShifted(t *testing.T) {
	// Complementing canonical variables maps the pseudocube to itself
	// shifted within the same structure... in fact complementing a
	// canonical variable alone maps P to itself (the direction space
	// contains a vector flipping it); α ⊆ canonical ⇒ α(P) may equal P.
	c := mustFromPoints(t, 6, figure1Points)
	q := c.Transform(bitvec.MaskOf(6, 0)) // x0 is canonical
	// α(P) for α={x0}: flipping x0 maps the point set to another set of
	// the same structure; verify the point images match.
	want := c.Points()
	for i := range want {
		want[i] ^= bitvec.MaskOf(6, 0)
	}
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	got := q.SortedPoints()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("canonical transform image wrong")
		}
	}
}

func TestTheorem2SubPseudocubes(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for trial := 0; trial < 120; trial++ {
		n := 3 + rng.Intn(5)
		deg := 1 + rng.Intn(n-1)
		p := randomCEX(rng, n, deg)
		seen := map[string]bool{}
		count := 0
		p.SubPseudocubes(func(s *CEX) bool {
			count++
			if err := s.Verify(); err != nil {
				t.Fatalf("sub CEX invalid: %v (%v)", err, s)
			}
			if s.Degree() != deg-1 {
				t.Fatalf("sub degree %d, want %d", s.Degree(), deg-1)
			}
			if !p.Covers(s) {
				t.Fatalf("sub %v not covered by parent %v", s, p)
			}
			// Canonical form.
			s2 := mustFromPoints(t, n, s.Points())
			if !s.Equal(s2) {
				t.Fatalf("sub not canonical:\n got %v\n want %v", s, s2)
			}
			seen[s.Key()] = true
			return true
		})
		want := 1<<uint(deg+1) - 2
		if count != want || len(seen) != want {
			t.Fatalf("theorem 2: %d subs (%d distinct), want %d", count, len(seen), want)
		}
	}
}

func TestSubPseudocubesEarlyStop(t *testing.T) {
	p := mustFromPoints(t, 6, figure1Points)
	calls := 0
	p.SubPseudocubes(func(*CEX) bool {
		calls++
		return calls < 3
	})
	if calls != 3 {
		t.Fatalf("early stop ignored: %d calls", calls)
	}
	// Degree-0 pseudocubes have no subs.
	FromPoint(4, 0).SubPseudocubes(func(*CEX) bool {
		t.Fatal("degree-0 must not enumerate subs")
		return false
	})
}

func TestCoversMatchesPointSets(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 200; trial++ {
		n := 3 + rng.Intn(4)
		a := randomCEX(rng, n, rng.Intn(n+1))
		b := randomCEX(rng, n, rng.Intn(n+1))
		subset := true
		for _, p := range b.Points() {
			if !a.Contains(p) {
				subset = false
				break
			}
		}
		if a.Covers(b) != subset {
			t.Fatalf("Covers=%v, point subset=%v\n a=%v\n b=%v", a.Covers(b), subset, a, b)
		}
	}
}

func TestFromCube(t *testing.T) {
	n := 4
	cb := cube.New(bitvec.MaskOf(n, 0, 2), bitvec.MaskOf(n, 0)) // x0·x̄2
	c := FromCube(n, cb)
	if err := c.Verify(); err != nil {
		t.Fatal(err)
	}
	if c.Degree() != 2 || c.Literals() != 2 {
		t.Fatalf("degree=%d literals=%d", c.Degree(), c.Literals())
	}
	for p := uint64(0); p < 16; p++ {
		if c.Contains(p) != cb.Contains(p) {
			t.Fatalf("FromCube disagrees at %04b", p)
		}
	}
}

func TestFromPointsRejectsNonPseudocubes(t *testing.T) {
	cases := [][]uint64{
		{0, 1, 2},                // not a power of two
		{0, 1, 2, 4},             // not affine
		{0, 0},                   // duplicates
		{0, 1, 2, 3, 4, 5, 6, 8}, // 8 points, not affine
	}
	for i, pts := range cases {
		if _, ok := FromPoints(4, pts); ok {
			t.Errorf("case %d: FromPoints accepted non-pseudocube %v", i, pts)
		}
		if IsPseudocube(4, pts) {
			t.Errorf("case %d: IsPseudocube accepted %v", i, pts)
		}
	}
	// But a full space is a pseudocube with empty CEX.
	all := make([]uint64, 16)
	for i := range all {
		all[i] = uint64(i)
	}
	c, ok := FromPoints(4, all)
	if !ok || c.Degree() != 4 || len(c.Factors) != 0 || c.Literals() != 0 {
		t.Fatalf("full space: %v ok=%v", c, ok)
	}
	if c.String() != "1" {
		t.Fatalf("full space renders %q", c.String())
	}
}

func TestStructureStringExample(t *testing.T) {
	// Paper §3.1: CEX = (x0⊕x1⊕x̄3)·(x0⊕x4⊕x5)·x̄7 in B^8.
	n := 8
	c := &CEX{N: n, Canon: bitvec.MaskOf(n, 0, 1, 2, 4, 6), Factors: []Factor{
		{Vars: bitvec.MaskOf(n, 0, 1, 3), Comp: 1},
		{Vars: bitvec.MaskOf(n, 0, 4, 5), Comp: 0},
		{Vars: bitvec.MaskOf(n, 7), Comp: 1},
	}}
	if err := c.Verify(); err != nil {
		t.Fatal(err)
	}
	if got := c.String(); got != "(x0⊕x1⊕x̄3)·(x0⊕x4⊕x5)·x̄7" {
		t.Fatalf("String = %q", got)
	}
	// Same structure with different complementations.
	d := c.Transform(bitvec.MaskOf(n, 3, 7))
	if !c.SameStructure(d) || c.Equal(d) {
		t.Fatal("transform must change comps only")
	}
}

func TestCubesAreSpecialPseudocubes(t *testing.T) {
	// Every cube's CEX has single-literal factors only; a cube is the
	// special pseudocube with constant non-canonical columns (paper §2).
	rng := rand.New(rand.NewSource(71))
	n := 6
	for trial := 0; trial < 50; trial++ {
		care := rng.Uint64() & bitvec.SpaceMask(n)
		val := rng.Uint64() & care
		cb := cube.New(care, val)
		c := mustFromPoints(t, n, cb.Points(n))
		for _, f := range c.Factors {
			if f.Literals() != 1 {
				t.Fatalf("cube CEX has multi-literal factor %v", c)
			}
		}
		if !c.Equal(FromCube(n, cb)) {
			t.Fatalf("FromCube != FromPoints for %v", cb)
		}
	}
}

func TestTheorem2Completeness(t *testing.T) {
	// SubPseudocubes must enumerate EVERY degree-(m−1) pseudocube
	// inside the parent: cross-check against brute-force enumeration of
	// all half-size point subsets that form affine subspaces.
	rng := rand.New(rand.NewSource(97))
	for trial := 0; trial < 40; trial++ {
		n := 4 + rng.Intn(3)
		deg := 2 + rng.Intn(2) // parents of 4 or 8 points
		p := randomCEX(rng, n, deg)
		pts := p.SortedPoints()
		size := len(pts) / 2

		want := map[string]bool{}
		var rec func(start int, chosen []uint64)
		rec = func(start int, chosen []uint64) {
			if len(chosen) == size {
				if c, ok := FromPoints(n, chosen); ok {
					want[c.Key()] = true
				}
				return
			}
			for i := start; i < len(pts); i++ {
				if len(pts)-i < size-len(chosen) {
					break
				}
				rec(i+1, append(chosen, pts[i]))
			}
		}
		rec(0, nil)

		got := map[string]bool{}
		p.SubPseudocubes(func(s *CEX) bool {
			got[s.Key()] = true
			return true
		})
		if len(got) != len(want) {
			t.Fatalf("theorem 2 incomplete: got %d subs, brute force found %d (deg %d)",
				len(got), len(want), deg)
		}
		for k := range want {
			if !got[k] {
				t.Fatalf("theorem 2 missed a sub-pseudocube")
			}
		}
	}
}

func TestIntersectionViaFromFactors(t *testing.T) {
	// The intersection of two pseudocubes is the solution set of the
	// combined factor systems: FromFactors of the concatenation.
	rng := rand.New(rand.NewSource(101))
	for trial := 0; trial < 100; trial++ {
		n := 4 + rng.Intn(3)
		a := randomCEX(rng, n, 1+rng.Intn(n-1))
		b := randomCEX(rng, n, 1+rng.Intn(n-1))
		both := append(append([]Factor{}, a.Factors...), b.Factors...)
		inter, ok := FromFactors(n, both)
		for p := uint64(0); p < 1<<uint(n); p++ {
			want := a.Contains(p) && b.Contains(p)
			got := ok && inter.Contains(p)
			if got != want {
				t.Fatalf("intersection wrong at %b (ok=%v)", p, ok)
			}
		}
	}
}

// genCEX wraps CEX with a testing/quick Generator so invariants can be
// property-tested idiomatically: a random pseudocube over 3-8 variables
// of random degree.
type genCEX struct{ c *CEX }

func (genCEX) Generate(r *rand.Rand, _ int) reflect.Value {
	n := 3 + r.Intn(6)
	return reflect.ValueOf(genCEX{c: randomCEX(r, n, r.Intn(n+1))})
}

func TestQuickCanonicalFixpoint(t *testing.T) {
	f := func(g genCEX) bool {
		c2, ok := FromPoints(g.c.N, g.c.Points())
		return ok && g.c.Equal(c2) && g.c.Verify() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickLiteralsMatchRendering(t *testing.T) {
	// Literal count must equal the number of variable occurrences in
	// the rendered expression.
	f := func(g genCEX) bool {
		rendered := g.c.String()
		count := strings.Count(rendered, "x")
		if g.c.Degree() == g.c.N { // constant one renders "1"
			return g.c.Literals() == 0 && rendered == "1"
		}
		return count == g.c.Literals()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickUnionCommutes(t *testing.T) {
	// Union(a, α(a)) must equal Union(α(a), a): the result is the same
	// point set, and CEX canonical forms are unique.
	f := func(g genCEX, alphaSeed uint64) bool {
		nc := bitvec.SpaceMask(g.c.N) &^ g.c.Canon
		if nc == 0 {
			return true
		}
		alpha := alphaSeed & nc
		if alpha == 0 {
			alpha = nc
		}
		d := g.c.Transform(alpha)
		u1 := Union(g.c, d)
		u2 := Union(d, g.c)
		return u1 != nil && u2 != nil && u1.Equal(u2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickTransformInvolution(t *testing.T) {
	// α(α(P)) = P for any variable subset α.
	f := func(g genCEX, alphaSeed uint64) bool {
		alpha := alphaSeed & bitvec.SpaceMask(g.c.N)
		return g.c.Transform(alpha).Transform(alpha).Equal(g.c)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// benchSpan returns the points of the pseudocube off + span(dirs) of
// B^n, in the order bitvec.Basis.Span gives them.
func benchSpan(n int, off uint64, dirs ...uint64) []uint64 {
	basis := bitvec.NewBasis(n)
	for _, d := range dirs {
		basis.Insert(d)
	}
	pts := basis.Span()
	for i := range pts {
		pts[i] ^= off
	}
	return pts
}

// BenchmarkFromPoints recognizes a pseudocube from its points (the
// RREF path the union oracles and the warm resume rely on), with
// allocations reported: a degree-4 and a degree-8 pseudocube of B^12.
func BenchmarkFromPoints(b *testing.B) {
	for _, c := range []struct {
		name string
		pts  []uint64
	}{
		{"deg4", benchSpan(12, 0x5a5, 0x003, 0x00c, 0x030, 0x0c0)},
		{"deg8", benchSpan(12, 0x5a5, 0x003, 0x00c, 0x030, 0x0c0, 0x300, 0xc00, 0x005, 0x050)},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, ok := FromPoints(12, c.pts); !ok {
					b.Fatal("not a pseudocube")
				}
			}
		})
	}
}

// BenchmarkAppendKey writes the key of an 8-factor product (a degree-4
// pseudocube of B^12) into a reused buffer, as the naive baseline, the
// hash-grouped ablation and the warm resume do to probe their maps; it
// allocates nothing.
func BenchmarkAppendKey(b *testing.B) {
	c, ok := FromPoints(12, benchSpan(12, 0x5a5, 0x003, 0x00c, 0x030, 0x0c0))
	if !ok {
		b.Fatal("not a pseudocube")
	}
	buf := make([]byte, 0, 9*len(c.Factors))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = AppendKey(buf[:0], c.Factors)
	}
	if string(buf) != c.Key() {
		b.Fatal("AppendKey differs from Key")
	}
}
