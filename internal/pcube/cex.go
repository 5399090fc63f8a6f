package pcube

import (
	"encoding/binary"
	"fmt"
	"sort"
	"strings"

	"repro/internal/bitvec"
	"repro/internal/cube"
)

// CEX is the canonical expression of a pseudocube of degree m in B^n
// (paper Definition 1): a product of EXOR factors, one per non-canonical
// variable, sorted by increasing non-canonical variable index. Canon is
// the mask of canonical variables (|Canon| = m). Each factor holds its
// own non-canonical variable plus a subset of the canonical variables,
// and every canonical variable in a factor has a smaller index than the
// factor's non-canonical variable (pivots precede their dependents under
// the RREF-with-leftmost-pivots convention).
//
// A CEX value is immutable after construction; Factors must not be
// modified by callers.
type CEX struct {
	N       int
	Canon   uint64
	Factors []Factor

	// Cached derived values, computed once by NewCEX (immutability makes
	// this safe to share across goroutines). lits stores Literals()+1 so
	// that 0 means "not sealed": a CEX built as a raw struct literal
	// still works — its accessors recompute on the fly without writing,
	// which keeps concurrent reads race-free.
	lits int
	cvec uint64
}

// NewCEX builds a sealed CEX: the literal count and complement vector
// are computed once here, making those accessors O(1) on the
// minimization hot paths. The Key/StructureKey strings are not cached;
// they are built on demand (AppendKey writes the same bytes into a
// caller-owned buffer). Every constructor in this package funnels
// through it; callers handing in factors transfer ownership of the
// slice.
func NewCEX(n int, canon uint64, factors []Factor) *CEX {
	c := new(CEX)
	c.Init(n, canon, factors)
	return c
}

// Init makes *c the sealed CEX NewCEX(n, canon, factors) returns, in
// storage the caller owns: a slab of CEX headers fills its slots with
// Init instead of allocating a header per pseudoproduct. Like NewCEX it
// takes ownership of factors, and c must not be re-initialized while
// another goroutine reads it.
func (c *CEX) Init(n int, canon uint64, factors []Factor) {
	*c = CEX{N: n, Canon: canon, Factors: factors}
	c.lits = FactorLiterals(factors) + 1
	c.cvec = CompVectorOf(factors)
}

// FactorLiterals returns the literal count of a product of factors: the
// paper's cost of the pseudoproduct they form.
func FactorLiterals(fs []Factor) int {
	total := 0
	for _, f := range fs {
		total += f.Literals()
	}
	return total
}

// CompVectorOf packs the complement bits of the factors into a mask
// (factor i → bit i), the value CompVector caches on a sealed CEX.
func CompVectorOf(fs []Factor) uint64 {
	var v uint64
	for i, f := range fs {
		v |= uint64(f.Comp) << uint(i)
	}
	return v
}

// AppendFactors appends to dst the factors with variable masks masks
// and complement vector cv (factor i complemented iff bit i is set):
// the inverse of splitting a CEX into its structure and CompVectorOf.
func AppendFactors(dst []Factor, masks []uint64, cv uint64) []Factor {
	for i, m := range masks {
		dst = append(dst, Factor{Vars: m, Comp: uint8(cv >> uint(i) & 1)})
	}
	return dst
}

// Degree returns the pseudocube's degree m (it has 2^m points).
func (c *CEX) Degree() int { return bitvec.OnesCount(c.Canon) }

// Literals returns the total number of literals (the paper's cost).
func (c *CEX) Literals() int {
	if c.lits != 0 {
		return c.lits - 1
	}
	return FactorLiterals(c.Factors)
}

// CompVector packs the complement bits of the factors into a mask
// (factor i → bit i); together with the structure it identifies the
// pseudocube, so same-structure CEX are equal iff their comp vectors
// are.
func (c *CEX) CompVector() uint64 {
	if c.lits != 0 {
		return c.cvec
	}
	return CompVectorOf(c.Factors)
}

// Contains reports whether point p belongs to the pseudocube.
func (c *CEX) Contains(p uint64) bool {
	for _, f := range c.Factors {
		if f.Eval(p) == 0 {
			return false
		}
	}
	return true
}

// FromPoint returns the degree-0 CEX of the single point p: one
// single-variable factor per variable.
func FromPoint(n int, p uint64) *CEX {
	fs := make([]Factor, n)
	for i := 0; i < n; i++ {
		fs[i] = Factor{
			Vars: bitvec.VarMask(n, i),
			Comp: uint8(1 ^ bitvec.Bit(p, n, i)),
		}
	}
	return NewCEX(n, 0, fs)
}

// PointCompVector returns the complement vector of FromPoint(n, p)
// without building it: factor i is x_i, complemented where p's bit i is
// 0. Every point of B^n shares FromPoint's structure, so this vector
// alone tells the degree-0 pseudoproducts apart.
func PointCompVector(n int, p uint64) uint64 {
	var v uint64
	for i := 0; i < n; i++ {
		v |= (1 ^ bitvec.Bit(p, n, i)) << uint(i)
	}
	return v
}

// FromCube converts a product of literals to its CEX: free variables are
// canonical, each bound literal is a single-variable factor.
func FromCube(n int, cb cube.Cube) *CEX {
	fs, canon := AppendCube(nil, n, cb)
	return NewCEX(n, canon, fs)
}

// AppendCube appends FromCube's factors to dst and returns them with
// its canonical mask, for callers that file the cube without a CEX.
func AppendCube(dst []Factor, n int, cb cube.Cube) ([]Factor, uint64) {
	for i := 0; i < n; i++ {
		m := bitvec.VarMask(n, i)
		if cb.Care&m == 0 {
			continue
		}
		comp := uint8(1)
		if cb.Val&m != 0 {
			comp = 0
		}
		dst = append(dst, Factor{Vars: m, Comp: comp})
	}
	return dst, bitvec.SpaceMask(n) &^ cb.Care
}

// FromPoints computes the CEX of the given point set if it is a
// pseudocube (an affine subspace of GF(2)^n), and reports success. The
// input need not be sorted; duplicates are rejected implicitly by the
// cardinality check.
func FromPoints(n int, pts []uint64) (*CEX, bool) {
	m := bitvec.Log2(len(pts))
	if m < 0 || m > n {
		return nil, false
	}
	// Offset: the minimum point (first row of the canonical matrix).
	off := pts[0]
	for _, p := range pts[1:] {
		if p < off {
			off = p
		}
	}
	basis := bitvec.NewBasis(n)
	for _, p := range pts {
		basis.Insert(p ^ off)
	}
	if basis.Dim() != m {
		return nil, false
	}
	// All diffs must be in the span; dim==m and |pts|==2^m with distinct
	// points would suffice, but duplicates could fake it — verify.
	seen := make(map[uint64]bool, len(pts))
	for _, p := range pts {
		if seen[p] {
			return nil, false
		}
		seen[p] = true
		if !basis.Contains(p ^ off) {
			return nil, false
		}
	}
	return fromAffine(n, off, basis), true
}

// fromAffine builds the CEX of the affine subspace off + span(basis).
// The basis must be in RREF (bitvec.Basis guarantees it).
func fromAffine(n int, off uint64, basis *bitvec.Basis) *CEX {
	canon := basis.PivotMask()
	rows := basis.Rows()
	pivs := basis.Pivots()
	nc := bitvec.SpaceMask(n) &^ canon
	fs := make([]Factor, 0, n-basis.Dim())
	for i := 0; i < n; i++ {
		vm := bitvec.VarMask(n, i)
		if nc&vm == 0 {
			continue
		}
		vars := vm
		for j, r := range rows {
			if r&vm != 0 {
				vars |= bitvec.VarMask(n, pivs[j])
			}
		}
		comp := uint8(1 ^ bitvec.Parity(off&vars))
		fs = append(fs, Factor{Vars: vars, Comp: comp})
	}
	return NewCEX(n, canon, fs)
}

// Points enumerates the pseudocube's 2^m points in unspecified order.
// The caller owns the returned slice.
func (c *CEX) Points() []uint64 {
	off, basis := c.Affine()
	pts := basis.Span()
	for i := range pts {
		pts[i] ^= off
	}
	return pts
}

// SortedPoints returns the points sorted ascending: the rows of the
// canonical matrix.
func (c *CEX) SortedPoints() []uint64 {
	pts := c.Points()
	sort.Slice(pts, func(i, j int) bool { return pts[i] < pts[j] })
	return pts
}

// Affine returns the offset point and RREF direction basis of the
// pseudocube. The offset is the point with all canonical variables 0.
func (c *CEX) Affine() (uint64, *bitvec.Basis) {
	// Offset: canonical vars 0; each NC var c must make its factor 1:
	// with canonical bits all 0, parity(off & Vars) = bit_c(off), so
	// bit_c(off) = 1 ^ Comp.
	var off uint64
	for _, f := range c.Factors {
		ncMask := f.Vars &^ c.Canon
		if f.Comp == 0 {
			off |= ncMask
		}
	}
	// Basis row for pivot p: unit(p) plus every NC variable whose
	// factor contains p (flipping p must flip those dependents).
	basis := bitvec.NewBasis(c.N)
	for _, p := range bitvec.Vars(c.Canon, c.N) {
		row := bitvec.VarMask(c.N, p)
		for _, f := range c.Factors {
			if f.Vars&bitvec.VarMask(c.N, p) != 0 {
				row |= f.Vars &^ c.Canon
			}
		}
		basis.Insert(row)
	}
	return off, basis
}

// AppendKey appends the key bytes of the product fs to dst and returns
// the extended slice: each factor's variable mask as 8 little-endian
// bytes, then one complement byte per factor. Within one space B^n the
// bytes identify the pseudoproduct — the masks fix the structure (a
// factor's non-canonical variable is its highest-index one) and the
// complement bytes the member of the structure group — and the first
// 8·len(fs) bytes are its structure key. Hot paths probe maps with
// string(AppendKey(buf[:0], fs)), which Go performs without allocating.
func AppendKey(dst []byte, fs []Factor) []byte {
	dst = appendStructure(dst, fs)
	for _, f := range fs {
		dst = append(dst, f.Comp)
	}
	return dst
}

// appendStructure appends the factor variable masks, little-endian;
// two CEX have equal structure iff these bytes are equal (the factors
// are sorted by non-canonical variable, which the masks determine).
func appendStructure(dst []byte, fs []Factor) []byte {
	for _, f := range fs {
		dst = binary.LittleEndian.AppendUint64(dst, f.Vars)
	}
	return dst
}

// StructureKey returns a map key identifying STR(c), the structure of
// the pseudocube (paper Definition 2): the CEX without complementations.
// It is the 8·len(Factors)-byte prefix of Key.
func (c *CEX) StructureKey() string {
	return string(appendStructure(make([]byte, 0, 8*len(c.Factors)), c.Factors))
}

// Key returns a map key identifying the full CEX (structure plus
// complementations): equal keys mean equal pseudocubes. Its layout is
// AppendKey's.
func (c *CEX) Key() string {
	return string(AppendKey(make([]byte, 0, 9*len(c.Factors)), c.Factors))
}

// SameStructure reports STR(c) == STR(d) (Theorem 1's precondition).
func (c *CEX) SameStructure(d *CEX) bool {
	if c.N != d.N || len(c.Factors) != len(d.Factors) {
		return false
	}
	for i := range c.Factors {
		if c.Factors[i].Vars != d.Factors[i].Vars {
			return false
		}
	}
	return true
}

// Equal reports full CEX equality (same pseudocube).
func (c *CEX) Equal(d *CEX) bool {
	if !c.SameStructure(d) || c.Canon != d.Canon {
		return false
	}
	for i := range c.Factors {
		if c.Factors[i].Comp != d.Factors[i].Comp {
			return false
		}
	}
	return true
}

// Covers reports whether d's point set is a subset of c's: every factor
// of c must be constant 1 on d's affine subspace.
func (c *CEX) Covers(d *CEX) bool {
	if c.N != d.N {
		return false
	}
	off, basis := d.Affine()
	for _, f := range c.Factors {
		if f.Eval(off) == 0 {
			return false
		}
		for _, r := range basis.Rows() {
			if bitvec.Parity(r&f.Vars) == 1 {
				return false
			}
		}
	}
	return true
}

// Transform returns α(c): the pseudocube with the variables in the mask
// alpha complemented (paper Proposition 1). Complementing variable set
// alpha flips each factor's Comp by the parity of |Vars ∩ alpha|.
func (c *CEX) Transform(alpha uint64) *CEX {
	fs := make([]Factor, len(c.Factors))
	for i, f := range c.Factors {
		fs[i] = Factor{Vars: f.Vars, Comp: f.Comp ^ uint8(bitvec.Parity(f.Vars&alpha))}
	}
	return NewCEX(c.N, c.Canon, fs)
}

// String renders the CEX like the paper, complement on the
// non-canonical variable: e.g. "(x0⊕x̄1)·x4·(x0⊕x2⊕x̄5)".
func (c *CEX) String() string {
	if len(c.Factors) == 0 {
		return "1"
	}
	parts := make([]string, len(c.Factors))
	for i, f := range c.Factors {
		parts[i] = c.formatFactor(f)
	}
	return strings.Join(parts, "·")
}

func (c *CEX) formatFactor(f Factor) string {
	vars := bitvec.Vars(f.Vars, c.N)
	ncVar := bitvec.LowestVar(f.Vars&^c.Canon, c.N)
	var sb strings.Builder
	for i, v := range vars {
		if i > 0 {
			sb.WriteString("⊕")
		}
		if v == ncVar && f.Comp == 1 {
			fmt.Fprintf(&sb, "x̄%d", v)
		} else {
			fmt.Fprintf(&sb, "x%d", v)
		}
	}
	if len(vars) > 1 {
		return "(" + sb.String() + ")"
	}
	return sb.String()
}

// Verify checks the internal invariants of the CEX: factors sorted by
// strictly increasing non-canonical variable, exactly one non-canonical
// variable per factor, one factor per non-canonical variable, and every
// canonical variable in a factor having smaller index than the factor's
// non-canonical variable (the RREF leftmost-pivot property). It returns
// a descriptive error for the first violation.
func (c *CEX) Verify() error {
	if bitvec.OnesCount(c.Canon)+len(c.Factors) != c.N {
		return fmt.Errorf("pcube: %d canonical vars + %d factors != n=%d",
			bitvec.OnesCount(c.Canon), len(c.Factors), c.N)
	}
	prev := -1
	for i, f := range c.Factors {
		ncMask := f.Vars &^ c.Canon
		if bitvec.OnesCount(ncMask) != 1 {
			return fmt.Errorf("pcube: factor %d has %d non-canonical vars", i, bitvec.OnesCount(ncMask))
		}
		nc := bitvec.LowestVar(ncMask, c.N)
		if nc <= prev {
			return fmt.Errorf("pcube: factors not sorted by non-canonical var (%d after %d)", nc, prev)
		}
		prev = nc
		for _, v := range bitvec.Vars(f.Vars&c.Canon, c.N) {
			if v >= nc {
				return fmt.Errorf("pcube: factor %d: canonical var x%d ≥ non-canonical x%d", i, v, nc)
			}
		}
	}
	return nil
}
