package pcube

import (
	"math/bits"
	"slices"

	"repro/internal/bitvec"
)

// Union implements the paper's Algorithm 1: given two pseudocubes with
// the same structure (Theorem 1's condition), it builds the CEX of
// their union, a pseudocube of degree m+1, in time linear in the size of
// the inputs. It returns nil if the structures differ or the two CEX are
// identical (a pseudocube is not the union of itself with itself).
//
// Let α be the set of non-canonical variables whose factors differ in
// complementation, and x_k the variable of smallest index in α. Then:
//
//	x_k becomes canonical; its factor disappears;
//	factors of variables in α\{x_k} become NORM_EXOR(f_j, f_k);
//	factors of variables outside α are unchanged.
func Union(a, b *CEX) *CEX {
	fs, canon, ok := UnionInto(nil, a, b)
	if !ok {
		return nil
	}
	return NewCEX(a.N, canon, fs)
}

// UnionInto is Union without the allocation: it writes the union's
// factors into dst (reusing its backing array when the capacity
// suffices) and returns them with the union's canonical mask. ok is
// false exactly when Union would return nil. The factors are in CEX
// order, so FactorLiterals, CompVectorOf and AppendKey apply to them
// directly; a caller that keeps the result copies it into a NewCEX.
func UnionInto(dst []Factor, a, b *CEX) ([]Factor, uint64, bool) {
	if !a.SameStructure(b) {
		return dst[:0], 0, false
	}
	// Locate the differing factors and the minimum one.
	k := -1
	for i := range a.Factors {
		if a.Factors[i].Comp != b.Factors[i].Comp {
			k = i
			break
		}
	}
	if k == -1 {
		return dst[:0], 0, false // identical pseudocubes
	}
	fk := a.Factors[k] // f_k of P1 (the paper's f^1_{i_k})
	xk := fk.Vars &^ a.Canon

	// A nil dst gets a fresh slice too, so the result is never nil, even
	// for the union that fills B^n and has no factors.
	if dst == nil || cap(dst) < len(a.Factors)-1 {
		dst = make([]Factor, 0, len(a.Factors)-1)
	}
	// Factors before k agree in complementation: copied unchanged.
	dst = append(dst[:0], b.Factors[:k]...)
	for i := k + 1; i < len(a.Factors); i++ {
		if a.Factors[i].Comp != b.Factors[i].Comp {
			dst = append(dst, NormExor(b.Factors[i], fk))
		} else {
			dst = append(dst, b.Factors[i])
		}
	}
	return dst, a.Canon | xk, true
}

// UnionCompVector returns the complement vector of the union of two
// distinct same-structure pseudocubes with complement vectors a and b:
// CompVectorOf of UnionInto's factors, computed without them. Let
// δ = a ⊕ b and k its lowest set bit, the factor of x_k. By Algorithm 1
// factor k disappears, the factors above k that δ marks take a's bit k
// into their complementation (NORM_EXOR with f_k), and every other
// factor keeps b's bit. a must differ from b.
func UnionCompVector(a, b uint64) uint64 {
	d := a ^ b
	k := uint(bits.TrailingZeros64(d))
	v := b ^ -(a>>k&1)&(d&^(2<<k-1))
	return v&(1<<k-1) | v>>(k+1)<<k
}

// UnionMasks is Algorithm 1 on structures alone: given the canonical
// mask and factor masks of a structure group and the complement
// difference d ≠ 0 of two of its members, it writes the factor masks of
// their union into dst (reusing its backing array) and returns them
// with the union's canonical mask. A union's structure depends on d
// only, so every pair of the group with difference d files under it;
// UnionCompVector gives each pair's complement vector. The masks are
// those of UnionInto's factors for any such pair.
func UnionMasks(dst []uint64, canon uint64, masks []uint64, d uint64) ([]uint64, uint64) {
	k := bits.TrailingZeros64(d)
	mk := masks[k]
	dst = append(dst[:0], masks[:k]...)
	for i := k + 1; i < len(masks); i++ {
		m := masks[i]
		if d>>uint(i)&1 != 0 {
			m ^= mk
		}
		dst = append(dst, m)
	}
	return dst, canon | mk&^canon
}

// Alpha returns the mask of non-canonical variables whose factors differ
// in complementation between two same-structure CEX (the paper's α), or
// false if the structures differ.
func Alpha(a, b *CEX) (uint64, bool) {
	if !a.SameStructure(b) {
		return 0, false
	}
	var alpha uint64
	for i := range a.Factors {
		if a.Factors[i].Comp != b.Factors[i].Comp {
			alpha |= a.Factors[i].Vars &^ a.Canon
		}
	}
	return alpha, true
}

// SubPseudocubes enumerates all 2^{m+1}−2 distinct pseudocubes of degree
// m−1 strictly contained in c (paper Theorem 2): one per pair (S, b)
// with S a non-empty subset of the canonical variables and b ∈ {0,1},
// obtained by adjoining the constraint ⊕_{x∈S} x = b. The results are
// in CEX form (the theorem's A_1…A_q·A_{q+1} expressions are
// re-canonicalized as required by the theorem's footnote).
//
// The visit callback receives each sub-pseudocube; enumeration stops if
// it returns false.
func (c *CEX) SubPseudocubes(visit func(*CEX) bool) {
	c.SubPseudocubesInto(nil, func(canon uint64, fs []Factor) bool {
		return visit(NewCEX(c.N, canon, slices.Clone(fs)))
	})
}

// SubPseudocubesInto is SubPseudocubes without a CEX per result: each
// sub-pseudocube is written into dst's backing array as CEX-ordered
// factors and handed to visit with its canonical mask, valid until
// visit returns. It returns the grown scratch for the next call.
func (c *CEX) SubPseudocubesInto(dst []Factor, visit func(canon uint64, fs []Factor) bool) []Factor {
	if c.Degree() == 0 {
		return dst
	}
	pivots := bitvec.Vars(c.Canon, c.N)
	nsub := (1 << uint(len(pivots))) - 1
	for s := 1; s <= nsub; s++ {
		var sMask uint64
		for bit, p := range pivots {
			if s&(1<<uint(bit)) != 0 {
				sMask |= bitvec.VarMask(c.N, p)
			}
		}
		for b := uint8(0); b <= 1; b++ {
			var canon uint64
			dst, canon = c.constrain(dst, sMask, b)
			if !visit(canon, dst) {
				return dst
			}
		}
	}
	return dst
}

// constrain adjoins the affine constraint parity(p & sMask) == b to the
// pseudocube, where sMask is a non-empty subset of canonical variables,
// and writes the factors of the degree-(m−1) sub-pseudocube into dst,
// returning them with its canonical mask.
//
// The leaving pivot ℓ is the highest-index variable of S: under the
// leftmost-pivot RREF convention the new constraint row, fully reduced,
// solves for ℓ in terms of the remaining canonical variables. Every
// factor containing ℓ is rewritten by substitution (XOR with S), and a
// new factor for ℓ is inserted in non-canonical order.
func (c *CEX) constrain(dst []Factor, sMask uint64, b uint8) ([]Factor, uint64) {
	n := c.N
	// Leaving variable: highest index in S = lowest set bit under the
	// packing (x_0 most significant), i.e. the least significant bit.
	lMask := sMask & (^sMask + 1)
	l := bitvec.LowestVar(lMask, n)

	newFactor := Factor{Vars: sMask, Comp: 1 ^ b}
	fs := dst[:0]
	inserted := false
	for _, f := range c.Factors {
		nc := bitvec.LowestVar(f.Vars&^c.Canon, n)
		if !inserted && nc > l {
			fs = append(fs, newFactor)
			inserted = true
		}
		if f.Vars&lMask != 0 {
			// Substitute x_ℓ = parity(S\{ℓ}) ⊕ b.
			fs = append(fs, Factor{Vars: f.Vars ^ sMask, Comp: f.Comp ^ b})
		} else {
			fs = append(fs, f)
		}
	}
	if !inserted {
		fs = append(fs, newFactor)
	}
	return fs, c.Canon &^ lMask
}
