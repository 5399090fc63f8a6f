package core

import (
	"math/bits"
	"sort"
	"time"

	"repro/internal/bfunc"
	"repro/internal/pcube"
)

// Result is a minimized SPP form together with the work statistics of
// both phases.
type Result struct {
	Form  Form
	Build BuildStats
	// CoverTime is the wall-clock duration of the covering phase.
	CoverTime time.Duration
	// CoverOptimal reports whether the covering solution was proven
	// minimum (exact solver within budget). When false the literal
	// count is an upper bound — exactly the caveat the paper states for
	// its Table 1.
	CoverOptimal bool
}

// Literals returns the cost of the selected form (#L).
func (r *Result) Literals() int { return r.Form.Literals() }

// SelectCover solves the covering problem of Algorithm 2 step 3: choose
// pseudoproducts from the candidate set covering every ON minterm of f
// at minimum total cost. It is the warm engine's covering with nothing
// carried, so it selects exactly what MinimizeExactWarm would over the
// same candidate list.
func SelectCover(f *bfunc.Func, set *EPPPSet, opts Options) (Form, time.Duration, bool, error) {
	out, err := selectCover(f, set.Candidates, nil, nil, coverPatch{}, opts)
	if err != nil {
		return Form{}, 0, false, err
	}
	return out.form, out.time, out.optimal, nil
}

func allMask(n int) uint64 {
	if n == 64 {
		return ^uint64(0)
	}
	return (1 << uint(n)) - 1
}

// pointIndex maps points of B^n to their index in a sorted point list.
// For small n a dense array gives O(1) lookups; beyond the gate the
// fallback is binary search on the sorted list. Read-only after
// construction.
type pointIndex struct {
	// dense holds index+1 per point, so the zeroed table already reads
	// "absent" everywhere but at the listed points.
	dense []int32
	pts   []uint64
}

// densePointIndexMaxVars caps the dense table at 4 MiB of int32.
const densePointIndexMaxVars = 20

func newPointIndex(n int, pts []uint64) *pointIndex {
	ix := &pointIndex{pts: pts}
	if n <= densePointIndexMaxVars {
		ix.dense = make([]int32, uint64(1)<<uint(n))
		for i, p := range pts {
			ix.dense[p] = int32(i + 1)
		}
	}
	return ix
}

// lookup returns the index of p in the point list, or -1.
func (ix *pointIndex) lookup(p uint64) int {
	if ix.dense != nil {
		return int(ix.dense[p]) - 1
	}
	lo, hi := 0, len(ix.pts)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if ix.pts[mid] < p {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(ix.pts) && ix.pts[lo] == p {
		return lo
	}
	return -1
}

// affineOf computes the affine representation of c — the offset point
// and one basis row per canonical variable — into the reusable basis
// slice. It is c.Affine without the Gaussian elimination: each row
// carries a distinct canonical pivot bit no other row touches, so the
// rows are independent by construction, which is all the Gray-code walk
// of candidateRows needs.
func affineOf(c *pcube.CEX, basis []uint64) (uint64, []uint64) {
	// One row per canonical variable, seeded with its pivot bit; idx maps
	// a bit position to its row so factors can scatter into the rows they
	// touch (entries for non-canonical positions are never read).
	var idx [64]uint8
	base := len(basis)
	k := uint8(0)
	for canon := c.Canon; canon != 0; canon &= canon - 1 {
		b := canon & -canon
		idx[bits.TrailingZeros64(b)] = k
		basis = append(basis, b)
		k++
	}
	var off uint64
	for _, f := range c.Factors {
		nc := f.Vars &^ c.Canon
		if f.Comp == 0 {
			off |= nc
		}
		for vars := f.Vars & c.Canon; vars != 0; vars &= vars - 1 {
			basis[base+int(idx[bits.TrailingZeros64(vars)])] |= nc
		}
	}
	return off, basis
}

// candidateRows appends to rows the indices of the ON points covered by
// candidate c, sorted ascending. When the pseudocube is smaller than
// the ON-set its 2^m points are enumerated allocation-free by walking
// the affine basis in Gray-code order; otherwise the sorted ON points
// are filtered through c.Contains directly. basis is reusable scratch;
// gray reports which of the two enumeration paths ran.
func candidateRows(c *pcube.CEX, on []uint64, ix *pointIndex, rows []int, basis []uint64) (_ []int, _ []uint64, gray bool) {
	if m := uint(c.Degree()); m < 32 && uint64(1)<<m <= uint64(len(on)) {
		var off uint64
		off, basis = affineOf(c, basis[:0])
		br := basis
		size := uint64(1) << m
		p := off
		for i := uint64(0); ; i++ {
			if r := ix.lookup(p); r >= 0 {
				rows = append(rows, r)
			}
			if i+1 == size {
				break
			}
			p ^= br[bits.TrailingZeros64(i+1)]
		}
		sort.Ints(rows)
		return rows, basis, true
	}
	for r, p := range on {
		if c.Contains(p) {
			rows = append(rows, r)
		}
	}
	return rows, basis, false
}

// MinimizeExact runs the full exact SPP minimization (Algorithm 2):
// EPPP construction with partition tries followed by covering. The
// resulting literal count is the paper's SPP #L (an upper bound when the
// covering phase is heuristic or budget-limited).
func MinimizeExact(f *bfunc.Func, opts Options) (*Result, error) {
	set, err := BuildEPPP(f, opts)
	if err != nil {
		return nil, err
	}
	form, coverTime, optimal, err := SelectCover(f, set, opts)
	if err != nil {
		return nil, err
	}
	return &Result{Form: form, Build: set.Stats, CoverTime: coverTime, CoverOptimal: optimal}, nil
}

// MinimizeNaive runs the baseline pipeline: EPPP construction with the
// pairwise algorithm of [5], then the same covering step. Produces the
// same forms as MinimizeExact, much more slowly (Table 2).
func MinimizeNaive(f *bfunc.Func, opts Options) (*Result, error) {
	set, err := BuildEPPPNaive(f, opts)
	if err != nil {
		return nil, err
	}
	form, coverTime, optimal, err := SelectCover(f, set, opts)
	if err != nil {
		return nil, err
	}
	return &Result{Form: form, Build: set.Stats, CoverTime: coverTime, CoverOptimal: optimal}, nil
}
