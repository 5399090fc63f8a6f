package core

import (
	"fmt"
	"math/bits"
	"sort"
	"sync"
	"time"

	"repro/internal/bfunc"
	"repro/internal/cover"
	"repro/internal/pcube"
	"repro/internal/stats"
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
// at minimum total cost.
func SelectCover(f *bfunc.Func, set *EPPPSet, opts Options) (Form, time.Duration, bool, error) {
	start := time.Now()
	n := f.N()
	if f.OnCount() == 0 {
		return Form{N: n}, time.Since(start), true, nil
	}
	if f.IsConstantOne() {
		// The whole space is a pseudocube with the empty CEX.
		one := &pcube.CEX{N: n, Canon: allMask(n)}
		return Form{N: n, Terms: []*pcube.CEX{one}}, time.Since(start), true, nil
	}

	if err := opts.ctxErr(); err != nil {
		return Form{}, 0, false, err
	}
	on := f.On()
	stopCols := opts.Stats.Phase(stats.PhaseCoverColumns)
	in, cols := buildCoverColumns(n, on, set.Candidates, opts)
	stopCols()
	if err := in.Validate(); err != nil {
		return Form{}, 0, false, fmt.Errorf("core: candidate set does not cover ON-set: %v", err)
	}
	if err := opts.ctxErr(); err != nil {
		return Form{}, 0, false, err
	}
	var res cover.Result
	if opts.CoverExact {
		res = cover.Exact(in, cover.ExactOptions{
			MaxNodes: opts.CoverMaxNodes,
			Workers:  opts.coverWorkers(),
			Stats:    opts.Stats,
			Ctx:      opts.Ctx,
		})
	} else {
		res = cover.GreedyStats(in, opts.Stats)
	}
	form := Form{N: n}
	for _, j := range res.Picked {
		form.Terms = append(form.Terms, cols[j])
	}
	return form, time.Since(start), res.Optimal, nil
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
// construction, so shared freely across workers.
type pointIndex struct {
	dense []int32
	pts   []uint64
}

// densePointIndexMaxVars caps the dense table at 4 MiB of int32.
const densePointIndexMaxVars = 20

func newPointIndex(n int, pts []uint64) *pointIndex {
	ix := &pointIndex{pts: pts}
	if n <= densePointIndexMaxVars {
		ix.dense = make([]int32, uint64(1)<<uint(n))
		for i := range ix.dense {
			ix.dense[i] = -1
		}
		for i, p := range pts {
			ix.dense[p] = int32(i)
		}
	}
	return ix
}

// lookup returns the index of p in the point list, or -1.
func (ix *pointIndex) lookup(p uint64) int {
	if ix.dense != nil {
		return int(ix.dense[p])
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

// buildCoverColumns intersects every candidate's affine subspace with
// the ON-set to form the covering columns, sharding candidates
// contiguously over the covering worker pool. Shard outputs are
// concatenated in candidate order, so the instance — and everything
// downstream of it — is identical for every worker count.
func buildCoverColumns(n int, on []uint64, candidates []*pcube.CEX, opts Options) (*cover.Instance, []*pcube.CEX) {
	ix := newPointIndex(n, on)
	type shardOut struct {
		cols []cover.Column
		kept []*pcube.CEX
	}
	workers := opts.coverWorkers()
	if workers > len(candidates) {
		workers = len(candidates)
	}
	if workers < 1 {
		workers = 1
	}
	outs := make([]shardOut, workers)
	shards := make([]stats.Shard, workers)
	shardSlice(len(candidates), workers, func(shard, lo, hi int) {
		opts.Stats.Do(stats.PhaseCoverColumns, func() {
			out := &outs[shard]
			sh := &shards[shard]
			record := opts.Stats != nil
			var scratch []int
			var basis []uint64
			for _, c := range candidates[lo:hi] {
				var gray bool
				scratch, basis, gray = candidateRows(c, on, ix, scratch[:0], basis)
				if record {
					if gray {
						sh.Add(stats.CtrCoverGray, 1)
					} else {
						sh.Add(stats.CtrCoverContains, 1)
					}
				}
				if len(scratch) == 0 {
					if record {
						sh.Add(stats.CtrCoverDCOnly, 1)
					}
					continue // covers only don't-cares
				}
				out.cols = append(out.cols, cover.Column{
					Cost: opts.Cost.of(c),
					Rows: append([]int(nil), scratch...),
				})
				out.kept = append(out.kept, c)
			}
			if record {
				sh.Add(stats.CtrCoverColumns, int64(len(out.cols)))
			}
		})
	})
	in := &cover.Instance{NRows: len(on)}
	var cols []*pcube.CEX
	for i := range outs {
		in.Cols = append(in.Cols, outs[i].cols...)
		cols = append(cols, outs[i].kept...)
		opts.Stats.Merge(&shards[i])
	}
	return in, cols
}

// shardSlice splits [0, n) into contiguous order-preserving shards, one
// per worker (shard s covers [n*s/w, n*(s+1)/w)), and runs fn for each
// shard concurrently. With one worker (or n <= 1) fn runs inline. It is
// the fan-out primitive of the covering-column passes (SelectCover,
// MinimizeMulti and the warm resume), whose shard outputs are
// concatenated back in shard order.
func shardSlice(n, workers int, fn func(shard, lo, hi int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		if n > 0 {
			fn(0, 0, n)
		}
		return
	}
	var wg sync.WaitGroup
	for s := 0; s < workers; s++ {
		lo, hi := n*s/workers, n*(s+1)/workers
		wg.Add(1)
		go func(s, lo, hi int) {
			defer wg.Done()
			fn(s, lo, hi)
		}(s, lo, hi)
	}
	wg.Wait()
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
