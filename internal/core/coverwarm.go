package core

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/bfunc"
	"repro/internal/cover"
	"repro/internal/pcube"
	"repro/internal/stats"
)

// This file is the incremental covering layer of the warm engine: the
// covering step shared by MinimizeExactWarm and ResumeExact, running
// entirely in point space (columns are the candidates' covered-ON point
// lists, never materialized as a cover.Instance on the greedy path).
//
// Byte-identity argument. A resume builds the same columns as a cold
// warm run on the edited function — same candidates in the same
// canonical order, each with the same covered-ON list — and then runs
// the same selection over them, so it selects the same cover. What a
// resume saves is the column construction: carried lists are shared or
// patched, and only new candidates compute theirs.

// pcol is one point-space covering column: a candidate, the sorted ON
// points it covers (non-empty), and its cost.
type pcol struct {
	cex  *pcube.CEX
	pts  []uint64
	cost int
}

// densePtSetMaxVars gates the dense point-set representation: for n
// variables up to this, membership is a 2^n-bit bitset (8 KiB at the
// gate); beyond it, a hash set.
const densePtSetMaxVars = 16

// ptSet is a set of points of B^n.
type ptSet struct {
	dense []uint64
	m     map[uint64]struct{}
}

func newPtSet(n int) *ptSet {
	if n <= densePtSetMaxVars {
		return &ptSet{dense: make([]uint64, ((uint64(1)<<uint(n))+63)/64)}
	}
	return &ptSet{m: make(map[uint64]struct{})}
}

func (s *ptSet) has(p uint64) bool {
	if s.dense != nil {
		return s.dense[p>>6]&(1<<(p&63)) != 0
	}
	_, ok := s.m[p]
	return ok
}

func (s *ptSet) add(p uint64) {
	if s.dense != nil {
		s.dense[p>>6] |= 1 << (p & 63)
		return
	}
	s.m[p] = struct{}{}
}

// countNew returns how many of pts (sorted, unique) are not in the set.
func (s *ptSet) countNew(pts []uint64) int {
	nw := 0
	for _, p := range pts {
		if !s.has(p) {
			nw++
		}
	}
	return nw
}

func (s *ptSet) addAll(pts []uint64) {
	for _, p := range pts {
		s.add(p)
	}
}

// ptCounts is a multiset of points of B^n, for redundancy elimination.
type ptCounts struct {
	dense []int32
	m     map[uint64]int32
}

func newPtCounts(n int) *ptCounts {
	if n <= densePtSetMaxVars {
		return &ptCounts{dense: make([]int32, uint64(1)<<uint(n))}
	}
	return &ptCounts{m: make(map[uint64]int32)}
}

func (c *ptCounts) inc(p uint64) {
	if c.dense != nil {
		c.dense[p]++
	} else {
		c.m[p]++
	}
}

func (c *ptCounts) dec(p uint64) {
	if c.dense != nil {
		c.dense[p]--
	} else {
		c.m[p]--
	}
}

func (c *ptCounts) get(p uint64) int32 {
	if c.dense != nil {
		return c.dense[p]
	}
	return c.m[p]
}

// coverOut is warmSelectCover's result bundle.
type coverOut struct {
	form Form
	// pts is every candidate's sorted covered-ON point list, aligned
	// with the candidate list (empty for candidates covering only
	// don't-cares), for the next resume. Nil when the covering
	// short-circuited trivially and nothing was computed.
	pts     [][]uint64
	time    time.Duration
	optimal bool
}

// warmSelectCover is the covering step shared by MinimizeExactWarm
// (meta == nil: every candidate's ON intersection computed fresh) and
// ResumeExact (meta from resumeEPPP: carried point lists re-associated
// by index, patched only where the candidate's point signature
// intersects the edit, and only new candidates computed). Both paths
// select over the same point-space columns in the same candidate order,
// which is what makes resume byte-identical to a cold warm run.
func warmSelectCover(f *bfunc.Func, candidates []*pcube.CEX, meta *resumeMeta, prevPts [][]uint64, patch coverPatch, opts Options) (coverOut, error) {
	start := time.Now()
	n := f.N()
	resumed := meta != nil
	if f.OnCount() == 0 {
		return coverOut{form: Form{N: n}, time: time.Since(start), optimal: true}, nil
	}
	if f.IsConstantOne() {
		one := &pcube.CEX{N: n, Canon: allMask(n)}
		return coverOut{form: Form{N: n, Terms: []*pcube.CEX{one}},
			time: time.Since(start), optimal: true}, nil
	}
	if err := opts.ctxErr(); err != nil {
		return coverOut{}, err
	}

	on := f.On()
	ix := newPointIndex(n, on)
	pts := make([][]uint64, len(candidates))
	dirty := make([]bool, len(candidates))
	var fresh []int
	stopCols := opts.Stats.Phase(stats.PhaseCoverColumns)
	// A candidate whose cube contains no edited point keeps its list
	// verbatim: every point the patch can drop or add lies inside the
	// cube, so a clean signature intersection is a proof, not a guess.
	var patchSig uint64
	for _, p := range patch.removedOn {
		patchSig |= pointSig(p)
	}
	for _, p := range patch.dcToOn {
		patchSig |= pointSig(p)
	}
	// The association/patch pass is embarrassingly parallel (each slot
	// writes only pts[i]/dirty[i]); per-shard fresh lists concatenate in
	// shard order, which is ascending candidate order — the same list the
	// serial loop built, so everything downstream is identical for every
	// worker count.
	workers := opts.coverWorkers()
	freshSh := make([][]int, workers)
	shardSlice(len(candidates), workers, func(shard, lo, hi int) {
		opts.Stats.Do(stats.PhaseCoverColumns, func() {
			var fr []int
			for i := lo; i < hi; i++ {
				if resumed {
					if k := meta.oldIdx[i]; k >= 0 {
						old := prevPts[k]
						if meta.sigs[i]&patchSig == 0 {
							pts[i] = old
							continue
						}
						pts[i], dirty[i] = patchPoints(old, candidates[i], patch)
						continue
					}
				}
				fr = append(fr, i)
				dirty[i] = true
			}
			freshSh[shard] = fr
		})
	})
	for _, fr := range freshSh {
		fresh = append(fresh, fr...)
	}
	shardSlice(len(fresh), opts.coverWorkers(), func(_, lo, hi int) {
		opts.Stats.Do(stats.PhaseCoverColumns, func() {
			var rows []int
			var basis []uint64
			for _, i := range fresh[lo:hi] {
				rows, basis, _ = candidateRows(candidates[i], on, ix, rows[:0], basis)
				out := make([]uint64, len(rows))
				for k, row := range rows {
					out[k] = on[row]
				}
				pts[i] = out
			}
		})
	})
	pcols := make([]pcol, 0, len(candidates))
	ndirty := 0
	for i, c := range candidates {
		if len(pts[i]) == 0 {
			continue // covers only don't-cares
		}
		if dirty[i] {
			ndirty++
		}
		pcols = append(pcols, pcol{cex: c, pts: pts[i], cost: opts.Cost.of(c)})
	}
	var in *cover.Instance
	if opts.CoverExact {
		// The exact solver needs a real Instance (rows indexed into the
		// ON list); all column row lists share one backing array.
		in = &cover.Instance{NRows: len(on), Cols: make([]cover.Column, 0, len(pcols))}
		total := 0
		for i := range pcols {
			total += len(pcols[i].pts)
		}
		backing := make([]int, 0, total)
		for i := range pcols {
			lo := len(backing)
			for _, p := range pcols[i].pts {
				backing = append(backing, ix.lookup(p))
			}
			in.Cols = append(in.Cols, cover.Column{
				Cost: pcols[i].cost,
				Rows: backing[lo:len(backing):len(backing)],
			})
		}
	}
	stopCols()
	if resumed && opts.Stats != nil {
		opts.Stats.Add(stats.CtrCoverDirty, int64(ndirty))
	}
	if err := opts.ctxErr(); err != nil {
		return coverOut{}, err
	}

	if !opts.CoverExact {
		kept, err := warmGreedyCover(n, len(on), pcols, opts)
		if err != nil {
			return coverOut{}, err
		}
		form := Form{N: n}
		for _, j := range kept {
			form.Terms = append(form.Terms, pcols[j].cex)
		}
		return coverOut{form: form, pts: pts, time: time.Since(start), optimal: false}, nil
	}

	if err := in.Validate(); err != nil {
		return coverOut{}, fmt.Errorf("core: candidate set does not cover ON-set: %v", err)
	}
	res := cover.Exact(in, cover.ExactOptions{
		MaxNodes: opts.CoverMaxNodes,
		Workers:  opts.coverWorkers(),
		Stats:    opts.Stats,
		Ctx:      opts.Ctx,
	})
	form := Form{N: n}
	for _, j := range res.Picked {
		form.Terms = append(form.Terms, pcols[j].cex)
	}
	return coverOut{form: form, pts: pts, time: time.Since(start), optimal: res.Optimal}, nil
}

// warmGreedyCover runs the greedy covering over point-space columns:
// the lazy heap over all columns, then redundancy elimination. Returns
// the kept column ordinals sorted ascending.
func warmGreedyCover(n, nrows int, pcols []pcol, opts Options) ([]int, error) {
	covd := newPtSet(n)
	var picks, kept []int
	var reevals int64
	var lgErr error
	stopGreedy := opts.Stats.Phase(stats.PhaseCoverGreedy)
	opts.Stats.Do(stats.PhaseCoverGreedy, func() {
		picks, reevals, lgErr = cover.LazyGreedy(len(pcols), nrows,
			func(j int) int { return pcols[j].cost },
			func(j int) int { return len(pcols[j].pts) },
			func(j int) int { return covd.countNew(pcols[j].pts) },
			func(j int) { covd.addAll(pcols[j].pts) })
		if lgErr == nil {
			kept = eliminateRedundantPts(n, pcols, picks)
		}
	})
	stopGreedy()
	if lgErr != nil {
		return nil, fmt.Errorf("core: candidate set does not cover ON-set: %v", lgErr)
	}
	sort.Ints(kept)
	if opts.Stats != nil {
		opts.Stats.Add(stats.CtrGreedyPicks, int64(len(picks)))
		opts.Stats.Add(stats.CtrGreedyReevals, reevals)
		opts.Stats.Add(stats.CtrGreedyRedundant, int64(len(picks)-len(kept)))
	}
	return kept, nil
}

// eliminateRedundantPts is cover's eliminateRedundant in point space:
// drop picked columns (most expensive first) every one of whose points
// is covered by at least two still-alive picks. Identical comparator
// and iteration order, so the kept set matches what the cold path's
// Instance-based elimination computes. Preserves pick order.
func eliminateRedundantPts(n int, pcols []pcol, picked []int) []int {
	if len(picked) <= 1 {
		return append([]int(nil), picked...)
	}
	order := append([]int(nil), picked...)
	sort.Slice(order, func(a, b int) bool {
		return pcols[order[a]].cost > pcols[order[b]].cost
	})
	cnt := newPtCounts(n)
	for _, j := range picked {
		for _, p := range pcols[j].pts {
			cnt.inc(p)
		}
	}
	var dropped map[int]bool
	for _, j := range order {
		redundant := true
		for _, p := range pcols[j].pts {
			if cnt.get(p) < 2 {
				redundant = false
				break
			}
		}
		if redundant {
			for _, p := range pcols[j].pts {
				cnt.dec(p)
			}
			if dropped == nil {
				dropped = make(map[int]bool, 4)
			}
			dropped[j] = true
		}
	}
	if dropped == nil {
		return append([]int(nil), picked...)
	}
	out := make([]int, 0, len(picked)-len(dropped))
	for _, j := range picked {
		if !dropped[j] {
			out = append(out, j)
		}
	}
	return out
}
