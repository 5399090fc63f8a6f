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

// This file is the covering step (Algorithm 2 step 3) of every
// single-output path: SelectCover, MinimizeExactWarm and ResumeExact
// all run selectCover, entirely in point space (columns are the
// candidates' covered-ON point lists, never materialized as a
// cover.Instance on the greedy path).
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

// ptSet is a set of ON points, held as a bitset over their rows in the
// sorted ON list (through the pointIndex the columns were built with).
type ptSet struct {
	ix   *pointIndex
	rows []uint64
}

func newPtSet(ix *pointIndex) *ptSet {
	return &ptSet{ix: ix, rows: make([]uint64, (len(ix.pts)+63)/64)}
}

// countNew returns how many of pts (ON points, unique) are not in the
// set.
func (s *ptSet) countNew(pts []uint64) int {
	nw := 0
	for _, p := range pts {
		r := s.ix.lookup(p)
		if s.rows[r>>6]&(1<<(r&63)) == 0 {
			nw++
		}
	}
	return nw
}

func (s *ptSet) addAll(pts []uint64) {
	for _, p := range pts {
		r := s.ix.lookup(p)
		s.rows[r>>6] |= 1 << (r & 63)
	}
}

// coverOut is selectCover's result bundle.
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

// selectCover is the covering step of SelectCover and MinimizeExactWarm
// (meta == nil: every candidate's ON intersection computed fresh) and
// of ResumeExact (meta from resumeEPPP: carried point lists
// re-associated by index, patched only where the candidate's point
// signature intersects the edit, and only new candidates computed).
// Every path selects over the same point-space columns in candidate
// order, which is what makes a resume byte-identical to a cold warm
// run. Columns are built on the calling goroutine.
func selectCover(f *bfunc.Func, candidates []*pcube.CEX, meta *resumeMeta, prevPts [][]uint64, patch coverPatch, opts Options) (coverOut, error) {
	start := time.Now()
	n := f.N()
	if f.OnCount() == 0 {
		return coverOut{form: Form{N: n}, time: time.Since(start), optimal: true}, nil
	}
	if f.IsConstantOne() {
		// The whole space is a pseudocube with the empty CEX.
		one := &pcube.CEX{N: n, Canon: allMask(n)}
		return coverOut{form: Form{N: n, Terms: []*pcube.CEX{one}},
			time: time.Since(start), optimal: true}, nil
	}
	if err := opts.ctxErr(); err != nil {
		return coverOut{}, err
	}

	on := f.On()
	stopCols := opts.Stats.Phase(stats.PhaseCoverColumns)
	ix := newPointIndex(n, on)
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
	pts := make([][]uint64, len(candidates))
	pcols := make([]pcol, 0, len(candidates))
	var ndirty, gray, contains int64
	opts.Stats.Do(stats.PhaseCoverColumns, func() {
		var rows []int
		var basis []uint64
		for i, c := range candidates {
			k := int32(-1)
			if meta != nil {
				k = meta.oldIdx[i]
			}
			dirty := true
			switch {
			case k >= 0 && meta.sigs[i]&patchSig == 0:
				pts[i], dirty = prevPts[k], false
			case k >= 0:
				pts[i], dirty = patchPoints(prevPts[k], c, patch)
			default:
				var walked bool
				rows, basis, walked = candidateRows(c, on, ix, rows[:0], basis)
				if walked {
					gray++
				} else {
					contains++
				}
				pts[i] = make([]uint64, len(rows))
				for r, row := range rows {
					pts[i][r] = on[row]
				}
			}
			if len(pts[i]) == 0 {
				continue // covers only don't-cares
			}
			if dirty {
				ndirty++
			}
			pcols = append(pcols, pcol{cex: c, pts: pts[i], cost: opts.Cost.of(c)})
		}
	})
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
	if opts.Stats != nil {
		opts.Stats.Add(stats.CtrCoverColumns, int64(len(pcols)))
		opts.Stats.Add(stats.CtrCoverDCOnly, int64(len(candidates)-len(pcols)))
		opts.Stats.Add(stats.CtrCoverGray, gray)
		opts.Stats.Add(stats.CtrCoverContains, contains)
		if meta != nil {
			opts.Stats.Add(stats.CtrCoverDirty, ndirty)
		}
	}
	if err := opts.ctxErr(); err != nil {
		return coverOut{}, err
	}

	if !opts.CoverExact {
		kept, err := greedyCover(ix, pcols, opts)
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

// greedyCover runs the greedy covering over point-space columns: the
// lazy heap over all columns, then redundancy elimination. Returns the
// kept column ordinals sorted ascending.
func greedyCover(ix *pointIndex, pcols []pcol, opts Options) ([]int, error) {
	covd := newPtSet(ix)
	var picks, kept []int
	var reevals int64
	var lgErr error
	stopGreedy := opts.Stats.Phase(stats.PhaseCoverGreedy)
	opts.Stats.Do(stats.PhaseCoverGreedy, func() {
		picks, reevals, lgErr = cover.LazyGreedy(len(pcols), len(ix.pts),
			func(j int) int { return pcols[j].cost },
			func(j int) int { return len(pcols[j].pts) },
			func(j int) int { return covd.countNew(pcols[j].pts) },
			func(j int) { covd.addAll(pcols[j].pts) })
		if lgErr == nil {
			kept = eliminateRedundantPts(ix, pcols, picks)
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
// is covered by at least two still-alive picks, counted per ON row.
// Identical comparator and iteration order, so the kept set matches
// what the Instance-based elimination computes. Preserves pick order.
func eliminateRedundantPts(ix *pointIndex, pcols []pcol, picked []int) []int {
	if len(picked) <= 1 {
		return append([]int(nil), picked...)
	}
	order := append([]int(nil), picked...)
	sort.Slice(order, func(a, b int) bool {
		return pcols[order[a]].cost > pcols[order[b]].cost
	})
	cnt := make([]int32, len(ix.pts))
	for _, j := range picked {
		for _, p := range pcols[j].pts {
			cnt[ix.lookup(p)]++
		}
	}
	var dropped map[int]bool
	for _, j := range order {
		redundant := true
		for _, p := range pcols[j].pts {
			if cnt[ix.lookup(p)] < 2 {
				redundant = false
				break
			}
		}
		if redundant {
			for _, p := range pcols[j].pts {
				cnt[ix.lookup(p)]--
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
