// Package cover solves the weighted unate set-covering problems at the
// heart of both SP and SPP minimization (paper §1): given rows X (the
// ON-set minterms), columns Y (prime implicants or extended prime
// pseudoproducts) and a column cost (literal count), select a minimum
// cost subset of Y covering X.
//
// Two solvers are provided: a greedy heuristic with redundancy
// elimination (the paper reports using covering heuristics for Table 1,
// making its #L figures upper bounds), and an exact branch-and-bound
// with classical essential/dominance reductions and an
// independent-rows lower bound, budgeted by a node limit.
//
// Both solvers run over dense word-parallel bitsets. Greedy uses a lazy
// re-evaluation heap (cached new-row counts are upper bounds, so the
// heap top with an up-to-date count is the true argmin) and does no
// per-pick allocation; the branch and bound undoes moves through a
// trail instead of cloning row sets, and can fan its root branches out
// over a worker pool (ExactOptions.Workers) deterministically.
package cover

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/stats"
)

// Instance is a covering problem. Rows are indexed 0..NRows-1; column j
// covers the rows listed in Cols[j].Rows (sorted, unique) at cost
// Cols[j].Cost (> 0).
type Instance struct {
	NRows int
	Cols  []Column
}

// Column is one selectable set.
type Column struct {
	Cost int
	Rows []int
}

// Result is a covering solution.
type Result struct {
	Picked  []int // indices into Instance.Cols, sorted
	Cost    int
	Optimal bool  // true if proven minimum
	Nodes   int64 // branch-and-bound nodes explored (exact solver)
}

// Validate checks structural sanity of the instance and that a cover
// exists (every row covered by at least one column).
func (in *Instance) Validate() error {
	seen := make([]bool, in.NRows)
	for j, c := range in.Cols {
		if c.Cost <= 0 {
			return fmt.Errorf("cover: column %d has non-positive cost %d", j, c.Cost)
		}
		prev := -1
		for _, r := range c.Rows {
			if r < 0 || r >= in.NRows {
				return fmt.Errorf("cover: column %d covers invalid row %d", j, r)
			}
			if r <= prev {
				return fmt.Errorf("cover: column %d rows not sorted/unique", j)
			}
			prev = r
			seen[r] = true
		}
	}
	for r, ok := range seen {
		if !ok {
			return fmt.Errorf("cover: row %d is uncoverable", r)
		}
	}
	return nil
}

// Key is one lazy-heap entry: column Col with its cost and a cached
// (possibly stale) count NW of rows it would newly cover. Coverage only
// grows, so the cached count is an upper bound on the true one and the
// cached key is an optimistic lower bound in the heap order. Better on
// Keys is the selection order every LazyGreedy caller gets, heap or
// bucket engine alike.
type Key struct {
	Cost int
	NW   int
	Col  int
}

// Better is the greedy selection order: cost per newly covered row
// ascending (compared by integer cross-multiplication, so there is no
// float rounding and no overflow for any counts that fit an int32),
// then more new rows first, then lower column index. The index
// tie-break makes the order total, which keeps the lazy heap — and
// therefore the whole greedy — deterministic.
func (a Key) Better(b Key) bool {
	l := int64(a.Cost) * int64(b.NW)
	r := int64(b.Cost) * int64(a.NW)
	if l != r {
		return l < r
	}
	if a.NW != b.NW {
		return a.NW > b.NW
	}
	return a.Col < b.Col
}

type greedyHeap []Key

func (h greedyHeap) init() {
	for i := len(h)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
}

func (h greedyHeap) down(i int) {
	n := len(h)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		m := l
		if r := l + 1; r < n && h[r].Better(h[l]) {
			m = r
		}
		if !h[m].Better(h[i]) {
			return
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}

func (h *greedyHeap) pop() {
	old := *h
	n := len(old) - 1
	old[0] = old[n]
	*h = old[:n]
	h.down(0)
}

// Greedy computes a cover with the classic cost-effectiveness greedy
// (pick the column minimizing cost per newly covered row), followed by
// reverse redundancy elimination (drop any picked column whose rows are
// covered by the others). The result is always a valid cover; Optimal
// is false unless the cover is trivially a single column of minimum
// cost covering everything.
//
// Selection runs over a lazy heap: the cached new-row count of the heap
// top is recomputed on demand, and only a stale top forces a sift. All
// other entries hold optimistic keys, so a top whose cached count is
// exact is the true minimum — the same column a full rescan would pick.
func Greedy(in *Instance) Result { return GreedyStats(in, nil) }

// GreedyStats is Greedy with observability: when rec is non-nil it
// times the greedy phase and counts picks, lazy-heap re-evaluations
// (stale tops that had to be popped or re-keyed) and redundancy drops.
// All three are deterministic — the lazy heap's total order makes the
// greedy independent of everything but the instance.
func GreedyStats(in *Instance, rec *stats.Recorder) Result {
	defer rec.Phase(stats.PhaseCoverGreedy)()
	if in.NRows == 0 {
		return Result{Optimal: true}
	}
	bs := in.colBitsets()
	covered := newBitset(in.NRows)
	picked, reevals, err := LazyGreedy(len(in.Cols), in.NRows,
		func(j int) int { return in.Cols[j].Cost },
		func(j int) int { return len(in.Cols[j].Rows) },
		func(j int) int { return covered.countNew(bs[j]) },
		func(j int) { covered.orWith(bs[j]) })
	if err != nil {
		panic("cover: uncoverable row in Greedy (call Validate first)")
	}
	nPicked := len(picked)
	picked = eliminateRedundant(in, picked)
	sort.Ints(picked)
	cost := 0
	for _, j := range picked {
		cost += in.Cols[j].Cost
	}
	if rec != nil {
		rec.Add(stats.CtrGreedyPicks, int64(nPicked))
		rec.Add(stats.CtrGreedyReevals, reevals)
		rec.Add(stats.CtrGreedyRedundant, int64(nPicked-len(picked)))
	}
	return Result{Picked: picked, Cost: cost}
}

// LazyGreedy is the reusable core of the greedy selection loop over an
// abstract column space: ncols columns identified by index, remaining
// uncovered rows, per-column cost and initial size accessors, countNew
// reporting how many uncovered rows column j would newly cover, and
// commit marking column j's rows covered. It returns the picked columns
// in selection order (no redundancy elimination, no sorting) and the
// number of lazy re-evaluations. Columns with size(j) == 0 never enter
// the heap. The selection sequence is a pure function of the instance —
// identical to GreedyStats on an equivalent Instance — which is what
// lets core's point-space columns select the same cover as an Instance
// would.
//
// An error (rather than GreedyStats's panic) is returned when the heap
// empties with rows still uncovered, so callers that skipped a
// Validate pass can surface the uncoverable-row condition.
func LazyGreedy(ncols, remaining int, cost, size, countNew func(int) int, commit func(int)) ([]int, int64, error) {
	// Small (cost, size) grids take the bucket-queue engine (bucket.go),
	// which pops in exactly the same order with O(1) operations. The
	// grid test is a pure function of the instance, so the engine choice
	// never perturbs determinism.
	costMin, costMax, sizeMax := 1<<30, 0, 0
	live := make([]int32, 0, ncols)
	sizes := make([]int32, 0, ncols)
	for j := 0; j < ncols; j++ {
		if s := size(j); s > 0 {
			live = append(live, int32(j))
			sizes = append(sizes, int32(s))
			if s > sizeMax {
				sizeMax = s
			}
			c := cost(j)
			if c > costMax {
				costMax = c
			}
			if c < costMin {
				costMin = c
			}
		}
	}
	if bucketEnabled && len(live) > 0 && costMin >= 1 {
		costCap, nwCap := pow2AtLeast(costMax), pow2AtLeast(sizeMax)
		if costCap*nwCap <= maxBucketRanks {
			return bucketGreedy(ratioTableFor(costCap, nwCap), live, sizes, remaining, cost, countNew, commit)
		}
	}
	h := make(greedyHeap, 0, len(live))
	for k, j := range live {
		h = append(h, Key{Cost: cost(int(j)), NW: int(sizes[k]), Col: int(j)})
	}
	h.init()
	picks := make([]int, 0, 8)
	var reevals int64
	for remaining > 0 {
		if len(h) == 0 {
			return nil, reevals, errors.New("cover: columns do not cover all rows")
		}
		top := h[0]
		nw := countNew(top.Col)
		switch {
		case nw == 0:
			h.pop()
			reevals++
		case nw != top.NW:
			h[0].NW = nw
			h.down(0)
			reevals++
		default:
			h.pop()
			picks = append(picks, top.Col)
			commit(top.Col)
			remaining -= nw
		}
	}
	return picks, reevals, nil
}

// eliminateRedundant drops picked columns (most expensive first) whose
// rows remain covered by the rest. A column is redundant exactly when
// every one of its rows is covered by at least two still-alive picks,
// so a per-row coverage count replaces the seed's rebuild of the union
// bitset for every candidate drop.
func eliminateRedundant(in *Instance, picked []int) []int {
	if len(picked) <= 1 {
		return picked
	}
	order := append([]int(nil), picked...)
	sort.Slice(order, func(a, b int) bool {
		return in.Cols[order[a]].Cost > in.Cols[order[b]].Cost
	})
	cnt := make([]int32, in.NRows)
	for _, j := range picked {
		for _, r := range in.Cols[j].Rows {
			cnt[r]++
		}
	}
	var dropped map[int]bool
	for _, j := range order {
		redundant := true
		for _, r := range in.Cols[j].Rows {
			if cnt[r] < 2 {
				redundant = false
				break
			}
		}
		if redundant {
			for _, r := range in.Cols[j].Rows {
				cnt[r]--
			}
			if dropped == nil {
				dropped = make(map[int]bool, 4)
			}
			dropped[j] = true
		}
	}
	if dropped == nil {
		return picked
	}
	out := picked[:0]
	for _, j := range picked {
		if !dropped[j] {
			out = append(out, j)
		}
	}
	return out
}
