package cover

import (
	"context"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/stats"
)

// ExactOptions configures the branch-and-bound solver.
type ExactOptions struct {
	// MaxNodes bounds the search; 0 means DefaultMaxNodes. When the
	// budget is exhausted the best cover found so far is returned with
	// Optimal=false (it is still a valid cover because the search is
	// seeded with the greedy solution).
	MaxNodes int64
	// Workers fans the root-level branches of the search out over this
	// many goroutines; <= 1 runs the serial solver, which visits
	// exactly the seed implementation's nodes. The parallel solver is
	// deterministic whenever the node budget is not exhausted: branches
	// are searched in a fixed order with per-branch local bounds and
	// strict pruning against the shared atomic upper bound, and the
	// final reduction breaks cost ties by lowest branch index (see
	// DESIGN.md, ablation 9). Nodes may exceed the serial count because
	// strict pruning re-explores some suboptimal subtrees.
	Workers int
	// Stats, when non-nil, receives the solver's phase times and
	// counters: the reduction's essential/dominance hits (deterministic)
	// and the search's node/prune/root-branch counts (scheduling-
	// dependent when Workers > 1, for the strict-pruning reason above).
	Stats *stats.Recorder
	// Ctx, when non-nil, cancels the search: the loop polls ctx.Err()
	// every ctxCheckNodes nodes (per worker) and stops like a budget
	// exhaustion, returning the best cover found so far with
	// Optimal=false. Without it a hung exact-cover run could only be
	// stopped by the node budget.
	Ctx context.Context
}

// ctxCheckNodes is how many search nodes a solver expands between
// ctx.Err() polls: coarse enough to keep the atomic load of a context
// read out of the node hot path, fine enough that cancellation lands
// within milliseconds (nodes are sub-microsecond).
const ctxCheckNodes = 1024

// DefaultMaxNodes is the node budget used when ExactOptions.MaxNodes is 0.
const DefaultMaxNodes = 2_000_000

// Exact solves the covering problem by branch and bound after the
// classical essential-column and row/column-dominance reductions, with
// an independent-rows lower bound. It is seeded with the greedy cover,
// so even on budget exhaustion the result is valid.
func Exact(in *Instance, opts ExactOptions) Result {
	if in.NRows == 0 {
		return Result{Optimal: true}
	}
	rec := opts.Stats
	budget := opts.MaxNodes
	if budget == 0 {
		budget = DefaultMaxNodes
	}
	if opts.Ctx != nil && opts.Ctx.Err() != nil {
		// Already cancelled: the greedy cover is the cheapest valid
		// answer we can produce without entering the search.
		return GreedyStats(in, rec)
	}
	stopReduce := rec.Phase(stats.PhaseCoverReduce)
	red := reduceInstance(in)
	stopReduce()
	if rec != nil {
		rec.Add(stats.CtrReduceEssential, int64(len(red.forced)))
		rec.Add(stats.CtrReduceRowDom, int64(red.rowDrops))
		rec.Add(stats.CtrReduceColDom, int64(red.colDrops))
	}
	picked := append([]int(nil), red.forced...)
	cost := red.cost
	if red.residual.NRows == 0 {
		sort.Ints(picked)
		return Result{Picked: picked, Cost: cost, Optimal: true}
	}
	seed := GreedyStats(red.residual, rec)
	var best []int
	var bestUB int
	var nodes int64
	stopSearch := rec.Phase(stats.PhaseCoverExact)
	if opts.Workers > 1 {
		best, bestUB, nodes = searchParallel(red.residual, seed, budget, opts.Workers, opts.Ctx, rec)
	} else {
		s := newSolver(red.residual, red.residual.colBitsets(), rowToCols(red.residual), seed, budget)
		s.ctx = opts.Ctx
		s.search(0)
		best, bestUB, nodes = s.best, s.bestUB, s.nodes
		if rec != nil {
			rec.Add(stats.CtrExactBoundPrunes, s.boundPrunes)
			rec.Add(stats.CtrExactLBPrunes, s.lbPrunes)
		}
	}
	stopSearch()
	rec.Add(stats.CtrExactNodes, nodes)
	for _, j := range best {
		picked = append(picked, red.colMap[j])
	}
	sort.Ints(picked)
	cancelled := opts.Ctx != nil && opts.Ctx.Err() != nil
	return Result{
		Picked:  picked,
		Cost:    cost + bestUB,
		Optimal: nodes < budget && !cancelled,
		Nodes:   nodes,
	}
}

func rowToCols(in *Instance) [][]int {
	rc := make([][]int, in.NRows)
	for j, c := range in.Cols {
		for _, r := range c.Rows {
			rc[r] = append(rc[r], j)
		}
	}
	return rc
}

// trailEntry is one undo record: the previous contents of a covered
// word that a pick overwrote.
type trailEntry struct {
	word int32
	old  uint64
}

// candEntry is a branch candidate with its new-row count, kept in
// per-depth scratch so sorting the branch order allocates nothing.
type candEntry struct {
	col int
	nw  int
}

// parShared is the state the parallel root branches share: the global
// node budget counter, the best upper bound found anywhere, and the
// cancellation flag any worker raises when it observes the context
// done. Bounds only ever tighten, so reading them can only prune more,
// never less.
type parShared struct {
	nodes     atomic.Int64
	bestUB    atomic.Int64
	cancelled atomic.Bool
}

func (p *parShared) lowerBestUB(v int64) {
	for {
		cur := p.bestUB.Load()
		if v >= cur || p.bestUB.CompareAndSwap(cur, v) {
			return
		}
	}
}

type solver struct {
	in      *Instance
	bs      []bitset
	rowCols [][]int

	covered bitset
	trail   []trailEntry
	picked  []int
	cands   [][]candEntry // per-depth branch-ordering scratch

	best   []int
	bestUB int
	nodes  int64
	budget int64

	boundPrunes int64 // subtrees cut against the incumbent
	lbPrunes    int64 // subtrees cut by the independent-rows lower bound

	colMark []int64 // lowerBound scratch: epoch stamps instead of a map
	epoch   int64

	// Cancellation: ctx is polled every ctxCheckNodes entered nodes;
	// when it fires, stopped halts this solver (and, through
	// par.cancelled, every sibling branch) like a budget exhaustion.
	ctx      context.Context
	sinceCtx int64
	stopped  bool

	par *parShared // nil for the serial solver
}

func newSolver(in *Instance, bs []bitset, rowCols [][]int, seed Result, budget int64) *solver {
	return &solver{
		in:      in,
		bs:      bs,
		rowCols: rowCols,
		covered: newBitset(in.NRows),
		picked:  make([]int, 0, 16),
		best:    append([]int(nil), seed.Picked...),
		bestUB:  seed.Cost,
		budget:  budget,
		colMark: make([]int64, len(in.Cols)),
	}
}

// enterNode charges one node against the budget; false means the
// budget is exhausted (or the context cancelled) and the node must not
// be expanded.
func (s *solver) enterNode() bool {
	if s.ctx != nil {
		if s.sinceCtx++; s.sinceCtx >= ctxCheckNodes {
			s.sinceCtx = 0
			if s.ctx.Err() != nil {
				s.stopped = true
				if s.par != nil {
					s.par.cancelled.Store(true)
				}
			}
		}
	}
	if s.stopped {
		return false
	}
	if s.par != nil {
		return !s.par.cancelled.Load() && s.par.nodes.Add(1) < s.budget
	}
	s.nodes++
	return s.nodes < s.budget
}

func (s *solver) overBudget() bool {
	if s.par != nil {
		return s.par.cancelled.Load() || s.par.nodes.Load() >= s.budget
	}
	return s.stopped || s.nodes >= s.budget
}

// pruned reports whether a node of the given cost (or cost plus lower
// bound) cannot improve on the incumbent. The serial solver prunes
// cost >= bestUB, matching the seed node-for-node. A parallel branch
// also reads the shared upper bound but prunes strictly (cost > bound):
// a strict prune never cuts a path to a solution as cheap as any
// incumbent, so what a branch records does not depend on when other
// branches publish their bounds — only the work saved does.
func (s *solver) pruned(cost int) bool {
	if s.par == nil {
		return cost >= s.bestUB
	}
	b := s.bestUB
	if sb := int(s.par.bestUB.Load()); sb < b {
		b = sb
	}
	return cost > b
}

func (s *solver) record(cost int) {
	if cost >= s.bestUB {
		return
	}
	s.bestUB = cost
	s.best = append(s.best[:0], s.picked...)
	if s.par != nil {
		s.par.lowerBestUB(int64(cost))
	}
}

// cover ORs column j into the covered set, logging overwritten words on
// the trail; undo(mark) rolls back to the state before the matching
// cover call. This replaces the seed's per-node bitset.clone().
func (s *solver) cover(j int) (mark int) {
	mark = len(s.trail)
	b := s.bs[j]
	for w, bw := range b {
		if bw&^s.covered[w] != 0 {
			s.trail = append(s.trail, trailEntry{word: int32(w), old: s.covered[w]})
			s.covered[w] |= bw
		}
	}
	return mark
}

func (s *solver) undo(mark int) {
	for i := len(s.trail) - 1; i >= mark; i-- {
		s.covered[s.trail[i].word] = s.trail[i].old
	}
	s.trail = s.trail[:mark]
}

// lowerBound computes a simple independent-rows bound: greedily pick
// uncovered rows no two of which share a column, summing for each the
// cheapest column covering it. Columns are marked used with an epoch
// stamp, so the scratch is reset by bumping one counter.
func (s *solver) lowerBound() int {
	s.epoch++
	lb := 0
	for r := 0; r < s.in.NRows; r++ {
		if s.covered.get(r) {
			continue
		}
		independent := true
		minCost := -1
		for _, j := range s.rowCols[r] {
			if s.colMark[j] == s.epoch {
				independent = false
				break
			}
			if minCost == -1 || s.in.Cols[j].Cost < minCost {
				minCost = s.in.Cols[j].Cost
			}
		}
		if independent && minCost > 0 {
			lb += minCost
			for _, j := range s.rowCols[r] {
				s.colMark[j] = s.epoch
			}
		}
	}
	return lb
}

// selectRow finds the uncovered row with the fewest live candidate
// columns (first one hit wins, stopping early at degree <= 1).
func (s *solver) selectRow() int {
	branchRow := -1
	branchDeg := int(^uint(0) >> 1)
	for r := 0; r < s.in.NRows; r++ {
		if s.covered.get(r) {
			continue
		}
		deg := 0
		for _, j := range s.rowCols[r] {
			if s.covered.anyNew(s.bs[j]) {
				deg++
			}
		}
		if deg < branchDeg {
			branchDeg, branchRow = deg, r
		}
		if deg <= 1 {
			break
		}
	}
	return branchRow
}

// sortedCands orders the columns covering row cheapest-per-new first
// (integer cross-multiplication, as in the seed) into the scratch slice
// for the current depth.
func (s *solver) sortedCands(row int) []candEntry {
	depth := len(s.picked)
	for depth >= len(s.cands) {
		s.cands = append(s.cands, nil)
	}
	cs := s.cands[depth][:0]
	for _, j := range s.rowCols[row] {
		cs = append(cs, candEntry{col: j, nw: s.covered.countNew(s.bs[j])})
	}
	sort.Slice(cs, func(a, b int) bool {
		ca, cb := s.in.Cols[cs[a].col].Cost, s.in.Cols[cs[b].col].Cost
		return int64(ca)*int64(cs[b].nw) < int64(cb)*int64(cs[a].nw)
	})
	s.cands[depth] = cs
	return cs
}

func (s *solver) search(cost int) {
	if !s.enterNode() {
		return
	}
	if s.pruned(cost) {
		s.boundPrunes++
		return
	}
	branchRow := s.selectRow()
	if branchRow == -1 {
		// Full cover found.
		s.record(cost)
		return
	}
	if s.pruned(cost + s.lowerBound()) {
		s.lbPrunes++
		return
	}
	for _, c := range s.sortedCands(branchRow) {
		mark := s.cover(c.col)
		s.picked = append(s.picked, c.col)
		s.search(cost + s.in.Cols[c.col].Cost)
		s.picked = s.picked[:len(s.picked)-1]
		s.undo(mark)
		if s.overBudget() {
			return
		}
	}
}

// searchParallel fans the root-level branches out over a worker pool.
// The root node is expanded once (exactly as the serial solver would),
// its sorted candidate list becomes the fixed branch order, and each
// branch is searched independently: local incumbent reset per branch,
// strict pruning against min(local, shared) bound. The result reduction
// keeps the cheapest branch solution, lowest branch index first, which
// is the same solution the serial depth-first search commits to.
func searchParallel(in *Instance, seed Result, budget int64, workers int, ctx context.Context, rec *stats.Recorder) (best []int, bestUB int, nodes int64) {
	bs := in.colBitsets()
	rowCols := rowToCols(in)
	par := &parShared{}
	par.bestUB.Store(int64(seed.Cost))

	root := newSolver(in, bs, rowCols, seed, budget)
	root.par = par
	root.ctx = ctx
	if !root.enterNode() || root.pruned(0) {
		return seed.Picked, seed.Cost, par.nodes.Load()
	}
	branchRow := root.selectRow() // NRows > 0, nothing covered: always a row
	if root.pruned(root.lowerBound()) {
		return seed.Picked, seed.Cost, par.nodes.Load()
	}
	cands := append([]candEntry(nil), root.sortedCands(branchRow)...)
	rec.Add(stats.CtrExactRootBranches, int64(len(cands)))

	type branchResult struct {
		cost   int
		picked []int
		found  bool
	}
	results := make([]branchResult, len(cands))
	if workers > len(cands) {
		workers = len(cands)
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rec.Do(stats.PhaseCoverExact, func() {
				s := newSolver(in, bs, rowCols, seed, budget)
				s.par = par
				s.ctx = ctx
				defer func() {
					rec.Add(stats.CtrExactBoundPrunes, s.boundPrunes)
					rec.Add(stats.CtrExactLBPrunes, s.lbPrunes)
				}()
				for {
					idx := int(next.Add(1)) - 1
					if idx >= len(cands) || s.overBudget() {
						return
					}
					j := cands[idx].col
					// Reset all per-branch state: the local incumbent must
					// depend only on the branch index, not on which worker
					// ran it or what it ran before, or determinism is lost.
					s.covered.zero()
					s.trail = s.trail[:0]
					s.picked = append(s.picked[:0], j)
					s.bestUB = seed.Cost
					s.best = append(s.best[:0], seed.Picked...)
					s.cover(j)
					s.search(in.Cols[j].Cost)
					if s.bestUB < seed.Cost {
						results[idx] = branchResult{
							cost:   s.bestUB,
							picked: append([]int(nil), s.best...),
							found:  true,
						}
					}
				}
			})
		}()
	}
	wg.Wait()
	best, bestUB = seed.Picked, seed.Cost
	for i := range results {
		if results[i].found && results[i].cost < bestUB {
			bestUB = results[i].cost
			best = results[i].picked
		}
	}
	return best, bestUB, par.nodes.Load()
}
