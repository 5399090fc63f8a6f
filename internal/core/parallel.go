package core

import (
	"bytes"
	"math/bits"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bfunc"
	"repro/internal/pcube"
	"repro/internal/ptrie"
	"repro/internal/stats"
)

// This file implements the worker-pool parallel EPPP engine. Algorithm 2
// decomposes each level into independent same-structure groups (the
// partition X^i = X^i_1 ∪ … ∪ X^i_k of §3.2), so the O(g²) pairwise
// union work fans out across workers with no synchronization beyond the
// per-level barrier. Determinism is preserved end to end:
//
//   - the pair loop of a group (and, for large groups, contiguous
//     i-ranges of it) is a task; tasks are sharded contiguously over
//     workers in the serial engine's group order, weighted by pair
//     count, so the single large degree-0 group parallelizes too;
//   - each worker unifies into a worker-local partition trie, whose
//     within-group entry order is its generation order;
//   - discard marks are recorded in per-task bitsets and applied after
//     the barrier, making them scheduling-independent;
//   - the shard tries are k-way merged by trie path key (ptrie
//     .PathGroups), which reproduces exactly the DFS group order and the
//     within-group generation order the serial engine's single next-
//     level trie would have, so the resulting EPPP set is byte-identical
//     to Workers=1.
//
// Budget accounting: workers charge the shared atomic budget for every
// union fresh in their local shard; the merge refunds the cross-shard
// duplicates, so the net charge per completed level equals the serial
// engine's. Near the exact exhaustion boundary the transient overcharge
// can trip ErrBudget a few credits early — the tradeoff for aborting
// promptly inside the level instead of materializing it whole.

// pgroup is one structure group of the current level, in the serial
// engine's deterministic group order.
type pgroup struct {
	entries []*ptrie.Entry
}

// utask is one unit of parallel union work: the pair loop of group g
// restricted to first indices [lo, hi). Workers record discard marks in
// the bitset instead of writing Entry.Mark directly, because a large
// group split across workers shares its entries slice.
type utask struct {
	g      int
	lo, hi int
	marks  []uint64
}

func (t *utask) mark(i int) {
	t.marks[i>>6] |= 1 << uint(i&63)
}

// pairWeight is the number of unions task (g, lo, hi) performs.
func pairWeight(groupLen, lo, hi int) int64 {
	w := int64(0)
	for i := lo; i < hi; i++ {
		w += int64(groupLen - 1 - i)
	}
	return w
}

// planTasks slices the level's groups into tasks of roughly equal union
// counts, splitting groups whose pair count exceeds the chunk size into
// contiguous i-ranges. Deterministic: depends only on group sizes and
// the worker count.
func planTasks(groups []pgroup, workers int) []*utask {
	var total int64
	for _, g := range groups {
		m := int64(len(g.entries))
		total += m * (m - 1) / 2
	}
	chunk := total/int64(workers*4) + 1
	var tasks []*utask
	for gi, g := range groups {
		m := len(g.entries)
		if m < 2 {
			continue
		}
		words := (m + 63) / 64
		lo := int64(0) // running weight within the group
		start := 0
		for i := 0; i < m-1; i++ {
			lo += int64(m - 1 - i)
			if lo >= chunk || i == m-2 {
				tasks = append(tasks, &utask{g: gi, lo: start, hi: i + 1, marks: make([]uint64, words)})
				start, lo = i+1, 0
			}
		}
	}
	return tasks
}

// shardTasks partitions the task list into at most `workers` contiguous
// runs of roughly equal total weight. Contiguity is what keeps the merge
// deterministic: concatenating shard outputs in shard order replays the
// serial engine's group-by-group generation order.
func shardTasks(groups []pgroup, tasks []*utask, workers int) [][]*utask {
	weights := make([]int64, len(tasks))
	var total int64
	for i, t := range tasks {
		weights[i] = pairWeight(len(groups[t.g].entries), t.lo, t.hi)
		total += weights[i]
	}
	var shards [][]*utask
	start, acc, remaining := 0, int64(0), total
	for i := range tasks {
		acc += weights[i]
		if left := workers - len(shards); left > 1 && i+1 < len(tasks) && acc >= remaining/int64(left) {
			shards = append(shards, tasks[start:i+1])
			remaining -= acc
			start, acc = i+1, 0
		}
	}
	return append(shards, tasks[start:])
}

// expandLevel performs one union step of Algorithm 2 over the level's
// groups on parallel workers. It returns the worker-local tries in shard
// order and reports false when the budget was exhausted. Discard marks
// are applied to the group entries before returning, so the caller can
// collect the level's surviving candidates directly. phase tags the
// worker goroutines for pprof when the recorder labels them.
func expandLevel(n int, groups []pgroup, opts Options, b *budget, unions *int64, workers int, phase stats.Phase) ([]*ptrie.Trie, bool) {
	tasks := planTasks(groups, workers)
	if len(tasks) == 0 {
		return nil, true
	}
	shards := shardTasks(groups, tasks, workers)
	locals := make([]*ptrie.Trie, len(shards))
	var over atomic.Bool
	var wg sync.WaitGroup
	for s := range shards {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			opts.Stats.Do(phase, func() {
				local := ptrie.New(n)
				u := unifier{cost: opts.Cost, b: b}
				defer func() { atomic.AddInt64(unions, u.unions) }()
				for _, t := range shards[s] {
					if over.Load() {
						return
					}
					if !u.group(groups[t.g].entries, t.lo, t.hi, local, t.mark) {
						over.Store(true)
						return
					}
				}
				locals[s] = local
			})
		}(s)
	}
	wg.Wait()
	if over.Load() {
		return nil, false
	}
	for _, t := range tasks {
		es := groups[t.g].entries
		for w, word := range t.marks {
			for ; word != 0; word &= word - 1 {
				es[w*64+bits.TrailingZeros64(word)].Mark = true
			}
		}
	}
	return locals, true
}

// shardGroups materializes a shard trie's groups with copied path keys
// for the k-way merge.
type shardGroup struct {
	path    []byte
	entries []*ptrie.Entry
}

func pathGroupsOf(t *ptrie.Trie) []shardGroup {
	var gs []shardGroup
	if t == nil {
		return gs
	}
	t.PathGroups(func(path []byte, es []*ptrie.Entry) bool {
		gs = append(gs, shardGroup{append([]byte(nil), path...), es})
		return true
	})
	return gs
}

// mergeShards k-way merges the worker-local tries into the next level's
// group list, deduplicating cross-shard copies of the same pseudoproduct
// (same structure group, same complement vector) and refunding their
// optimistic budget charges. Merging sorted path-key streams in shard
// order reproduces exactly the DFS group order and within-group entry
// order of the serial engine's next-level trie.
func mergeShards(locals []*ptrie.Trie, b *budget) ([]pgroup, int) {
	streams := make([][]shardGroup, len(locals))
	idx := make([]int, len(locals))
	for s, lt := range locals {
		streams[s] = pathGroupsOf(lt)
	}
	var next []pgroup
	size := 0
	for {
		best := -1
		for s := range streams {
			if idx[s] >= len(streams[s]) {
				continue
			}
			if best < 0 || bytes.Compare(streams[s][idx[s]].path, streams[best][idx[best]].path) < 0 {
				best = s
			}
		}
		if best < 0 {
			return next, size
		}
		path := streams[best][idx[best]].path
		var parts [][]*ptrie.Entry
		for s := best; s < len(streams); s++ {
			if idx[s] < len(streams[s]) && bytes.Equal(streams[s][idx[s]].path, path) {
				parts = append(parts, streams[s][idx[s]].entries)
				idx[s]++
			}
		}
		merged := parts[0]
		if len(parts) > 1 {
			// Same structure appears in several shards: dedup by comp
			// vector, keeping the earliest shard's instance like the
			// serial trie's Insert would.
			seen := make(map[uint64]bool, len(merged))
			for _, e := range merged {
				seen[e.CEX.CompVector()] = true
			}
			for _, part := range parts[1:] {
				for _, e := range part {
					if cv := e.CEX.CompVector(); !seen[cv] {
						seen[cv] = true
						merged = append(merged, e)
					} else {
						b.refund(1)
					}
				}
			}
		}
		next = append(next, pgroup{merged})
		size += len(merged)
	}
}

// mergeIntoTrie drains the worker-local tries into an existing master
// trie in shard order, refunding duplicates, and returns the number of
// entries fresh in the master — the deterministic union-success count
// of the step. Within every destination group the master ends up with
// entries in the same order the serial engine's interleaved inserts
// would have produced, because each local trie keeps its entries in
// generation order and shards are contiguous runs of the source
// iteration.
func mergeIntoTrie(dst *ptrie.Trie, locals []*ptrie.Trie, b *budget) int {
	fresh := 0
	for _, lt := range locals {
		if lt == nil {
			continue
		}
		lt.Entries(func(e *ptrie.Entry) bool {
			if _, f := dst.Insert(e.CEX); f {
				fresh++
			} else {
				b.refund(1)
			}
			return true
		})
	}
	return fresh
}

// descendParallel runs one step of the heuristic's descendant phase on
// parallel workers: every pseudoproduct of src expands into its
// degree-(m−1) sub-pseudocubes (Theorem 2), sharded contiguously over
// the src iteration order, then merged into dst (which may already hold
// the seeded prime implicants of that degree) in the serial insertion
// order. Returns the number of sub-pseudocubes fresh in dst and
// reports false when the budget is exhausted.
func descendParallel(n int, src, dst *ptrie.Trie, b *budget, workers int, rec *stats.Recorder) (int, bool) {
	var entries []*ptrie.Entry
	src.Entries(func(e *ptrie.Entry) bool {
		entries = append(entries, e)
		return true
	})
	if workers > len(entries) {
		workers = len(entries)
	}
	locals := make([]*ptrie.Trie, workers)
	var over atomic.Bool
	var wg sync.WaitGroup
	for s := 0; s < workers; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			rec.Do(stats.PhaseDescend, func() {
				local := ptrie.New(n)
				for _, e := range entries[len(entries)*s/workers : len(entries)*(s+1)/workers] {
					if over.Load() {
						return
					}
					ok := true
					e.CEX.SubPseudocubes(func(sub *pcube.CEX) bool {
						if _, fresh := local.Insert(sub); fresh && !b.spend(1) {
							over.Store(true)
							ok = false
						}
						return ok
					})
					if !ok {
						return
					}
				}
				locals[s] = local
			})
		}(s)
	}
	wg.Wait()
	if over.Load() {
		return 0, false
	}
	return mergeIntoTrie(dst, locals, b), true
}

// levelGroups snapshots a trie's structure groups in DFS order.
func levelGroups(t *ptrie.Trie) []pgroup {
	var gs []pgroup
	t.Groups(func(es []*ptrie.Entry) bool {
		gs = append(gs, pgroup{es})
		return true
	})
	return gs
}

// buildEPPPParallel is BuildEPPP with the level expansion fanned out
// over opts.workers() workers. The candidate set, its order, and every
// statistic except BuildTime are identical to the serial engine's.
func buildEPPPParallel(f *bfunc.Func, opts Options) (*EPPPSet, error) {
	defer opts.Stats.Phase(stats.PhaseEPPP)()
	start := time.Now()
	n := f.N()
	workers := opts.workers()
	b := newBudget(opts)
	bst := BuildStats{}

	seed := ptrie.New(n)
	for _, p := range f.Care() {
		seed.Insert(pcube.FromPoint(n, p))
	}
	if !b.spend(seed.Len()) {
		return nil, b.failure()
	}
	if opts.Stats != nil {
		opts.Stats.Add(stats.CtrTrieNodes, int64(seed.NumInternalNodes()))
	}
	groups := levelGroups(seed)
	size := seed.Len()

	var candidates []*pcube.CEX
	for level := 0; size > 0; level++ {
		if err := opts.ctxErr(); err != nil {
			return nil, err
		}
		bst.LevelSizes = append(bst.LevelSizes, size)
		bst.Groups = append(bst.Groups, len(groups))
		locals, ok := expandLevel(n, groups, opts, b, &bst.Unions, workers, stats.PhaseEPPP)
		if !ok {
			return nil, b.failure()
		}
		if opts.Stats != nil {
			// Shard tries duplicate path prefixes across workers, so this
			// node count is scheduling-dependent (unlike every BuildStats
			// field) and lands in the report's sched section.
			for _, lt := range locals {
				if lt != nil {
					opts.Stats.Add(stats.CtrTrieNodes, int64(lt.NumInternalNodes()))
				}
			}
		}
		for _, g := range groups {
			for _, e := range g.entries {
				if !e.Mark {
					candidates = append(candidates, e.CEX)
				}
			}
		}
		bst.Candidates += size
		groups, size = mergeShards(locals, b)
		bst.Fresh += int64(size)
	}
	bst.EPPP = len(candidates)
	bst.BuildTime = time.Since(start)
	recordBuild(opts.Stats, &bst)
	return &EPPPSet{N: n, Candidates: candidates, Stats: bst}, nil
}

// buildEPPPHashGroupedParallel parallelizes the hash-grouped ablation
// variant the same way: groups are sharded over workers, each worker
// unifies into shard-local structure maps, and a serial reduction
// dedups across shards. Group order is fixed by sorting structure keys,
// so unlike the serial map-iteration variant the output order here is
// deterministic; the candidate set is identical either way.
func buildEPPPHashGroupedParallel(f *bfunc.Func, opts Options) (*EPPPSet, error) {
	defer opts.Stats.Phase(stats.PhaseEPPP)()
	start := time.Now()
	n := f.N()
	workers := opts.workers()
	b := newBudget(opts)
	bst := BuildStats{}

	// key is the entry's Key (its first 8·len(Factors) bytes are the
	// structure key), kept because the reduction regroups by both and a
	// CEX builds its keys on demand.
	type hentry struct {
		cex  *pcube.CEX
		key  string
		mark bool
	}
	type hgroup struct {
		skey    string
		entries []*hentry
	}

	sortGroups := func(gs []hgroup) {
		sort.Slice(gs, func(i, j int) bool { return gs[i].skey < gs[j].skey })
	}

	var cur []hgroup
	curLen := 0
	{
		bySkey := map[string][]*hentry{}
		var seen keySet
		for _, p := range f.Care() {
			c := pcube.FromPoint(n, p)
			if k, fresh := seen.add(c.Factors); fresh {
				skey := k[:8*len(c.Factors)]
				bySkey[skey] = append(bySkey[skey], &hentry{cex: c, key: k})
				curLen++
			}
		}
		cur = make([]hgroup, 0, len(bySkey))
		for k, es := range bySkey {
			cur = append(cur, hgroup{k, es})
		}
		sortGroups(cur)
	}
	if !b.spend(curLen) {
		return nil, b.failure()
	}

	var candidates []*pcube.CEX
	for level := 0; curLen > 0; level++ {
		if err := opts.ctxErr(); err != nil {
			return nil, err
		}
		bst.LevelSizes = append(bst.LevelSizes, curLen)
		bst.Groups = append(bst.Groups, len(cur))

		// Contiguous group shards, weighted by pair count.
		var total int64
		for _, g := range cur {
			m := int64(len(g.entries))
			total += m * (m - 1) / 2
		}
		w := workers
		if w > len(cur) {
			w = len(cur)
		}
		bounds := []int{0}
		acc := int64(0)
		for i, g := range cur {
			m := int64(len(g.entries))
			acc += m * (m - 1) / 2
			if len(bounds) < w && acc >= total/int64(w) && i+1 < len(cur) {
				bounds = append(bounds, i+1)
				acc = 0
			}
		}
		bounds = append(bounds, len(cur))

		type shardOut struct {
			fresh []*hentry // shard-fresh unions in generation order
		}
		outs := make([]shardOut, len(bounds)-1)
		var over atomic.Bool
		var wg sync.WaitGroup
		for s := 0; s < len(bounds)-1; s++ {
			wg.Add(1)
			go func(s int) {
				defer wg.Done()
				opts.Stats.Do(stats.PhaseEPPP, func() {
					var count int64
					defer func() { atomic.AddInt64(&bst.Unions, count) }()
					var seen keySet
					var buf []pcube.Factor
					for _, g := range cur[bounds[s]:bounds[s+1]] {
						if over.Load() {
							return
						}
						es := g.entries
						for i := 0; i < len(es); i++ {
							for j := i + 1; j < len(es); j++ {
								fs, canon, _ := pcube.UnionInto(buf, es[i].cex, es[j].cex)
								buf = fs
								count++
								h := opts.Cost.ofFactors(fs)
								if h <= opts.Cost.of(es[i].cex) {
									es[i].mark = true
								}
								if h <= opts.Cost.of(es[j].cex) {
									es[j].mark = true
								}
								if k, fresh := seen.add(fs); fresh {
									c := pcube.NewCEX(n, canon, slices.Clone(fs))
									outs[s].fresh = append(outs[s].fresh, &hentry{cex: c, key: k})
									if !b.spend(1) {
										over.Store(true)
										return
									}
								}
							}
						}
					}
				})
			}(s)
		}
		wg.Wait()
		if over.Load() {
			return nil, b.failure()
		}

		for _, g := range cur {
			for _, e := range g.entries {
				if !e.mark {
					candidates = append(candidates, e.cex)
				}
			}
		}
		bst.Candidates += curLen

		// Reduction: dedup across shards in shard order, regroup by
		// structure, restore the deterministic group order.
		seen := map[string]bool{}
		bySkey := map[string][]*hentry{}
		nextLen := 0
		for _, out := range outs {
			for _, e := range out.fresh {
				if seen[e.key] {
					b.refund(1)
					continue
				}
				seen[e.key] = true
				skey := e.key[:8*len(e.cex.Factors)]
				bySkey[skey] = append(bySkey[skey], e)
				nextLen++
			}
		}
		next := make([]hgroup, 0, len(bySkey))
		for k, es := range bySkey {
			next = append(next, hgroup{k, es})
		}
		sortGroups(next)
		cur, curLen = next, nextLen
		bst.Fresh += int64(nextLen)
	}
	bst.EPPP = len(candidates)
	bst.BuildTime = time.Since(start)
	recordBuild(opts.Stats, &bst)
	return &EPPPSet{N: n, Candidates: candidates, Stats: bst}, nil
}

// shardSlice splits [0, n) into contiguous order-preserving shards, one
// per worker (shard s covers [n*s/w, n*(s+1)/w)), and runs fn for each
// shard concurrently. With one worker (or n <= 1) fn runs inline. It is
// the shared fan-out primitive for embarrassingly parallel per-item
// passes whose outputs are concatenated back in shard order — e.g. the
// covering-column construction of SelectCover and MinimizeMulti.
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
