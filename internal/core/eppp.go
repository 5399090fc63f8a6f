package core

import (
	"slices"
	"time"

	"repro/internal/bfunc"
	"repro/internal/pcube"
	"repro/internal/ptrie"
	"repro/internal/stats"
)

// BuildStats records the work performed during EPPP construction; the
// paper's Table 2 compares this phase across the two algorithms, and the
// comparison counter makes the speedup machine-independent.
type BuildStats struct {
	// Candidates is the number of distinct pseudoproducts generated
	// across all degrees (the size of the search space materialized).
	Candidates int
	// EPPP is the number of retained extended prime pseudoproducts.
	EPPP int
	// Unions is the number of Algorithm-1 union operations performed.
	Unions int64
	// Fresh is the number of union successes: distinct pseudoproducts a
	// union (or heuristic descent) step admitted to the next level.
	Fresh int64
	// Comparisons is the number of structure comparisons performed.
	// Algorithm 2 performs none (grouping makes every considered pair
	// unify); the naive baseline performs |X|(|X|−1)/2 per step.
	Comparisons int64
	// LevelSizes[k] is the number of distinct pseudoproducts of degree
	// k that were generated.
	LevelSizes []int
	// Groups[k] is the number of structure groups at degree k (the
	// paper's partition X^i = X^i_1 ∪ … ∪ X^i_k).
	Groups []int
	// BuildTime is the wall-clock duration of the construction.
	BuildTime time.Duration
}

// recordBuild publishes the deterministic construction statistics (and
// the per-degree layer sizes) to the recorder. Degree and level
// coincide for EPPP construction — level-k pseudoproducts have degree k
// — so BuildStats.LevelSizes indexes the recorder's layers directly.
func recordBuild(r *stats.Recorder, b *BuildStats) {
	if r == nil {
		return
	}
	r.Add(stats.CtrCandidates, int64(b.Candidates))
	r.Add(stats.CtrEPPP, int64(b.EPPP))
	r.Add(stats.CtrUnions, b.Unions)
	r.Add(stats.CtrFresh, b.Fresh)
	r.Add(stats.CtrComparisons, b.Comparisons)
	for d, size := range b.LevelSizes {
		groups := 0
		if d < len(b.Groups) {
			groups = b.Groups[d]
		}
		r.Layer(d, size, groups)
	}
}

// EPPPSet is the output of EPPP construction: the covering candidates
// (Definition 3 superset) for the final selection step.
type EPPPSet struct {
	N          int
	Candidates []*pcube.CEX
	Stats      BuildStats
}

// unifier runs Algorithm 2's step-2 pair loop for every partition-trie
// engine: BuildEPPP, the heuristic's ascent and the warm capture. Each
// union is computed into one reused scratch slice (pcube.UnionInto),
// the discard rule takes its cost from the scratch, and the scratch is
// probed against the next-level trie (ptrie.InsertFactors). A CEX is
// allocated only when the union is fresh there — about a third of the
// unions on the Table 1 functions, because a degree-(m+1) pseudocube is
// the union of up to 2^(m+1)−1 same-structure pairs.
type unifier struct {
	cost   CostKind
	b      *budget
	buf    []pcube.Factor
	unions int64 // union operations performed
	fresh  int64 // unions fresh in their destination trie
}

// group unifies every pair es[i], es[j], i < j, of one structure
// group, inserting each union into next. mark(k) is called once per
// pair whose union costs no more than es[k] (the discard rule). It
// charges the budget for every fresh union and reports false, stopping
// early, when the budget is exhausted.
func (u *unifier) group(es []*ptrie.Entry, next *ptrie.Trie, mark func(k int)) bool {
	for i := range es {
		ci := u.cost.of(es[i].CEX)
		for j := i + 1; j < len(es); j++ {
			// Same-group entries share a structure and differ in their
			// complement vectors, so the union always exists.
			fs, canon, _ := pcube.UnionInto(u.buf, es[i].CEX, es[j].CEX)
			u.buf = fs
			u.unions++
			h := u.cost.ofFactors(fs)
			if h <= ci {
				mark(i)
			}
			if h <= u.cost.of(es[j].CEX) {
				mark(j)
			}
			if _, fresh := next.InsertFactors(canon, fs); fresh {
				u.fresh++
				if !u.b.spend(1) {
					return false
				}
			}
		}
	}
	return true
}

// keySet deduplicates pseudoproducts held as factors by their Key
// bytes, for the engines that group without a partition trie. The
// probe reuses one buffer, so a repeat costs no allocation; only a new
// key is materialized as a string.
type keySet struct {
	seen map[string]bool
	buf  []byte
}

// add reports whether fs is new to the set and, if so, returns its Key,
// whose first 8·len(fs) bytes are its StructureKey.
func (s *keySet) add(fs []pcube.Factor) (string, bool) {
	s.buf = pcube.AppendKey(s.buf[:0], fs)
	if s.seen[string(s.buf)] {
		return "", false
	}
	if s.seen == nil {
		s.seen = map[string]bool{}
	}
	k := string(s.buf)
	s.seen[k] = true
	return k, true
}

// BuildEPPP constructs the extended prime pseudoproduct set of f with
// the paper's Algorithm 2 (steps 1 and 2): degree-0 pseudoproducts (the
// care minterms) are inserted in a partition trie; at each step all
// leaves sharing a parent — exactly the same-structure pseudoproducts —
// are pairwise unified into the next trie, and a pseudoproduct is
// discarded when some union result costs no more than it does.
//
// It returns ErrBudget if Options limits are exceeded, like the paper's
// two-day timeout stars, and the context's error if Options.Ctx is
// cancelled (polled at every level boundary and, coarsely, inside the
// level expansion via the generation budget). MaxCandidates is an exact
// cap: a limit equal to the build's Stats.Candidates succeeds, one less
// fails.
//
// The build is serial; Options.Workers does not affect it.
func BuildEPPP(f *bfunc.Func, opts Options) (*EPPPSet, error) {
	defer opts.Stats.Phase(stats.PhaseEPPP)()
	start := time.Now()
	n := f.N()
	b := newBudget(opts)
	bst := BuildStats{}

	cur := ptrie.New(n)
	for _, p := range f.Care() {
		cur.Insert(pcube.FromPoint(n, p))
	}
	if !b.spend(cur.Len()) {
		return nil, b.failure()
	}

	u := unifier{cost: opts.Cost, b: b}
	var candidates []*pcube.CEX
	for level := 0; cur.Len() > 0; level++ {
		if err := opts.ctxErr(); err != nil {
			return nil, err
		}
		bst.LevelSizes = append(bst.LevelSizes, cur.Len())
		bst.Groups = append(bst.Groups, cur.NumGroups())
		if opts.Stats != nil {
			opts.Stats.Add(stats.CtrTrieNodes, int64(cur.NumInternalNodes()))
		}
		next := ptrie.New(n)
		ok := true
		cur.Groups(func(entries []*ptrie.Entry) bool {
			ok = u.group(entries, next, func(k int) { entries[k].Mark = true })
			return ok
		})
		if !ok {
			return nil, b.failure()
		}
		// Retain the unmarked pseudoproducts of this level.
		cur.Entries(func(e *ptrie.Entry) bool {
			if !e.Mark {
				candidates = append(candidates, e.CEX)
			}
			return true
		})
		bst.Candidates += cur.Len()
		cur = next
	}
	bst.Unions, bst.Fresh = u.unions, u.fresh
	bst.EPPP = len(candidates)
	bst.BuildTime = time.Since(start)
	recordBuild(opts.Stats, &bst)
	return &EPPPSet{N: n, Candidates: candidates, Stats: bst}, nil
}

// BuildEPPPHashGrouped is the ablation variant of Algorithm 2 that
// replaces the partition trie with a flat hash map keyed on the
// structure (DESIGN.md ablation 1). The algorithmic behaviour — group by
// structure, unify within groups — is identical, so the resulting EPPP
// set matches BuildEPPP exactly; only the grouping data structure
// differs. Its candidate order follows map iteration and so varies
// from run to run; the candidate set does not.
func BuildEPPPHashGrouped(f *bfunc.Func, opts Options) (*EPPPSet, error) {
	defer opts.Stats.Phase(stats.PhaseEPPP)()
	start := time.Now()
	n := f.N()
	b := newBudget(opts)
	bst := BuildStats{}

	type entry struct {
		cex  *pcube.CEX
		mark bool
	}
	cur := map[string][]*entry{}
	curLen := 0
	var seen keySet
	for _, p := range f.Care() {
		c := pcube.FromPoint(n, p)
		if k, fresh := seen.add(c.Factors); fresh {
			skey := k[:8*len(c.Factors)]
			cur[skey] = append(cur[skey], &entry{cex: c})
			curLen++
		}
	}
	if !b.spend(curLen) {
		return nil, b.failure()
	}

	// Unions are probed by key straight from scratch, like the trie
	// engine's InsertFactors, so the two variants differ only in the
	// grouping index, not in how often they allocate.
	var buf []pcube.Factor
	var candidates []*pcube.CEX
	for level := 0; curLen > 0; level++ {
		if err := opts.ctxErr(); err != nil {
			return nil, err
		}
		bst.LevelSizes = append(bst.LevelSizes, curLen)
		bst.Groups = append(bst.Groups, len(cur))
		next := map[string][]*entry{}
		var nextSeen keySet
		nextLen := 0
		for _, group := range cur {
			for i := 0; i < len(group); i++ {
				for j := i + 1; j < len(group); j++ {
					fs, canon, _ := pcube.UnionInto(buf, group[i].cex, group[j].cex)
					buf = fs
					bst.Unions++
					h := opts.Cost.ofFactors(fs)
					if h <= opts.Cost.of(group[i].cex) {
						group[i].mark = true
					}
					if h <= opts.Cost.of(group[j].cex) {
						group[j].mark = true
					}
					if k, fresh := nextSeen.add(fs); fresh {
						skey := k[:8*len(fs)]
						next[skey] = append(next[skey], &entry{cex: pcube.NewCEX(n, canon, slices.Clone(fs))})
						nextLen++
						if !b.spend(1) {
							return nil, b.failure()
						}
					}
				}
			}
		}
		for _, group := range cur {
			for _, e := range group {
				if !e.mark {
					candidates = append(candidates, e.cex)
				}
			}
		}
		bst.Candidates += curLen
		bst.Fresh += int64(nextLen)
		cur, curLen = next, nextLen
	}
	bst.EPPP = len(candidates)
	bst.BuildTime = time.Since(start)
	recordBuild(opts.Stats, &bst)
	return &EPPPSet{N: n, Candidates: candidates, Stats: bst}, nil
}
