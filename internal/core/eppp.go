package core

import (
	"sync"
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
// engine: BuildEPPP, the heuristic's ascent and the warm capture. A
// degree-(m+1) pseudocube is the union of up to 2^(m+1)−1
// same-structure pairs, and everything about a union but its
// complement vector follows from the pair's δ (unionMemo). So the loop
// computes a union (pcube.UnionInto) and walks the next-level trie to
// its group only on a group's first pair with each δ. Every pair takes
// the discard rule from the memoized cost, derives the union's
// complement vector with bit operations and probes the group handle
// with it; a CEX is built only when the union is fresh there, about a
// third of the unions on the Table 1 functions.
type unifier struct {
	cost   CostKind
	b      *budget
	buf    []pcube.Factor
	memo   unionMemo[ptrie.Group]
	cvs    []uint64 // the group's complement vectors, in entry order
	costs  []int    // the group's costs, in entry order
	unions int64    // union operations performed
	fresh  int64    // unions fresh in their destination trie
	walks  int64    // next-level trie walks: one per group and distinct δ
}

// unifierPool keeps unifiers, with their grown scratch and memo,
// between builds. Grown afresh, they cost each build about 20
// allocations, enough to make builds of 4-variable functions slower
// than without the memo.
var unifierPool = sync.Pool{New: func() any { return new(unifier) }}

// newUnifier takes a unifier from the pool for one build.
func newUnifier(cost CostKind, b *budget) *unifier {
	u := unifierPool.Get().(*unifier)
	u.cost, u.b = cost, b
	u.unions, u.fresh, u.walks = 0, 0, 0
	return u
}

// release returns u to the pool; its memo drops the build's trie handles.
func (u *unifier) release() {
	u.memo.reset(0)
	u.b = nil
	unifierPool.Put(u)
}

// group unifies every pair es[i], es[j], i < j, of one structure
// group, inserting each union into next. mark(k) is called once per
// pair whose union costs no more than es[k] (the discard rule). It
// charges the budget for every fresh union and reports false, stopping
// early, when the budget is exhausted.
func (u *unifier) group(es []*ptrie.Entry, next *ptrie.Trie, mark func(k int)) bool {
	u.cvs, u.costs = u.cvs[:0], u.costs[:0]
	for _, e := range es {
		u.cvs = append(u.cvs, e.CEX.CompVector())
		u.costs = append(u.costs, u.cost.of(e.CEX))
	}
	u.memo.reset(len(es[0].CEX.Factors) - 1)
	for i, cva := range u.cvs {
		for j := i + 1; j < len(es); j++ {
			// Same-group entries share a structure and differ in their
			// complement vectors, so the union always exists.
			cvb := u.cvs[j]
			u.unions++
			d := cva ^ cvb
			x := u.memo.get(d)
			if x < 0 {
				fs, canon, _ := pcube.UnionInto(u.buf, es[i].CEX, es[j].CEX)
				u.buf = fs
				u.walks++
				x = u.memo.put(d, next.Group(canon, fs), canon, u.cost.ofFactors(fs), fs)
			}
			v := &u.memo.vals[x]
			if v.cost <= u.costs[i] {
				mark(i)
			}
			if v.cost <= u.costs[j] {
				mark(j)
			}
			cv := pcube.UnionCompVector(cva, cvb)
			if v.next.Find(cv) != nil {
				continue
			}
			v.next.Add(pcube.NewCEX(es[i].CEX.N, v.canon, u.memo.factors(x, cv)))
			u.fresh++
			if !u.b.spend(1) {
				return false
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

	u := newUnifier(opts.Cost, b)
	defer u.release()
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
	opts.Stats.Add(stats.CtrTrieWalks, u.walks)
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

	// The pair loop is the trie engine's (unifier.group), with the
	// structure map in place of the trie: the map is probed once per
	// group and δ, and a group tells its members apart by complement
	// vector, so the two variants differ only in the grouping index.
	type entry struct {
		cex  *pcube.CEX
		mark bool
	}
	type group struct{ es []*entry }
	var key []byte
	groupOf := func(level map[string]*group, fs []pcube.Factor) *group {
		key = pcube.AppendKey(key[:0], fs)
		skey := key[:8*len(fs)]
		g := level[string(skey)]
		if g == nil {
			g = &group{}
			level[string(skey)] = g
		}
		return g
	}
	has := func(g *group, cv uint64) bool {
		for _, e := range g.es {
			if e.cex.CompVector() == cv {
				return true
			}
		}
		return false
	}
	// Care points are distinct, and all of them share the degree-0
	// structure.
	care := f.Care()
	cur := map[string]*group{}
	for _, p := range care {
		c := pcube.FromPoint(n, p)
		g := groupOf(cur, c.Factors)
		g.es = append(g.es, &entry{cex: c})
	}
	curLen := len(care)
	if !b.spend(curLen) {
		return nil, b.failure()
	}

	var buf []pcube.Factor
	var memo unionMemo[*group]
	var candidates []*pcube.CEX
	for level := 0; curLen > 0; level++ {
		if err := opts.ctxErr(); err != nil {
			return nil, err
		}
		bst.LevelSizes = append(bst.LevelSizes, curLen)
		bst.Groups = append(bst.Groups, len(cur))
		next := map[string]*group{}
		nextLen := 0
		for _, g := range cur {
			es := g.es
			memo.reset(len(es[0].cex.Factors) - 1)
			for i := range es {
				cva, ca := es[i].cex.CompVector(), opts.Cost.of(es[i].cex)
				for j := i + 1; j < len(es); j++ {
					cvb := es[j].cex.CompVector()
					bst.Unions++
					d := cva ^ cvb
					x := memo.get(d)
					if x < 0 {
						fs, canon, _ := pcube.UnionInto(buf, es[i].cex, es[j].cex)
						buf = fs
						x = memo.put(d, groupOf(next, fs), canon, opts.Cost.ofFactors(fs), fs)
					}
					v := &memo.vals[x]
					if v.cost <= ca {
						es[i].mark = true
					}
					if v.cost <= opts.Cost.of(es[j].cex) {
						es[j].mark = true
					}
					cv := pcube.UnionCompVector(cva, cvb)
					if has(v.next, cv) {
						continue
					}
					v.next.es = append(v.next.es, &entry{cex: pcube.NewCEX(n, v.canon, memo.factors(x, cv))})
					nextLen++
					if !b.spend(1) {
						return nil, b.failure()
					}
				}
			}
		}
		for _, g := range cur {
			for _, e := range g.es {
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
