package core

import (
	"slices"
	"sync"
	"time"

	"repro/internal/bfunc"
	"repro/internal/bitvec"
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
// computes a union's structure (pcube.UnionMasks) and walks the
// next-level trie to its group only on a group's first pair with each
// δ. Every pair takes the discard rule from the memoized cost, derives
// the union's complement vector with bit operations and probes the
// group handle with it; a fresh union is filed as that vector alone.
type unifier struct {
	cost   CostKind
	b      *budget
	tries  [2]*ptrie.Trie // the level pair of BuildEPPP, the warm capture and a resume
	buf    []uint64       // pcube.UnionMasks scratch
	memo   unionMemo[ptrie.Group]
	cvs    []uint64 // the group's complement vectors, in member order
	marks  []int32  // per member, how many partners' unions discard it
	unions int64    // union operations performed
	fresh  int64    // unions fresh in their destination trie
	walks  int64    // next-level trie walks: one per group and distinct δ
}

// unifierPool keeps unifiers, with their grown scratch, memo and level
// tries, between builds. Grown afresh, the scratch and memo cost each
// build about 20 allocations, enough to make builds of 4-variable
// functions slower than without the memo; the tries' arrays are most of
// the bytes a build would otherwise allocate.
var unifierPool = sync.Pool{New: func() any { return new(unifier) }}

// maxPooledTrieBytes caps the level arrays a pooled unifier keeps. The
// largest exact-cold build grows its two tries to 3.4 MB; a build near
// the MaxCandidates cap grows them to hundreds of MB, which the pool
// drops instead of holding between builds.
const maxPooledTrieBytes = 16 << 20

// newUnifier takes a unifier from the pool for one build.
func newUnifier(cost CostKind, b *budget) *unifier {
	u := unifierPool.Get().(*unifier)
	u.cost, u.b = cost, b
	u.unions, u.fresh, u.walks = 0, 0, 0
	return u
}

// levels returns u's two level tries, empty and over B^n. Step 2 of
// Algorithm 2 reads two levels at a time, so they take turns: level
// k+1 fills one while level k is read from the other, and a level's
// trie is reset for level k+2 once its candidates are copied out.
func (u *unifier) levels(n int) (*ptrie.Trie, *ptrie.Trie) {
	for i, t := range u.tries {
		if t == nil {
			u.tries[i] = ptrie.New(n)
		} else {
			t.Reset(n)
		}
	}
	return u.tries[0], u.tries[1]
}

// release returns u to the pool; its memo drops the build's trie
// handles, and tries grown past maxPooledTrieBytes are dropped.
func (u *unifier) release() {
	u.memo.reset()
	u.b = nil
	if t := u.tries; t[0] != nil && t[0].Bytes()+t[1].Bytes() > maxPooledTrieBytes {
		u.tries = [2]*ptrie.Trie{}
	}
	unifierPool.Put(u)
}

// group unifies every pair of members of the structure group g, filing
// each union in next. On return u.cvs holds g's complement vectors in
// member order and u.marks, aligned with them, how many partners'
// unions cost no more than the member (Algorithm 2's discard rule: a
// member is a candidate iff its count is 0). Members of one group share
// their structure and so their cost. It charges the budget for every
// fresh union and reports false, stopping early, when the budget is
// exhausted.
func (u *unifier) group(g ptrie.Group, next *ptrie.Trie) bool {
	u.cvs = g.CompVectors(u.cvs[:0])
	u.marks = slices.Grow(u.marks[:0], len(u.cvs))[:len(u.cvs)]
	clear(u.marks)
	canon, masks := g.Canon(), g.Masks()
	cost := u.cost.ofMasks(masks)
	u.memo.reset()
	for i, cva := range u.cvs {
		for j := i + 1; j < len(u.cvs); j++ {
			// Same-group members share a structure and differ in their
			// complement vectors, so the union always exists.
			cvb := u.cvs[j]
			u.unions++
			d := cva ^ cvb
			x := u.memo.get(d)
			if x < 0 {
				ms, c := pcube.UnionMasks(u.buf, canon, masks, d)
				u.buf = ms
				u.walks++
				x = u.memo.put(d, next.Group(c, ms), u.cost.ofMasks(ms))
			}
			v := &u.memo.vals[x]
			if v.cost <= cost {
				u.marks[i]++
				u.marks[j]++
			}
			cv := pcube.UnionCompVector(cva, cvb)
			if v.next.Find(cv) {
				continue
			}
			v.next.Add(cv)
			u.fresh++
			if !u.b.spend(1) {
				return false
			}
		}
	}
	return true
}

// pointLevel files the points pts of B^n in t as Algorithm 2's level
// 0: one group, of structure x_0·x_1·…·x_{n−1}, whose members are the
// points' complement vectors (pcube.PointCompVector). A build files the
// care points and a resume the points an edit adds to them; either way
// they are distinct, so none needs a duplicate probe.
func pointLevel(t *ptrie.Trie, n int, pts []uint64) {
	if len(pts) == 0 {
		return
	}
	var arr [64]uint64
	masks := arr[:n]
	for i := range masks {
		masks[i] = bitvec.VarMask(n, i)
	}
	g := t.Group(0, masks)
	for _, p := range pts {
		g.Add(pcube.PointCompVector(n, p))
	}
}

// candStore copies a build's candidates out of its level tries into
// storage the returned EPPPSet owns. While a level is unified, keep
// records the members of each group that survive the discard rule;
// flush then materializes them into one exact-size array of CEX
// headers and one of factors, before the level's trie is reset. So a
// set retains its candidates and nothing of the levels they came from.
type candStore struct {
	n      int
	kept   []keptMember // the current level's candidates, in emission order
	levels [][]pcube.CEX
	count  int
}

type keptMember struct {
	g  ptrie.Group
	cv uint64
}

// keep records the members of g (complement vectors cvs) whose discard
// count in marks is 0; nil marks keeps every member.
func (s *candStore) keep(g ptrie.Group, cvs []uint64, marks []int32) {
	for i, cv := range cvs {
		if marks == nil || marks[i] == 0 {
			s.kept = append(s.kept, keptMember{g, cv})
		}
	}
}

// flush materializes the members keep recorded since the last flush.
func (s *candStore) flush() {
	if len(s.kept) == 0 {
		return
	}
	nf := 0
	for _, k := range s.kept {
		nf += len(k.g.Masks())
	}
	hdrs := make([]pcube.CEX, len(s.kept))
	fs := make([]pcube.Factor, 0, nf)
	for i, k := range s.kept {
		lo := len(fs)
		fs = pcube.AppendFactors(fs, k.g.Masks(), k.cv)
		hdrs[i].Init(s.n, k.g.Canon(), fs[lo:len(fs):len(fs)])
	}
	s.levels = append(s.levels, hdrs)
	s.count += len(hdrs)
	s.kept = s.kept[:0]
}

// list returns every flushed candidate in emission order.
func (s *candStore) list() []*pcube.CEX {
	if s.count == 0 {
		return nil
	}
	out := make([]*pcube.CEX, 0, s.count)
	for _, hdrs := range s.levels {
		for i := range hdrs {
			out = append(out, &hdrs[i])
		}
	}
	return out
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

	u := newUnifier(opts.Cost, b)
	defer u.release()
	cur, next := u.levels(n)
	pointLevel(cur, n, f.Care())
	if !b.spend(cur.Len()) {
		return nil, b.failure()
	}
	store := candStore{n: n}
	for level := 0; cur.Len() > 0; level++ {
		if err := opts.ctxErr(); err != nil {
			return nil, err
		}
		bst.LevelSizes = append(bst.LevelSizes, cur.Len())
		bst.Groups = append(bst.Groups, cur.NumGroups())
		if opts.Stats != nil {
			opts.Stats.Add(stats.CtrTrieNodes, int64(cur.NumInternalNodes()))
		}
		next.Reset(n)
		ok := true
		cur.Groups(func(g ptrie.Group) bool {
			if ok = u.group(g, next); ok {
				// Retain the unmarked pseudoproducts of this group.
				store.keep(g, u.cvs, u.marks)
			}
			return ok
		})
		if !ok {
			return nil, b.failure()
		}
		store.flush()
		bst.Candidates += cur.Len()
		cur, next = next, cur
	}
	candidates := store.list()
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
	// vector. Unlike the trie engine, every member is a CEX of its own.
	type entry struct {
		cex  *pcube.CEX
		mark bool
	}
	type group struct {
		canon uint64
		masks []uint64
		es    []*entry
	}
	var key []byte
	groupOf := func(level map[string]*group, canon uint64, fs []pcube.Factor) *group {
		key = pcube.AppendKey(key[:0], fs)
		skey := key[:8*len(fs)]
		g := level[string(skey)]
		if g == nil {
			g = &group{canon: canon, masks: make([]uint64, len(fs))}
			for i, f := range fs {
				g.masks[i] = f.Vars
			}
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
		g := groupOf(cur, c.Canon, c.Factors)
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
			memo.reset()
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
						x = memo.put(d, groupOf(next, canon, fs), opts.Cost.ofFactors(fs))
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
					fs := pcube.AppendFactors(make([]pcube.Factor, 0, len(v.next.masks)), v.next.masks, cv)
					v.next.es = append(v.next.es, &entry{cex: pcube.NewCEX(n, v.next.canon, fs)})
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
