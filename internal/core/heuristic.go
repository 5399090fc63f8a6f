package core

import (
	"fmt"
	"time"

	"repro/internal/bfunc"
	"repro/internal/pcube"
	"repro/internal/ptrie"
	"repro/internal/qm"
	"repro/internal/stats"
)

// Heuristic runs the paper's Algorithm 3, producing the SPP_k form:
//
//  1. the SP prime implicants of f seed n partition tries, one per
//     degree (an implicant with i literals has degree n−i);
//  2. a descendant phase of k steps (0 ≤ k < n) expands, top-down, the
//     pseudoproducts of degree n−i into all their degree-(n−i−1)
//     sub-pseudocubes (Theorem 2), cascading so that k = n−1 descends
//     all the way to single points;
//  3. an ascendant phase re-runs Algorithm 2's union step from the
//     lowest trie upward over the combined pool;
//  4. the covering step selects the SPP_k form.
//
// With k = n−1 the pool reaches every care minterm, so the ascendant
// phase regenerates the full EPPP set and SPP_{n−1} is the exact SPP
// form; with k = 0 the descendant phase is skipped and only unions of
// the prime implicants themselves (and their unions, recursively) are
// available — the paper's fast upper bound.
//
// Every phase before covering is serial, and MaxCandidates caps them
// exactly, as in BuildEPPP.
func Heuristic(f *bfunc.Func, k int, opts Options) (*Result, error) {
	if k < 0 || k >= f.N() {
		return nil, fmt.Errorf("core: heuristic parameter k=%d out of range [0,%d)", k, f.N())
	}
	start := time.Now()
	n := f.N()
	b := newBudget(opts)
	rec := opts.Stats
	bst := BuildStats{LevelSizes: make([]int, n+1), Groups: make([]int, n+1)}

	if f.IsConstantOne() {
		one := &pcube.CEX{N: n, Canon: allMask(n)}
		return &Result{
			Form:         Form{N: n, Terms: []*pcube.CEX{one}},
			Build:        BuildStats{BuildTime: time.Since(start)},
			CoverOptimal: true,
		}, nil
	}

	// Step 1: seed the tries with the SP prime implicants.
	stop := rec.Phase(stats.PhaseSeed)
	tries := make([]*ptrie.Trie, n+1)
	for d := range tries {
		tries[d] = ptrie.New(n)
	}
	total := 0
	for _, pi := range qm.Primes(f) {
		c := pcube.FromCube(n, pi)
		if _, fresh := tries[c.Degree()].Insert(c); fresh {
			total++
		}
	}
	stop()
	if !b.spend(total) {
		return nil, b.failure()
	}

	// Step 2: descendant phase. Step i expands the highest not-yet-
	// processed non-empty trie into the one below; since the next step
	// processes the trie just filled, expansion cascades k levels deep.
	// (Starting from the top *non-empty* level rather than degree n−1
	// makes every step productive — real prime implicants rarely reach
	// the top degrees — which is what gives the paper's Figure 3 its
	// decline from k = 1 onward.)
	top := -1
	for d := n; d >= 0; d-- {
		if tries[d].Len() > 0 {
			top = d
			break
		}
	}
	stop = rec.Phase(stats.PhaseDescend)
	for i := 1; i <= k && top-i+1 >= 1; i++ {
		if err := opts.ctxErr(); err != nil {
			stop()
			return nil, err
		}
		d := top - i + 1
		overBudget := false
		tries[d].Entries(func(e *ptrie.Entry) bool {
			e.CEX.SubPseudocubes(func(s *pcube.CEX) bool {
				if _, fresh := tries[d-1].Insert(s); fresh {
					bst.Fresh++
					if !b.spend(1) {
						overBudget = true
						return false
					}
				}
				return true
			})
			return !overBudget
		})
		if overBudget {
			stop()
			return nil, b.failure()
		}
	}
	stop()

	// Step 3: ascendant phase (Algorithm 2 step 2 over the merged pool).
	stop = rec.Phase(stats.PhaseAscend)
	u := unifier{cost: opts.Cost, b: b}
	var candidates []*pcube.CEX
	for d := 0; d < n; d++ {
		if err := opts.ctxErr(); err != nil {
			stop()
			return nil, err
		}
		cur := tries[d]
		if cur.Len() == 0 {
			continue
		}
		bst.LevelSizes[d] = cur.Len()
		bst.Groups[d] = cur.NumGroups()
		if rec != nil {
			rec.Add(stats.CtrTrieNodes, int64(cur.NumInternalNodes()))
		}
		ok := true
		cur.Groups(func(entries []*ptrie.Entry) bool {
			ok = u.group(entries, tries[d+1], func(k int) { entries[k].Mark = true })
			return ok
		})
		if !ok {
			stop()
			return nil, b.failure()
		}
		cur.Entries(func(e *ptrie.Entry) bool {
			if !e.Mark {
				candidates = append(candidates, e.CEX)
			}
			return true
		})
		bst.Candidates += cur.Len()
	}
	// Degree-n trie: only the constant-one pseudocube could live there,
	// and the constant-one case returned early; nothing can be stored
	// at degree n here, but keep the accounting honest.
	if tries[n].Len() > 0 {
		tries[n].Entries(func(e *ptrie.Entry) bool {
			candidates = append(candidates, e.CEX)
			return true
		})
		bst.Candidates += tries[n].Len()
	}
	stop()
	bst.Unions += u.unions
	bst.Fresh += u.fresh
	bst.EPPP = len(candidates)
	bst.BuildTime = time.Since(start)
	recordBuild(rec, &bst)

	set := &EPPPSet{N: n, Candidates: candidates, Stats: bst}
	form, coverTime, optimal, err := SelectCover(f, set, opts)
	if err != nil {
		return nil, err
	}
	return &Result{Form: form, Build: bst, CoverTime: coverTime, CoverOptimal: optimal}, nil
}
