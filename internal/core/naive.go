package core

import (
	"slices"
	"time"

	"repro/internal/bfunc"
	"repro/internal/pcube"
	"repro/internal/stats"
)

// BuildEPPPNaive constructs the EPPP set with the original
// Quine–McCluskey-like algorithm of Luccio–Pagli [5], which the paper's
// Table 2 uses as the baseline: at every step, each pair of
// pseudoproducts generated in the previous step is compared — the
// structure test is paid |X^i|(|X^i|−1)/2 times — and the pairs that
// match are unified. The retained (extended prime) pseudoproducts are
// identical to BuildEPPP's; only the work differs.
func BuildEPPPNaive(f *bfunc.Func, opts Options) (*EPPPSet, error) {
	defer opts.Stats.Phase(stats.PhaseEPPPNaive)()
	start := time.Now()
	n := f.N()
	b := newBudget(opts)
	bst := BuildStats{}

	type entry struct {
		cex  *pcube.CEX
		mark bool
	}
	var cur []*entry
	var seen keySet
	for _, p := range f.Care() {
		c := pcube.FromPoint(n, p)
		if seen.add(c.Factors) {
			cur = append(cur, &entry{cex: c})
		}
	}
	if !b.spend(len(cur)) {
		return nil, b.failure()
	}

	// Unions are computed into scratch and probed by key, allocating
	// only for fresh results — the same allocation profile as the trie
	// engine, so Table 2 compares the algorithms, not their allocators.
	var buf []pcube.Factor
	var candidates []*pcube.CEX
	for level := 0; len(cur) > 0; level++ {
		if err := opts.ctxErr(); err != nil {
			return nil, err
		}
		bst.LevelSizes = append(bst.LevelSizes, len(cur))
		var next []*entry
		var nextSeen keySet
		for i := 0; i < len(cur); i++ {
			for j := i + 1; j < len(cur); j++ {
				// The baseline pays a comparison for every pair; most
				// fail the structure test.
				bst.Comparisons++
				if !cur[i].cex.SameStructure(cur[j].cex) {
					continue
				}
				fs, canon, _ := pcube.UnionInto(buf, cur[i].cex, cur[j].cex)
				buf = fs
				bst.Unions++
				h := opts.Cost.ofFactors(fs)
				if h <= opts.Cost.of(cur[i].cex) {
					cur[i].mark = true
				}
				if h <= opts.Cost.of(cur[j].cex) {
					cur[j].mark = true
				}
				if nextSeen.add(fs) {
					next = append(next, &entry{cex: pcube.NewCEX(n, canon, slices.Clone(fs))})
					bst.Fresh++
					if !b.spend(1) {
						return nil, b.failure()
					}
				}
			}
			// The quadratic pair loop dominates; check the clock and
			// the context even when no unions fire so oversized levels
			// still time out.
			if b.expired() {
				return nil, ErrBudget
			}
			if err := opts.ctxErr(); err != nil {
				return nil, err
			}
		}
		for _, e := range cur {
			if !e.mark {
				candidates = append(candidates, e.cex)
			}
		}
		bst.Candidates += len(cur)
		cur = next
	}
	bst.EPPP = len(candidates)
	bst.BuildTime = time.Since(start)
	recordBuild(opts.Stats, &bst)
	return &EPPPSet{N: n, Candidates: candidates, Stats: bst}, nil
}

// keySet deduplicates pseudoproducts held as factors by their Key
// bytes, for the baseline, which groups without a partition trie. The
// probe reuses one buffer, so a repeat costs no allocation; only a new
// key is materialized as a string.
type keySet struct {
	seen map[string]bool
	buf  []byte
}

// add reports whether fs is new to the set, and records it.
func (s *keySet) add(fs []pcube.Factor) bool {
	s.buf = pcube.AppendKey(s.buf[:0], fs)
	if s.seen[string(s.buf)] {
		return false
	}
	if s.seen == nil {
		s.seen = map[string]bool{}
	}
	s.seen[string(s.buf)] = true
	return true
}
