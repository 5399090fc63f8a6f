package core

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/bfunc"
	"repro/internal/cover"
	"repro/internal/pcube"
	"repro/internal/stats"
)

// MultiResult is a jointly minimized multi-output SPP network: a shared
// pool of pseudoproducts and, per output, the terms driving it. Sharing
// is the natural PLA-style extension of the paper's per-output protocol:
// the OR plane fans a pseudoproduct out to any output it is valid for at
// no extra literal cost, so shared terms are paid once.
type MultiResult struct {
	N int
	// Terms is the shared pseudoproduct pool.
	Terms []*pcube.CEX
	// Drives[o] lists indices into Terms selected for output o.
	Drives [][]int
	// SharedLiterals is the joint cost: each term's literals counted
	// once regardless of fanout.
	SharedLiterals int
	// Build and CoverTime aggregate the phase statistics.
	Build     BuildStats
	CoverTime time.Duration
}

// Form materializes output o as a standalone SPP form.
func (r *MultiResult) Form(o int) Form {
	f := Form{N: r.N}
	for _, t := range r.Drives[o] {
		f.Terms = append(f.Terms, r.Terms[t])
	}
	return f
}

// SeparateLiterals sums the per-output literal counts without sharing
// (what stacking the single-output results would cost).
func (r *MultiResult) SeparateLiterals() int {
	total := 0
	for o := range r.Drives {
		for _, t := range r.Drives[o] {
			total += r.Terms[t].Literals()
		}
	}
	return total
}

// MinimizeMulti jointly minimizes the outputs of m with shared
// pseudoproducts: the candidate pool is the union of the per-output
// EPPP sets; the covering instance has one row per (output, ON minterm)
// and one column per candidate, covering the rows of every output the
// candidate is a pseudoproduct of (its points within that output's care
// set). Column costs are literal counts paid once — the covering solver
// does the sharing automatically.
//
// With Options.Workers != 1 the per-output EPPP builds run
// concurrently, each build serial; the pool merge and all later phases
// are performed in output order, so the result is identical to the
// Workers=1 run.
func MinimizeMulti(m *bfunc.Multi, opts Options) (*MultiResult, error) {
	n := m.Inputs
	res := &MultiResult{N: n, Drives: make([][]int, m.NOutputs())}

	// Per-output EPPP sets, built in parallel, then dedup'd into a
	// shared pool serially in output order (determinism).
	sets := make([]*EPPPSet, m.NOutputs())
	errs := make([]error, m.NOutputs())
	if workers := min(opts.workers(), m.NOutputs()); workers > 1 {
		jobs := make(chan int)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				opts.Stats.Do(stats.PhaseEPPP, func() {
					for o := range jobs {
						sets[o], errs[o] = BuildEPPP(m.Output(o), opts)
					}
				})
			}()
		}
		for o := 0; o < m.NOutputs(); o++ {
			jobs <- o
		}
		close(jobs)
		wg.Wait()
	} else {
		for o := 0; o < m.NOutputs(); o++ {
			sets[o], errs[o] = BuildEPPP(m.Output(o), opts)
		}
	}

	pool := map[string]*pcube.CEX{}
	var keys []string
	for o := 0; o < m.NOutputs(); o++ {
		if errs[o] != nil {
			return nil, fmt.Errorf("core: output %d: %w", o, errs[o])
		}
		set := sets[o]
		res.Build.Candidates += set.Stats.Candidates
		res.Build.Unions += set.Stats.Unions
		res.Build.Fresh += set.Stats.Fresh
		res.Build.BuildTime += set.Stats.BuildTime
		for _, c := range set.Candidates {
			k := c.Key()
			if _, ok := pool[k]; !ok {
				pool[k] = c
				keys = append(keys, k)
			}
		}
	}
	sort.Strings(keys) // deterministic column order
	res.Build.EPPP = len(keys)

	// Rows: (output, ON minterm). Each output's ON list is indexed by a
	// dense point index at a base offset, replacing the (output, point)
	// hash map of the seed implementation.
	start := time.Now()
	nOut := m.NOutputs()
	outFns := make([]*bfunc.Func, nOut)
	base := make([]int, nOut)
	onIdx := make([]*pointIndex, nOut)
	nRows := 0
	for o := 0; o < nOut; o++ {
		outFns[o] = m.Output(o)
		base[o] = nRows
		nRows += outFns[o].OnCount()
		onIdx[o] = newPointIndex(n, outFns[o].On())
	}
	if nRows == 0 {
		return res, nil
	}

	// One column per pooled candidate, covering the ON rows of every
	// output whose care set contains the whole pseudocube, in pool
	// order. Points are enumerated sorted, so the row lists come out
	// sorted without a final sort.
	stopCols := opts.Stats.Phase(stats.PhaseCoverColumns)
	in := &cover.Instance{NRows: nRows}
	var cols []*pcube.CEX
	opts.Stats.Do(stats.PhaseCoverColumns, func() {
		var rows []int
		for _, k := range keys {
			c := pool[k]
			pts := c.SortedPoints()
			rows = rows[:0]
			for o := 0; o < nOut; o++ {
				f := outFns[o]
				valid := true
				for _, p := range pts {
					if !f.IsCare(p) {
						valid = false
						break
					}
				}
				if !valid {
					continue
				}
				for _, p := range pts {
					if r := onIdx[o].lookup(p); r >= 0 {
						rows = append(rows, base[o]+r)
					}
				}
			}
			if len(rows) == 0 {
				continue
			}
			cost := opts.Cost.of(c)
			if cost == 0 {
				cost = 1 // constant-one candidate on a non-constant instance
			}
			in.Cols = append(in.Cols, cover.Column{Cost: cost, Rows: append([]int(nil), rows...)})
			cols = append(cols, c)
		}
	})
	if opts.Stats != nil {
		opts.Stats.Add(stats.CtrCoverColumns, int64(len(in.Cols)))
		opts.Stats.Add(stats.CtrCoverDCOnly, int64(len(keys)-len(in.Cols)))
	}
	stopCols()
	if err := in.Validate(); err != nil {
		return nil, fmt.Errorf("core: joint candidate pool does not cover: %v", err)
	}
	var cres cover.Result
	if opts.CoverExact {
		cres = cover.Exact(in, cover.ExactOptions{
			MaxNodes: opts.CoverMaxNodes,
			Workers:  opts.coverWorkers(),
			Stats:    opts.Stats,
		})
	} else {
		cres = cover.GreedyStats(in, opts.Stats)
	}
	res.CoverTime = time.Since(start)

	// Materialize: each picked term drives every output where it is
	// valid and needed (attach wherever valid — DC coverage is free and
	// OFF violations are impossible within the care set; to keep the
	// per-output forms lean, attach only where the term covers at least
	// one of that output's ON minterms).
	for _, j := range cres.Picked {
		c := cols[j]
		ti := len(res.Terms)
		res.Terms = append(res.Terms, c)
		res.SharedLiterals += c.Literals()
		pts := c.Points()
		for o := 0; o < m.NOutputs(); o++ {
			f := m.Output(o)
			valid, useful := true, false
			for _, p := range pts {
				if !f.IsCare(p) {
					valid = false
					break
				}
				if f.IsOn(p) {
					useful = true
				}
			}
			if valid && useful {
				res.Drives[o] = append(res.Drives[o], ti)
			}
		}
	}
	res.Terms = ownTerms(res.Terms)
	return res, nil
}
