// Package core implements the DAC'01 paper's primary contribution: SPP
// (Sum of Pseudoproducts) minimization of Boolean functions. It provides
//
//   - construction of the extended prime pseudoproduct (EPPP) set with
//     the partition-trie exact method (Algorithm 2),
//   - the quadratic pairwise baseline of Luccio–Pagli [5] for the
//     Table 2 comparison,
//   - the incremental heuristic producing SPP_k forms (Algorithm 3),
//   - the final set-covering selection, and
//   - SPP forms with evaluation/verification against the source function.
//
// All algorithms operate on single-output functions; multi-output
// benchmarks are minimized one output at a time, as in the paper.
package core

import (
	"context"
	"errors"
	"fmt"
	"math/bits"
	"runtime"
	"strings"
	"time"

	"repro/internal/bfunc"
	"repro/internal/pcube"
	"repro/internal/stats"
)

// CostKind selects the covering cost function. The paper minimizes the
// number of literals; the number of factors is mentioned as the
// alternative cost.
type CostKind int

const (
	// CostLiterals counts literals in the CEX (paper default, #L).
	CostLiterals CostKind = iota
	// CostFactors counts EXOR factors.
	CostFactors
)

func (k CostKind) of(c *pcube.CEX) int {
	switch k {
	case CostFactors:
		return len(c.Factors)
	default:
		return c.Literals()
	}
}

// ofFactors is of for a pseudoproduct still held as factors, such as
// a union in pcube.UnionInto scratch that has no CEX yet.
func (k CostKind) ofFactors(fs []pcube.Factor) int {
	switch k {
	case CostFactors:
		return len(fs)
	default:
		return pcube.FactorLiterals(fs)
	}
}

// ofMasks is of for a structure given as its factor masks: both costs
// are functions of the structure alone, so every member of a partition
// trie group has its group's cost.
func (k CostKind) ofMasks(masks []uint64) int {
	switch k {
	case CostFactors:
		return len(masks)
	default:
		total := 0
		for _, m := range masks {
			total += bits.OnesCount64(m)
		}
		return total
	}
}

// ErrBudget is returned when a limit in Options is exceeded before the
// computation finishes, mirroring the paper's "did not terminate after
// 2 days" stars.
var ErrBudget = errors.New("core: budget exhausted")

// Options configure minimization.
type Options struct {
	// Cost selects the covering objective. Default CostLiterals.
	Cost CostKind

	// MaxCandidates caps the total number of distinct pseudoproducts
	// generated during EPPP construction; 0 means DefaultMaxCandidates.
	MaxCandidates int

	// MaxDuration caps wall-clock time for EPPP construction; 0 means
	// no time limit.
	MaxDuration time.Duration

	// Ctx, when non-nil, cancels the whole pipeline: every phase
	// boundary and every long-running inner loop (EPPP level expansion,
	// the heuristic's descend/ascend steps, covering-column
	// construction and the exact branch and bound) polls it and returns
	// ctx.Err() — so context.DeadlineExceeded or context.Canceled, not
	// ErrBudget — when it fires. nil means no cancellation, exactly the
	// pre-context behaviour. Unlike MaxDuration (which bounds only EPPP
	// construction, mirroring the paper's per-phase timeout), Ctx bounds
	// wall-clock across phases, which is what a serving deadline needs.
	Ctx context.Context

	// CoverExact selects branch-and-bound covering (within
	// CoverMaxNodes) instead of the greedy heuristic. The paper used
	// covering heuristics for Table 1, so greedy is the default.
	CoverExact bool

	// CoverMaxNodes bounds the exact covering search (0 = solver
	// default).
	CoverMaxNodes int64

	// Workers sets how many outputs MinimizeMulti builds at once: 1 (or
	// negative) means one at a time, 0 means runtime.GOMAXPROCS(0).
	// Every single-output build (BuildEPPP, the heuristic's phases, the
	// warm engine) is serial whatever the setting; parallelism comes
	// from independent outputs and requests, not from inside one build.
	// Every worker count produces the same result.
	Workers int

	// CoverWorkers sets how many root branches of the exact branch and
	// bound (CoverExact) run at once. Covering columns and the greedy
	// cover are always built on the calling goroutine. 0 follows the
	// resolution of Workers, so leaving both at 0 means GOMAXPROCS
	// workers; 1 (or negative) means serial. Every setting produces the
	// same forms.
	CoverWorkers int

	// Stats, when non-nil, receives per-phase wall times and counters
	// from every pipeline stage. nil (the default) disables the
	// observability layer entirely; the hot paths then pay only a nil
	// check (see BenchmarkStatsOverhead). The deterministic counter
	// section of the resulting report is identical for every
	// Workers/CoverWorkers setting, like the results themselves.
	Stats *stats.Recorder
}

func (o Options) workers() int {
	if o.Workers == 0 {
		return runtime.GOMAXPROCS(0)
	}
	if o.Workers < 1 {
		return 1
	}
	return o.Workers
}

func (o Options) coverWorkers() int {
	if o.CoverWorkers == 0 {
		return o.workers()
	}
	if o.CoverWorkers < 1 {
		return 1
	}
	return o.CoverWorkers
}

// DefaultMaxCandidates bounds EPPP generation when Options.MaxCandidates
// is zero. The paper handles up to ~300k prime pseudoproducts plus
// intermediate levels; 4M keeps memory modest while covering that scale.
const DefaultMaxCandidates = 4_000_000

func (o Options) maxCandidates() int {
	if o.MaxCandidates == 0 {
		return DefaultMaxCandidates
	}
	return o.MaxCandidates
}

// ctxErr reports the options context's error, nil when no context was
// configured. Engines call it at phase boundaries so cancellation is
// honored even between budget polls.
func (o Options) ctxErr() error {
	if o.Ctx == nil {
		return nil
	}
	return o.Ctx.Err()
}

// budget tracks generation limits during EPPP construction. One build
// owns it, so it needs no synchronization.
type budget struct {
	remaining int64
	deadline  time.Time
	checkEach int64
	sinceLast int64
	ctx       context.Context // nil = not cancellable
}

func newBudget(o Options) *budget {
	b := &budget{remaining: int64(o.maxCandidates()), checkEach: 1024, ctx: o.Ctx}
	if o.MaxDuration > 0 {
		b.deadline = time.Now().Add(o.MaxDuration)
	}
	return b
}

// spend consumes n generation credits and reports whether the budget
// still holds. The deadline and the cancellation context are polled
// coarsely — every checkEach credits — to keep time.Now and the ctx.Err
// atomic out of the hot loop.
func (b *budget) spend(n int) bool {
	if b.remaining -= int64(n); b.remaining < 0 {
		return false
	}
	if b.ctx != nil || !b.deadline.IsZero() {
		if b.sinceLast += int64(n); b.sinceLast >= b.checkEach {
			b.sinceLast = 0
			if b.ctx != nil && b.ctx.Err() != nil {
				return false
			}
			return !b.expired()
		}
	}
	return true
}

// failure returns the error a failed spend/expired check stands for:
// the context's error when cancellation tripped the budget, ErrBudget
// otherwise. Engines call it instead of returning ErrBudget directly so
// callers can tell a serving deadline from an exhausted search budget.
func (b *budget) failure() error {
	if b.ctx != nil {
		if err := b.ctx.Err(); err != nil {
			return err
		}
	}
	return ErrBudget
}

// expired reports whether the wall-clock deadline has passed.
func (b *budget) expired() bool {
	return !b.deadline.IsZero() && time.Now().After(b.deadline)
}

// Form is an SPP form: a sum (OR) of pseudoproducts.
type Form struct {
	N     int
	Terms []*pcube.CEX
}

// Literals returns the total number of literals (#L).
func (f Form) Literals() int {
	total := 0
	for _, t := range f.Terms {
		total += t.Literals()
	}
	return total
}

// NumTerms returns the number of pseudoproducts (#PP).
func (f Form) NumTerms() int { return len(f.Terms) }

// Eval reports the form's value on point p.
func (f Form) Eval(p uint64) bool {
	for _, t := range f.Terms {
		if t.Contains(p) {
			return true
		}
	}
	return false
}

// Verify checks that the form realizes fn: every ON point evaluates to
// 1, every OFF point to 0 (DC points are unconstrained). It walks all
// 2^n points, so it is meant for tests and the examples.
func (f Form) Verify(fn *bfunc.Func) error {
	if f.N != fn.N() {
		return fmt.Errorf("core: form over B^%d, function over B^%d", f.N, fn.N())
	}
	for p := uint64(0); p < 1<<uint(f.N); p++ {
		got := f.Eval(p)
		switch {
		case fn.IsOn(p) && !got:
			return fmt.Errorf("core: ON point %0*b not covered", f.N, p)
		case !fn.IsCare(p) && got:
			return fmt.Errorf("core: OFF point %0*b wrongly covered", f.N, p)
		}
	}
	return nil
}

// String renders the form as a sum of CEX expressions.
func (f Form) String() string {
	if len(f.Terms) == 0 {
		return "0"
	}
	parts := make([]string, len(f.Terms))
	for i, t := range f.Terms {
		parts[i] = t.String()
	}
	return strings.Join(parts, " + ")
}
