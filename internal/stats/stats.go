// Package stats is the pipeline observability layer: a Recorder
// collects per-phase wall times and counters from EPPP construction,
// the heuristic's descendant/ascendant phases and the covering engine.
//
// The layer is zero-overhead when disabled: every probe on a nil
// *Recorder reduces to a nil check (BenchmarkStatsOverhead times the
// same build with and without a recorder), so Options.Stats == nil
// preserves the hot paths exactly. When enabled, counters are atomics,
// so the remaining worker pools (outputs built at once, the exact
// cover's root branches) add to them race-safely.
//
// Counters come in two classes. Deterministic counters describe the
// algorithms and are byte-identical for every Workers/CoverWorkers
// setting, extending the engines' determinism guarantee to their
// observability; scheduling counters (trie node counts, parallel
// branch-and-bound node/prune counts) describe the execution and may
// vary run to run. Report keeps the two classes in separate
// JSON sections so regression gates can diff the deterministic one.
//
// This layer answers "what did one run cost"; the serving layer's
// counter families (internal/service's /statsz) answer "what is the
// service doing", and its telemetry sampler captures those families
// over time into an internal/ftdc disk ring for /statsz/history. The
// split is deliberate: per-run reports stay deterministic and
// diffable, time-series capture stays lossy and bounded.
package stats

import (
	"context"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"
)

// Phase identifies one stage of the minimization pipeline. Phase wall
// times are disjoint by construction (no phase is timed inside
// another), so their sum approximates the pipeline's total runtime.
type Phase int

const (
	// PhaseEPPP is EPPP construction (Algorithm 2, trie or hash-grouped).
	PhaseEPPP Phase = iota
	// PhaseEPPPNaive is the quadratic Luccio–Pagli baseline build.
	PhaseEPPPNaive
	// PhaseSeed is the heuristic's step 1: SP prime implicant seeding.
	PhaseSeed
	// PhaseDescend is the heuristic's descendant phase (Theorem 2).
	PhaseDescend
	// PhaseAscend is the heuristic's ascendant phase (union steps).
	PhaseAscend
	// PhaseCoverColumns is covering-column construction.
	PhaseCoverColumns
	// PhaseCoverReduce is the exact solver's essential/dominance pass.
	PhaseCoverReduce
	// PhaseCoverGreedy is the greedy covering heuristic.
	PhaseCoverGreedy
	// PhaseCoverExact is the branch-and-bound search proper.
	PhaseCoverExact
	// PhaseVerify is post-minimization exhaustive verification.
	PhaseVerify

	// --- portfolio-engine phases: one per non-SPP backend, so a raced
	// run's report attributes wall time to the backend that spent it.
	// The SPP backend keeps its fine-grained phases above.

	// PhaseEngineSOP is one SP (two-level sum-of-products) backend run.
	PhaseEngineSOP
	// PhaseEngineESOP is one ESOP (fixed-polarity Reed–Muller) backend
	// run.
	PhaseEngineESOP
	// PhaseEngineDSOP is one DSOP (disjoint sum-of-products) backend
	// run.
	PhaseEngineDSOP

	numPhases
)

var phaseNames = [numPhases]string{
	PhaseEPPP:         "eppp",
	PhaseEPPPNaive:    "eppp.naive",
	PhaseSeed:         "heuristic.seed",
	PhaseDescend:      "heuristic.descend",
	PhaseAscend:       "heuristic.ascend",
	PhaseCoverColumns: "cover.columns",
	PhaseCoverReduce:  "cover.reduce",
	PhaseCoverGreedy:  "cover.greedy",
	PhaseCoverExact:   "cover.exact",
	PhaseVerify:       "verify",
	PhaseEngineSOP:    "engine.sop",
	PhaseEngineESOP:   "engine.esop",
	PhaseEngineDSOP:   "engine.dsop",
}

func (p Phase) String() string {
	if p < 0 || p >= numPhases {
		return "unknown"
	}
	return phaseNames[p]
}

// Counter identifies one pipeline counter.
type Counter int

const (
	// --- deterministic counters: identical for every worker count ---

	// CtrCandidates counts pseudoproducts materialized across all
	// degrees during EPPP construction.
	CtrCandidates Counter = iota
	// CtrEPPP counts retained extended prime pseudoproducts.
	CtrEPPP
	// CtrUnions counts Algorithm-1 union attempts.
	CtrUnions
	// CtrFresh counts union successes: distinct pseudoproducts a union
	// or descent step admitted to the next level.
	CtrFresh
	// CtrComparisons counts the naive baseline's structure comparisons.
	CtrComparisons
	// CtrCoverColumns counts covering columns built.
	CtrCoverColumns
	// CtrCoverDCOnly counts candidates dropped for covering only
	// don't-cares.
	CtrCoverDCOnly
	// CtrCoverGray counts candidates whose rows were enumerated by the
	// Gray-code affine walk.
	CtrCoverGray
	// CtrCoverContains counts candidates that fell back to the
	// Contains scan over the ON points.
	CtrCoverContains
	// CtrGreedyPicks counts greedy column selections (before
	// redundancy elimination).
	CtrGreedyPicks
	// CtrGreedyReevals counts lazy-heap re-evaluations: heap tops whose
	// cached new-row count was stale and had to be re-keyed or popped.
	CtrGreedyReevals
	// CtrGreedyRedundant counts picks dropped by redundancy elimination.
	CtrGreedyRedundant
	// CtrReduceEssential counts essential columns forced by the exact
	// solver's preprocessing.
	CtrReduceEssential
	// CtrReduceRowDom counts rows removed by row dominance.
	CtrReduceRowDom
	// CtrReduceColDom counts columns removed by column dominance.
	CtrReduceColDom
	// CtrCoverDirty counts candidate columns whose covered-ON point
	// lists changed under a resume patch (dropped, grown, or fresh).
	CtrCoverDirty

	// --- scheduling counters: may vary with worker count/timing ---

	// CtrTrieNodes counts internal partition-trie nodes observed across
	// levels. It does not vary with the worker count; it is a sched
	// counter because it measures the index, not the algorithm.
	CtrTrieNodes
	// CtrTrieWalks counts the structure-path walks Algorithm 2's pair
	// loop makes in the next-level trie: one per group and distinct
	// complement difference δ, where a walk per union would be one per
	// pair. Like CtrTrieNodes it measures the index.
	CtrTrieWalks
	// CtrExactNodes counts branch-and-bound nodes explored.
	CtrExactNodes
	// CtrExactBoundPrunes counts subtrees pruned against the incumbent.
	CtrExactBoundPrunes
	// CtrExactLBPrunes counts subtrees pruned by the independent-rows
	// lower bound.
	CtrExactLBPrunes
	// CtrExactRootBranches counts root branches fanned out by the
	// parallel branch and bound.
	CtrExactRootBranches

	numCounters
)

// firstSchedCounter splits the counter space: counters at or beyond it
// are scheduling-dependent and reported in the Report's "sched" section.
const firstSchedCounter = CtrTrieNodes

var counterNames = [numCounters]string{
	CtrCandidates:        "eppp.candidates",
	CtrEPPP:              "eppp.retained",
	CtrUnions:            "eppp.unions",
	CtrFresh:             "eppp.fresh",
	CtrComparisons:       "eppp.naive_comparisons",
	CtrCoverColumns:      "cover.columns_built",
	CtrCoverDCOnly:       "cover.columns_dc_only",
	CtrCoverGray:         "cover.gray_walks",
	CtrCoverContains:     "cover.contains_fallbacks",
	CtrGreedyPicks:       "cover.greedy_picks",
	CtrGreedyReevals:     "cover.greedy_reevals",
	CtrGreedyRedundant:   "cover.greedy_redundant_dropped",
	CtrReduceEssential:   "cover.reduce_essential",
	CtrReduceRowDom:      "cover.reduce_row_dominated",
	CtrReduceColDom:      "cover.reduce_col_dominated",
	CtrCoverDirty:        "cover.warm_dirty_columns",
	CtrTrieNodes:         "eppp.trie_nodes",
	CtrTrieWalks:         "eppp.trie_walks",
	CtrExactNodes:        "cover.exact_nodes",
	CtrExactBoundPrunes:  "cover.exact_bound_prunes",
	CtrExactLBPrunes:     "cover.exact_lb_prunes",
	CtrExactRootBranches: "cover.exact_root_branches",
}

func (c Counter) String() string {
	if c < 0 || c >= numCounters {
		return "unknown"
	}
	return counterNames[c]
}

// Deterministic reports whether the counter's value is independent of
// worker counts and scheduling.
func (c Counter) Deterministic() bool { return c < firstSchedCounter }

// Recorder accumulates one run's observability data. All methods are
// safe for concurrent use and all are no-ops on a nil receiver, so call
// sites need no guards beyond passing the (possibly nil) recorder.
type Recorder struct {
	start  time.Time
	labels bool

	counters   [numCounters]atomic.Int64
	phaseNanos [numPhases]atomic.Int64
	phaseCalls [numPhases]atomic.Int64

	mu          sync.Mutex
	layerSizes  []int64
	layerGroups []int64
}

// New returns an enabled recorder with goroutine labeling off.
func New() *Recorder { return &Recorder{start: time.Now()} }

// NewLabeled returns a recorder that additionally tags worker
// goroutines with their pipeline phase via runtime/pprof labels, so CPU
// profiles decompose by stage (pprof -tagfocus / tag report on
// "spp-phase").
func NewLabeled() *Recorder {
	r := New()
	r.labels = true
	return r
}

// Add adds n to counter c. No-op on a nil recorder.
func (r *Recorder) Add(c Counter, n int64) {
	if r == nil || n == 0 {
		return
	}
	r.counters[c].Add(n)
}

// Get returns the current value of counter c (0 on a nil recorder).
func (r *Recorder) Get(c Counter) int64 {
	if r == nil {
		return 0
	}
	return r.counters[c].Load()
}

var noopStop = func() {}

// Phase starts timing phase p and returns the stop function. The usual
// pattern is
//
//	defer r.Phase(stats.PhaseEPPP)()
//
// On a nil recorder the returned stop is a shared no-op (no allocation,
// no clock read).
func (r *Recorder) Phase(p Phase) func() {
	if r == nil {
		return noopStop
	}
	start := time.Now()
	return func() {
		r.phaseNanos[p].Add(int64(time.Since(start)))
		r.phaseCalls[p].Add(1)
	}
}

// Layer accumulates one per-degree layer observation: size
// pseudoproducts in groups structure groups at the given degree.
// Observations from multiple builds (e.g. per-output runs of a
// multi-output minimization) sum per degree.
func (r *Recorder) Layer(degree, size, groups int) {
	if r == nil || (size == 0 && groups == 0) || degree < 0 {
		return
	}
	r.mu.Lock()
	for degree >= len(r.layerSizes) {
		r.layerSizes = append(r.layerSizes, 0)
		r.layerGroups = append(r.layerGroups, 0)
	}
	r.layerSizes[degree] += int64(size)
	r.layerGroups[degree] += int64(groups)
	r.mu.Unlock()
}

// Do runs fn, tagging the current goroutine with the phase name for CPU
// profiles when the recorder was built with NewLabeled. The engines
// wrap their worker-pool goroutine bodies in Do, so a pprof profile of
// a parallel run attributes worker time to pipeline stages.
func (r *Recorder) Do(p Phase, fn func()) {
	if r == nil || !r.labels {
		fn()
		return
	}
	pprof.Do(context.Background(), pprof.Labels("spp-phase", p.String()),
		func(context.Context) { fn() })
}
