// Package spp is the public API of the SPP logic-minimization library,
// a reproduction of "Logic Minimization using Exclusive OR Gates"
// (V. Ciriani, DAC 2001).
//
// An SPP (Sum of Pseudoproducts) form is a three-level network: an OR of
// ANDs of EXOR factors, generalizing two-level Sum-of-Products. SPP
// forms average about half the literals of minimal SP forms on
// arithmetic-flavoured functions and never do worse. This package
// exposes:
//
//   - Function: a single-output Boolean function with don't-cares, built
//     from minterms, a predicate, a truth table, or an Espresso PLA;
//   - Minimize: exact SPP minimization (the paper's Algorithm 2 on
//     partition tries);
//   - MinimizeK: the incremental SPP_k heuristic (Algorithm 3), trading
//     literals for time via the descent parameter k;
//   - MinimizeSP: classical two-level minimization for comparison;
//   - MinimizeNaive: the quadratic Luccio–Pagli baseline the paper
//     improves on, kept for benchmarking.
//
// A minimal session:
//
//	f := spp.FromPredicate(4, func(p uint64) bool { return bits.OnesCount64(p)%2 == 1 })
//	res, err := spp.Minimize(f, nil)
//	// res.Form.String() == "(x0⊕x1⊕x2⊕x3)" — one pseudoproduct where
//	// an SP form needs eight 4-literal minterm products.
package spp

import (
	"context"
	"io"
	"strings"
	"time"

	"repro/internal/bdd"
	"repro/internal/bfunc"
	"repro/internal/core"
	"repro/internal/fprm"
	"repro/internal/sp"
	"repro/internal/stats"
)

// Function is a single-output, possibly incompletely specified Boolean
// function over B^n. Points are packed into uint64 with variable x_0 in
// the most significant of the n used bits.
type Function struct {
	f *bfunc.Func
}

// New builds a completely specified function from its ON-set minterms.
func New(n int, on []uint64) *Function {
	return &Function{f: bfunc.New(n, on)}
}

// NewWithDC builds a function from ON and don't-care minterm sets.
func NewWithDC(n int, on, dc []uint64) *Function {
	return &Function{f: bfunc.NewDC(n, on, dc)}
}

// FromPredicate builds a function by evaluating pred on all 2^n points.
func FromPredicate(n int, pred func(p uint64) bool) *Function {
	return &Function{f: bfunc.FromPredicate(n, pred)}
}

// FromTruthTable builds a function from a 2^n-entry truth table.
func FromTruthTable(n int, tt []bool) *Function {
	return &Function{f: bfunc.FromTruthTable(n, tt)}
}

// N returns the number of input variables.
func (f *Function) N() int { return f.f.N() }

// OnCount returns the size of the ON-set.
func (f *Function) OnCount() int { return f.f.OnCount() }

// IsOn reports whether point p is in the ON-set.
func (f *Function) IsOn(p uint64) bool { return f.f.IsOn(p) }

// IsSpecified reports whether point p is specified (ON or OFF, i.e.
// not a don't-care).
func (f *Function) IsSpecified(p uint64) bool { return !f.f.IsDC(p) }

// Design is a named multi-output function, e.g. a parsed PLA.
type Design struct {
	m *bfunc.Multi
}

// ParsePLA reads a multi-output design in Espresso PLA format.
func ParsePLA(r io.Reader, name string) (*Design, error) {
	m, err := bfunc.ParsePLA(r, name)
	if err != nil {
		return nil, err
	}
	return &Design{m: m}, nil
}

// Name returns the design name.
func (d *Design) Name() string { return d.m.Name }

// Inputs returns the number of input variables.
func (d *Design) Inputs() int { return d.m.Inputs }

// NOutputs returns the number of outputs.
func (d *Design) NOutputs() int { return d.m.NOutputs() }

// Output returns output i as a Function (the paper minimizes outputs
// separately).
func (d *Design) Output(i int) *Function { return &Function{f: d.m.Output(i)} }

// Options tune minimization. The zero value (or a nil pointer) selects
// literal-count cost, greedy covering and generous generation limits.
type Options struct {
	// Ctx, when non-nil, cancels the whole minimization: construction
	// and covering poll it at phase boundaries and inside their hot
	// loops, and the ctx error (context.Canceled or DeadlineExceeded)
	// is returned in place of ErrBudget. Unlike MaxDuration, which only
	// bounds EPPP construction, a context deadline bounds wall clock
	// across every phase — it is what serving layers should use.
	Ctx context.Context
	// MaxDuration bounds EPPP construction wall-clock time (0 = none).
	MaxDuration time.Duration
	// MaxCandidates caps the number of pseudoproducts generated
	// (0 = the library default of a few million).
	MaxCandidates int
	// FactorCost minimizes the number of EXOR factors instead of
	// literals.
	FactorCost bool
	// ExactCover replaces the greedy covering heuristic with budgeted
	// branch and bound; the literal counts become provable minima when
	// the search completes (Result.CoverOptimal).
	ExactCover bool
	// Workers sets how many outputs MinimizeDesign minimizes, and
	// MinimizeShared builds, at once: 0 means runtime.GOMAXPROCS(0), 1
	// (or negative) one at a time. A single output's EPPP construction and heuristic
	// phases are always serial. Results are identical for every worker
	// count.
	Workers int
	// CoverWorkers sets how many root branches of the exact covering
	// branch and bound (ExactCover) run at once: 0 follows Workers, 1
	// (or negative) means serial. Covering columns and the greedy cover
	// are always built serially. Results are identical for every worker
	// count.
	CoverWorkers int
	// MaxCoverNodes bounds the exact covering branch and bound (0 = the
	// solver default). Only meaningful with ExactCover.
	MaxCoverNodes int64
	// Stats, when non-nil, collects per-phase timings and counters for
	// the run (see package repro/internal/stats); nil costs nothing.
	Stats *stats.Recorder
}

func (o *Options) toCore() core.Options {
	if o == nil {
		return core.Options{}
	}
	opts := core.Options{
		Ctx:           o.Ctx,
		MaxDuration:   o.MaxDuration,
		MaxCandidates: o.MaxCandidates,
		CoverExact:    o.ExactCover,
		CoverMaxNodes: o.MaxCoverNodes,
		Workers:       o.Workers,
		CoverWorkers:  o.CoverWorkers,
		Stats:         o.Stats,
	}
	if o.FactorCost {
		opts.Cost = core.CostFactors
	}
	return opts
}

// ErrBudget reports that a limit in Options was hit before completion.
var ErrBudget = core.ErrBudget

// StatsRecorder collects per-phase wall times and pipeline counters
// during a minimization; see Options.Stats. The alias lets callers
// outside this module use the internal recorder type.
type StatsRecorder = stats.Recorder

// StatsReport is the machine-readable snapshot of a StatsRecorder.
type StatsReport = stats.Report

// NewStatsRecorder returns an empty recorder to pass via Options.Stats.
func NewStatsRecorder() *StatsRecorder { return stats.New() }

// NewLabeledStatsRecorder is NewStatsRecorder plus pprof goroutine
// labels: worker goroutines are tagged with their pipeline phase
// ("spp-phase") so CPU profiles split by phase.
func NewLabeledStatsRecorder() *StatsRecorder { return stats.NewLabeled() }

// Form is a minimized SPP expression.
type Form struct {
	form core.Form
}

// Literals returns the total literal count (the paper's #L).
func (f Form) Literals() int { return f.form.Literals() }

// NumTerms returns the number of pseudoproducts (the paper's #PP).
func (f Form) NumTerms() int { return f.form.NumTerms() }

// Eval evaluates the form on a packed point.
func (f Form) Eval(p uint64) bool { return f.form.Eval(p) }

// String renders the form, e.g. "x1·(x0⊕x2⊕x̄3) + x̄0·x2".
func (f Form) String() string { return f.form.String() }

// Verify checks the form against fn over all 2^n points.
func (f Form) Verify(fn *Function) error { return f.form.Verify(fn.f) }

// Result is a minimization outcome.
type Result struct {
	// Form is the selected SPP expression.
	Form Form
	// EPPPCount is the number of extended prime pseudoproducts
	// considered by the covering step.
	EPPPCount int
	// BuildTime and CoverTime split the runtime between EPPP
	// construction and covering.
	BuildTime, CoverTime time.Duration
	// CoverOptimal reports whether the covering phase proved the
	// selection minimum; otherwise the form is an upper bound (the
	// paper's Table 1 situation).
	CoverOptimal bool
}

func fromCore(r *core.Result) *Result {
	return &Result{
		Form:         Form{form: r.Form},
		EPPPCount:    r.Build.EPPP,
		BuildTime:    r.Build.BuildTime,
		CoverTime:    r.CoverTime,
		CoverOptimal: r.CoverOptimal,
	}
}

// Minimize computes a minimal SPP form with the paper's exact
// Algorithm 2 (partition-trie EPPP construction plus covering).
func Minimize(f *Function, opts *Options) (*Result, error) {
	r, err := core.MinimizeExact(f.f, opts.toCore())
	if err != nil {
		return nil, err
	}
	return fromCore(r), nil
}

// MinimizeK computes the SPP_k heuristic form (Algorithm 3); k ranges
// over [0, n−1], with k = n−1 equivalent to exact minimization and
// k = 0 the fast upper bound of the paper's Table 3.
func MinimizeK(f *Function, k int, opts *Options) (*Result, error) {
	r, err := core.Heuristic(f.f, k, opts.toCore())
	if err != nil {
		return nil, err
	}
	return fromCore(r), nil
}

// MinimizeNaive is Minimize with EPPP construction done by the
// quadratic pairwise baseline of Luccio–Pagli [5]. Same forms, far
// slower; exposed for the Table 2 comparison.
func MinimizeNaive(f *Function, opts *Options) (*Result, error) {
	r, err := core.MinimizeNaive(f.f, opts.toCore())
	if err != nil {
		return nil, err
	}
	return fromCore(r), nil
}

// WarmState is the reusable intermediate state of one warm
// minimization: the partition-trie level structure with per-entry point
// signatures and discard counts, plus the ON points covered by each
// candidate. Resume patches it under a small edit instead of
// recomputing; the snapshot itself is immutable, so one WarmState can
// serve concurrent Resume calls.
type WarmState struct {
	ws *core.WarmState
}

// N returns the input arity of the snapshotted function.
func (w *WarmState) N() int { return w.ws.N() }

// Bytes estimates the retained footprint of the snapshot — what a
// size-aware cache should charge for keeping it.
func (w *WarmState) Bytes() int64 { return w.ws.Bytes() }

// Delta is an edit script against a warm state's function: point moves
// between the ON, DC and OFF sets. Edits are validated strictly (adding
// an already-ON point or removing an absent one is an error); the legal
// compound moves are ON→DC (RemoveOn + AddDC) and DC→ON (AddOn alone).
type Delta struct {
	// AddOn turns OFF or DC points ON.
	AddOn []uint64
	// RemoveOn turns ON points OFF (or DC when also listed in AddDC).
	RemoveOn []uint64
	// AddDC turns OFF points (including ones being removed from ON)
	// into don't-cares.
	AddDC []uint64
	// RemoveDC turns DC points OFF.
	RemoveDC []uint64
}

func (d Delta) toCore() core.Delta {
	return core.Delta{AddOn: d.AddOn, RemoveOn: d.RemoveOn, AddDC: d.AddDC, RemoveDC: d.RemoveDC}
}

// Apply returns the function the delta edits the snapshot into, without
// resuming.
func (w *WarmState) Apply(d Delta) (*Function, error) {
	f, err := w.ws.Apply(d.toCore())
	if err != nil {
		return nil, err
	}
	return &Function{f: f}, nil
}

// Churn returns the number of points the delta moves into or out of the
// care set (ON ∪ DC) — the "dirtiness" serving layers compare against a
// threshold when choosing warm resume vs cold rerun.
func (w *WarmState) Churn(d Delta) (int, error) {
	return w.ws.Churn(d.toCore())
}

// MinimizeWarm is Minimize capturing a WarmState for later Resume
// calls. It emits covering candidates in a canonical order (independent
// of generation history), so the returned form can differ textually
// from Minimize's where the covering heuristic broke a tie by candidate
// order — the literal cost is the same, and all warm results
// (MinimizeWarm and Resume alike) are mutually byte-identical for equal
// functions. EPPP construction and the covering columns are serial, as
// in every call; Options.CoverWorkers reaches only the exact branch and
// bound.
func MinimizeWarm(f *Function, opts *Options) (*Result, *WarmState, error) {
	r, ws, err := core.MinimizeExactWarm(f.f, opts.toCore())
	if err != nil {
		return nil, nil, err
	}
	return fromCore(r), &WarmState{ws: ws}, nil
}

// Resume minimizes the edited function by patching the warm state: only
// structure groups whose point signatures intersect the changed
// minterms are re-unioned, and the covering instance is patched rather
// than rebuilt. The result — form, candidate set and order — is
// byte-identical to MinimizeWarm on the edited function, at a fraction
// of the cost when the edit is small. Returns a fresh WarmState for the
// edited function; the input state is untouched and remains valid.
//
// Options must request the same cost model (FactorCost) the snapshot
// was built under; Ctx, budgets and worker counts may differ freely.
func Resume(w *WarmState, d Delta, opts *Options) (*Result, *WarmState, error) {
	r, nws, err := core.ResumeExact(w.ws, d.toCore(), opts.toCore())
	if err != nil {
		return nil, nil, err
	}
	return fromCore(r), &WarmState{ws: nws}, nil
}

// SPResult is a two-level minimization outcome.
type SPResult struct {
	// Literals and NumTerms are the paper's #L and #P.
	Literals int
	NumTerms int
	// NumPrimes is the paper's #PI.
	NumPrimes int
	// Expr renders the chosen sum of products.
	Expr string
	// Eval evaluates the form.
	Eval func(p uint64) bool
}

// MinimizeSP computes a minimal (greedy-covered) two-level SP form, the
// paper's comparison baseline.
func MinimizeSP(f *Function, opts *Options) *SPResult {
	var spOpts sp.Options
	if opts != nil {
		spOpts.CoverExact = opts.ExactCover
	}
	res := sp.Minimize(f.f, spOpts)
	form := res.Form
	expr := make([]string, len(form.Cubes))
	for i, c := range form.Cubes {
		expr[i] = c.Format(f.f.N())
	}
	out := &SPResult{
		Literals:  form.Literals(),
		NumTerms:  form.NumTerms(),
		NumPrimes: res.NumPrimes,
		Eval:      form.Eval,
	}
	if len(expr) == 0 {
		out.Expr = "0"
	} else {
		out.Expr = strings.Join(expr, " + ")
	}
	return out
}

// ParseForm parses the textual SPP syntax produced by Form.String (or
// its ASCII equivalent: * for AND, ^ for EXOR, ! or ~ for complement)
// into a Form over B^n, canonicalizing every pseudoproduct. Products
// that are constant 0 (inconsistent factor systems) are rejected.
func ParseForm(n int, src string) (Form, error) {
	form, err := core.ParseForm(n, src)
	if err != nil {
		return Form{}, err
	}
	return Form{form: form}, nil
}

// Simplify returns an equivalent form with pseudoproducts that are
// redundant for fn removed (most expensive first). Minimizer output is
// already irredundant; this is for hand-written or parsed forms.
func (f Form) Simplify(fn *Function) Form {
	return Form{form: f.form.Simplify(fn.f)}
}

// RMResult is a minimized fixed-polarity Reed–Muller (AND-EXOR) form,
// the classical EXOR-based normal form the paper's conclusions propose
// comparing SPP against.
type RMResult struct {
	// Literals is the total literal count of the best-polarity form.
	Literals int
	// NumTerms is the number of EXOR-ed products.
	NumTerms int
	// Polarity has a bit set for each complemented variable.
	Polarity uint64
	// Exhaustive reports whether all polarities were tried (n ≤ 12).
	Exhaustive bool
	// Expr renders the form.
	Expr string
	// Eval evaluates the form.
	Eval func(p uint64) bool
}

// MinimizeRM computes a minimum-literal fixed-polarity Reed–Muller form
// of a completely specified function: exhaustive over all 2^n
// polarities for n ≤ 12, greedy polarity descent beyond.
func MinimizeRM(f *Function) *RMResult {
	res := fprm.Minimize(f.f)
	return &RMResult{
		Literals:   res.Literals,
		NumTerms:   res.NumTerms(),
		Polarity:   res.Polarity,
		Exhaustive: res.Exhaustive,
		Expr:       res.Format(f.N()),
		Eval:       func(p uint64) bool { return res.Eval(p) },
	}
}

// HasDC reports whether the function has any don't-care points.
func (f *Function) HasDC() bool { return len(f.f.DC()) > 0 }

// BDD builds the function's canonical decision diagram in the given
// manager (completely specified functions only); used by the symbolic
// equivalence paths of the tools.
func (f *Function) BDD(m *bdd.Manager) bdd.Node { return m.FromFunc(f.f) }
