package engine

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/bfunc"
	"repro/internal/core"
	"repro/internal/cube"
	"repro/internal/dsop"
	"repro/internal/fprm"
	"repro/internal/sp"
	"repro/internal/stats"
)

// ESOPMaxVars caps the ESOP backend's input width: fprm works on a
// 2^n truth table, so wider functions would allocate and scan
// gigabytes. Beyond the cap the backend fails with a budget error
// rather than stall the portfolio.
const ESOPMaxVars = 20

// sppBackend adapts internal/core (the paper's SPP minimizers).
type sppBackend struct{}

func (sppBackend) Name() string     { return "spp" }
func (sppBackend) SupportsDC() bool { return true }

// Salt is the SPP option tag: the service keys every SPP result, warm
// state and warm pointer by it. Do not reformat; journaled keys and
// base_keys depend on it.
func (sppBackend) Salt(opts Options) string {
	alg := opts.Algorithm
	if alg == "" {
		alg = "exact"
	}
	return fmt.Sprintf("alg=%s;k=%d;xc=%t;fc=%t;cand=%d;nodes=%d",
		alg, opts.K, opts.Core.CoverExact, opts.Core.Cost == core.CostFactors,
		opts.Core.MaxCandidates, opts.Core.CoverMaxNodes)
}

func (sppBackend) Minimize(ctx context.Context, f *bfunc.Func, opts Options) (*Result, error) {
	copts := opts.Core
	copts.Ctx = ctx
	var (
		res *core.Result
		err error
	)
	switch opts.Algorithm {
	case "", "exact":
		res, err = core.MinimizeExact(f, copts)
	case "naive":
		res, err = core.MinimizeNaive(f, copts)
	case "sppk", "spp_k":
		res, err = core.Heuristic(f, opts.K, copts)
	default:
		return nil, fmt.Errorf("engine: unknown spp algorithm %q", opts.Algorithm)
	}
	if err != nil {
		return nil, err
	}
	return &Result{
		Form:    SPPForm{F: res.Form},
		EPPP:    res.Build.EPPP,
		Optimal: res.CoverOptimal,
	}, nil
}

// sopBackend adapts internal/sp (Quine–McCluskey primes + covering for
// narrow inputs, the ESPRESSO-style loop for wide ones).
type sopBackend struct{}

func (sopBackend) Name() string     { return "sop" }
func (sopBackend) SupportsDC() bool { return true }

func (sopBackend) Salt(opts Options) string {
	return fmt.Sprintf("form=sop;xc=%t;nodes=%d",
		opts.Core.CoverExact, opts.Core.CoverMaxNodes)
}

func (sopBackend) Minimize(ctx context.Context, f *bfunc.Func, opts Options) (*Result, error) {
	// sp has no internal cancellation; honor ctx at the boundary so a
	// lost race is at least not charged twice.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	stop := opts.Core.Stats.Phase(stats.PhaseEngineSOP)
	res := sp.Minimize(f, sp.Options{
		CoverExact:    opts.Core.CoverExact,
		CoverMaxNodes: opts.Core.CoverMaxNodes,
	})
	stop()
	return &Result{
		Form:    SOPForm{F: cube.Form{N: res.Form.N, Cubes: res.Form.Cubes}},
		Optimal: res.CoverOptimal,
	}, nil
}

// esopBackend adapts internal/fprm: the minimized fixed-polarity
// Reed–Muller expression, the repo's AND-EXOR (ESOP-class) form.
type esopBackend struct{}

func (esopBackend) Name() string     { return "esop" }
func (esopBackend) SupportsDC() bool { return false }

func (esopBackend) Salt(Options) string { return "form=esop" }

func (esopBackend) Minimize(ctx context.Context, f *bfunc.Func, opts Options) (*Result, error) {
	if len(f.DC()) > 0 {
		return nil, fmt.Errorf("engine: esop backend requires a completely specified function")
	}
	if f.N() > ESOPMaxVars {
		return nil, fmt.Errorf("%w: esop backend limited to %d variables (truth-table spectrum), got %d",
			core.ErrBudget, ESOPMaxVars, f.N())
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	stop := opts.Core.Stats.Phase(stats.PhaseEngineESOP)
	res := fprm.Minimize(f)
	stop()
	return &Result{
		Form:    ESOPForm{N: f.N(), Polarity: res.Polarity, Monomials: res.Monomials},
		Optimal: res.Exhaustive,
	}, nil
}

// dsopBackend adapts internal/dsop (BDD one-path extraction).
type dsopBackend struct{}

func (dsopBackend) Name() string     { return "dsop" }
func (dsopBackend) SupportsDC() bool { return false }

func (dsopBackend) Salt(Options) string {
	return fmt.Sprintf("form=dsop;cubes=%d", dsop.DefaultMaxCubes)
}

func (dsopBackend) Minimize(ctx context.Context, f *bfunc.Func, opts Options) (*Result, error) {
	stop := opts.Core.Stats.Phase(stats.PhaseEngineDSOP)
	res, err := dsop.Minimize(f, dsop.Options{Ctx: ctx})
	stop()
	if err != nil {
		if errors.Is(err, dsop.ErrTooLarge) {
			// A path-count blowup is a budget failure in the service's
			// vocabulary (422), not an internal error.
			return nil, fmt.Errorf("%w: %v", core.ErrBudget, err)
		}
		return nil, err
	}
	return &Result{Form: DSOPForm{F: res.Form}}, nil
}
