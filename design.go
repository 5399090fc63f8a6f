package spp

import (
	"fmt"
	"io"
	"runtime"
	"sync"

	"repro/internal/core"
	"repro/internal/netlist"
)

// DesignResult holds the minimized forms of every output of a Design,
// ready for inspection or netlist export.
type DesignResult struct {
	name    string
	inputs  int
	results []*Result
	// Errors[i] is non-nil when output i exceeded the budget; its form
	// is absent from exports.
	Errors []error
}

// Output returns the minimization result for output i (nil if that
// output failed; see Errors).
func (r *DesignResult) Output(i int) *Result { return r.results[i] }

// NOutputs returns the number of outputs.
func (r *DesignResult) NOutputs() int { return len(r.results) }

// TotalLiterals sums the literal counts of the successfully minimized
// outputs (the paper's per-function #L).
func (r *DesignResult) TotalLiterals() int {
	total := 0
	for _, res := range r.results {
		if res != nil {
			total += res.Form.Literals()
		}
	}
	return total
}

// TotalTerms sums the pseudoproduct counts (the paper's #PP).
func (r *DesignResult) TotalTerms() int {
	total := 0
	for _, res := range r.results {
		if res != nil {
			total += res.Form.NumTerms()
		}
	}
	return total
}

// Err returns the first per-output error, or nil if every output
// minimized within budget.
func (r *DesignResult) Err() error {
	for i, err := range r.Errors {
		if err != nil {
			return fmt.Errorf("spp: output %d: %w", i, err)
		}
	}
	return nil
}

// MinimizeDesign minimizes every output of the design separately (the
// paper's protocol) with the exact algorithm, or with the SPP_k
// heuristic when k ≥ 0. Outputs are processed Options.Workers at a time
// (0 means runtime.GOMAXPROCS(0)), each build serial — results are
// deterministic because outputs are independent. Per-output budget
// errors are recorded in DesignResult.Errors rather than aborting the
// whole design.
func MinimizeDesign(d *Design, k int, opts *Options) *DesignResult {
	nOut := d.NOutputs()
	r := &DesignResult{
		name:    d.Name(),
		inputs:  d.Inputs(),
		results: make([]*Result, nOut),
		Errors:  make([]error, nOut),
	}
	inner := &Options{}
	if opts != nil {
		c := *opts
		inner = &c
	}
	workers := runtime.GOMAXPROCS(0)
	if inner.Workers != 0 {
		workers = max(1, inner.Workers)
	}
	workers = min(workers, nOut)
	// Each output's exact branch and bound gets the workers the outer
	// pool leaves over, serial unless Workers exceeds the output count,
	// so the CPUs are not oversubscribed. An explicit CoverWorkers wins.
	if inner.CoverWorkers == 0 {
		inner.CoverWorkers = max(1, inner.Workers/max(1, workers))
	}
	var wg sync.WaitGroup
	jobs := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for o := range jobs {
				f := d.Output(o)
				var res *Result
				var err error
				if k >= 0 {
					res, err = MinimizeK(f, k, inner)
				} else {
					res, err = Minimize(f, inner)
				}
				// Slots are disjoint per worker; no lock needed.
				r.results[o], r.Errors[o] = res, err
			}
		}()
	}
	for o := 0; o < nOut; o++ {
		jobs <- o
	}
	close(jobs)
	wg.Wait()
	return r
}

// module assembles the exporter input from the successful outputs.
func (r *DesignResult) module() *netlist.Module {
	m := &netlist.Module{Name: r.name, Inputs: r.inputs}
	for i, res := range r.results {
		if res == nil {
			continue
		}
		m.Outputs = append(m.Outputs, netlist.Output{
			Name: fmt.Sprintf("y%d", i),
			Form: res.Form.form,
		})
	}
	return m
}

// WriteVerilog exports the minimized design as structural Verilog: one
// assign per output with the three-level EXOR/AND/OR structure intact.
func (r *DesignResult) WriteVerilog(w io.Writer) error {
	return netlist.WriteVerilog(w, r.module())
}

// WriteBLIF exports the minimized design in Berkeley Logic Interchange
// Format with explicit XOR chains, AND and OR gates.
func (r *DesignResult) WriteBLIF(w io.Writer) error {
	return netlist.WriteBLIF(w, r.module())
}

// SharedResult is a jointly minimized design: one pool of
// pseudoproducts with free OR-plane fanout, so terms used by several
// outputs are paid once (the natural PLA-style extension of the paper's
// per-output protocol).
type SharedResult struct {
	res    *core.MultiResult
	design *Design
}

// MinimizeShared jointly minimizes all outputs of the design with a
// shared pseudoproduct pool. The covering instance spans every
// (output, minterm) pair, so the solver discovers sharing on its own.
func MinimizeShared(d *Design, opts *Options) (*SharedResult, error) {
	res, err := core.MinimizeMulti(d.m, opts.toCore())
	if err != nil {
		return nil, err
	}
	return &SharedResult{res: res, design: d}, nil
}

// SharedLiterals is the joint cost: each distinct pseudoproduct's
// literals counted once regardless of fanout.
func (r *SharedResult) SharedLiterals() int { return r.res.SharedLiterals }

// SeparateLiterals is what the same selection would cost without
// sharing (terms counted once per output they drive).
func (r *SharedResult) SeparateLiterals() int { return r.res.SeparateLiterals() }

// NumTerms returns the size of the shared pseudoproduct pool.
func (r *SharedResult) NumTerms() int { return len(r.res.Terms) }

// Output materializes output o as a standalone SPP form.
func (r *SharedResult) Output(o int) Form { return Form{form: r.res.Form(o)} }

// Verify checks every output against the design.
func (r *SharedResult) Verify() error {
	for o := 0; o < r.design.NOutputs(); o++ {
		if err := r.Output(o).Verify(r.design.Output(o)); err != nil {
			return err
		}
	}
	return nil
}
