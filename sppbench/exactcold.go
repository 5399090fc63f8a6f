package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/bench"
	"repro/internal/bfunc"
	"repro/internal/core"
)

// tableOneLiterals is the #L(SPP) column of the paper's Table 1 as
// regenerated in tables_output.txt, for the exact-cold functions.
var tableOneLiterals = map[string]int{
	"m3": 431, "m4": 439, "p1": 463, "test1": 277, "ex5": 1629, "mlp4": 394,
}

// exactColdFuncs fixes the order in which the pass is built.
var exactColdFuncs = []string{"m3", "m4", "p1", "test1", "ex5", "mlp4"}

// exactColdRate is the nominal op rate (ops/s on 2 CPUs) that turns
// --seconds into a whole number of passes.
const exactColdRate = 48

type namedFunc struct {
	bench string
	out   int
	f     *bfunc.Func
}

type ecOp struct {
	fn         int // index into funcs
	form       core.Form
	candidates int
	err        error
}

// exactCold is one caller running core.BuildEPPP then core.SelectCover
// on every output of the Table 1 functions, once per pass, each pass in
// a seeded order.
type exactCold struct {
	seed   int64
	passes int
	opts   core.Options
	funcs  []namedFunc
	ref    []int // #L of each function from the set-up pass
	phases [][]ecOp

	// traced-phase allocation counts per op, by layer
	epppAllocs, coverAllocs []float64
}

func newExactCold(seed int64, seconds int, trace bool) workload {
	return &exactCold{seed: seed, passes: max(1, int(math.Round(float64(seconds*exactColdRate)/131)))}
}

func (w *exactCold) config() map[string]any {
	return map[string]any{
		"callers":      1,
		"passes":       w.passes,
		"functions":    exactColdFuncs,
		"core.Options": fmt.Sprintf("%+v", w.opts),
		"workers":      runtime.GOMAXPROCS(0),
	}
}

func (w *exactCold) setup() error {
	for _, name := range exactColdFuncs {
		m, err := bench.Load(name)
		if err != nil {
			return err
		}
		for i, f := range m.Outputs {
			w.funcs = append(w.funcs, namedFunc{name, i, f})
		}
	}
	// One untimed pass fills the heap to steady state and fixes the
	// reference #L of every function.
	w.ref = make([]int, len(w.funcs))
	for i, nf := range w.funcs {
		set, err := core.BuildEPPP(nf.f, w.opts)
		if err != nil {
			return fmt.Errorf("%s(%d): %w", nf.bench, nf.out, err)
		}
		form, _, _, err := core.SelectCover(nf.f, set, w.opts)
		if err != nil {
			return fmt.Errorf("%s(%d): %w", nf.bench, nf.out, err)
		}
		w.ref[i] = form.Literals()
	}
	if n := len(w.funcs); beyond(n*w.passes, 0.9) < minTail {
		return fmt.Errorf("%d ops leave fewer than %d samples beyond p90", n*w.passes, minTail)
	}
	return nil
}

// order is the seeded op sequence: passes × every function, each pass
// shuffled independently. Phase k of a run reuses the same sequence.
func (w *exactCold) order() []int {
	rng := rand.New(rand.NewSource(w.seed))
	var seq []int
	for p := 0; p < w.passes; p++ {
		seq = append(seq, rng.Perm(len(w.funcs))...)
	}
	return seq
}

func (w *exactCold) run(tr *tracer) phaseResult {
	seq := w.order()
	ops := make([]ecOp, len(seq))
	var ma, mb, mc uint64
	ph := timed(func() []time.Duration {
		return runClients([][]int{positions(len(seq), 0, 1)}, func(_, i int) time.Duration {
			fn := seq[i]
			f := w.funcs[fn].f
			op := ecOp{fn: fn}
			if tr != nil {
				ma = mallocs()
			}
			t0 := time.Now()
			set, err := core.BuildEPPP(f, w.opts)
			t1 := time.Now()
			if tr != nil {
				mb = mallocs()
			}
			if err == nil {
				op.candidates = len(set.Candidates)
				op.form, _, _, err = core.SelectCover(f, set, w.opts)
			}
			t2 := time.Now()
			if tr != nil {
				mc = mallocs()
				root := tr.addAt("op", i, -1, t0, t2)
				tr.addAt("core.eppp", i, root, t0, t1)
				tr.addAt("core.cover", i, root, t1, t2)
				w.epppAllocs = append(w.epppAllocs, float64(mb-ma))
				w.coverAllocs = append(w.coverAllocs, float64(mc-mb))
			}
			op.err = err
			ops[i] = op
			return t2.Sub(t0)
		})
	})
	w.phases = append(w.phases, ops)
	return ph
}

func (w *exactCold) check(t *tally) []string {
	var problems []string
	for _, ops := range w.phases {
		sums := map[string]int{}
		for _, op := range ops {
			nf := w.funcs[op.fn]
			if op.err != nil {
				// A library error has no HTTP status and no known cause.
				t.attempted++
				t.failed++
				t.unclassified = append(t.unclassified, fmt.Sprintf("%s(%d): %v", nf.bench, nf.out, op.err))
				continue
			}
			verr := op.form.Verify(nf.f)
			if verr == nil && op.form.Literals() != w.ref[op.fn] {
				verr = fmt.Errorf("#L %d, set-up pass gave %d", op.form.Literals(), w.ref[op.fn])
			}
			if verr != nil {
				problems = append(problems, fmt.Sprintf("%s(%d): %v", nf.bench, nf.out, verr))
			}
			t.add(200, "", "", false, verr)
			sums[nf.bench] += op.form.Literals()
		}
		for name, want := range tableOneLiterals {
			if got := sums[name]; got != want*w.passes {
				problems = append(problems, fmt.Sprintf("%s: #L %d over %d passes, Table 1 gives %d per pass", name, got, w.passes, want))
			}
		}
	}
	return problems
}

func (w *exactCold) literalsPerOp() float64 {
	ops := w.phases[len(w.phases)-1]
	total := 0
	for _, op := range ops {
		total += op.form.Literals()
	}
	return float64(total) / float64(len(ops))
}

func (w *exactCold) layers(tr *tracer) map[string]metric {
	self, _ := tr.layerTimes()
	ops := w.phases[len(w.phases)-1]
	var cands, terms []float64
	for _, op := range ops {
		cands = append(cands, float64(op.candidates))
		terms = append(terms, float64(op.form.NumTerms()))
	}
	m := emptyLayers()
	m["core.eppp.ms_per_op"] = metric{mean(self["core.eppp"]), "ms"}
	m["core.eppp.allocs_per_op"] = metric{mean(w.epppAllocs), "count"}
	m["core.eppp.candidates_per_op"] = metric{mean(cands), "count"}
	m["core.cover.ms_per_op"] = metric{mean(self["core.cover"]), "ms"}
	m["core.cover.allocs_per_op"] = metric{mean(w.coverAllocs), "count"}
	m["core.cover.terms_per_op"] = metric{mean(terms), "count"}
	return m
}
