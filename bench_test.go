// Benchmark harness: one benchmark per table and figure of the paper
// (see DESIGN.md's experiment index), plus the ablation benches for the
// design choices called out there. Run with
//
//	go test -bench=. -benchmem
//
// Table/figure rows that need minutes of wall clock use the medium-size
// instances; cmd/spptables regenerates the complete tables.
package spp_test

import (
	"encoding/json"
	"fmt"
	"io"
	"math/bits"
	"os"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/bfunc"
	"repro/internal/core"
	"repro/internal/cover"
	"repro/internal/fprm"
	"repro/internal/harness"
	"repro/internal/pcube"
	"repro/internal/ptrie"
	"repro/internal/sp"
	"repro/internal/stats"
)

func cfg() harness.Config {
	c := harness.DefaultConfig()
	c.PerOutput = 30 * time.Second
	c.NaiveBudget = 30 * time.Second
	return c
}

// BenchmarkTable1 regenerates Table 1 rows (SP vs SPP minimization, all
// outputs summed). One sub-benchmark per representative function; the
// first iteration reports the row via b.Log.
func BenchmarkTable1(b *testing.B) {
	for _, name := range []string{"adr4", "life", "dist", "mlp4", "m3", "newtpla2"} {
		b.Run(name, func(b *testing.B) {
			m := bench.MustLoad(name)
			var r harness.FuncResult
			for i := 0; i < b.N; i++ {
				r = harness.MinimizeFunc(m, cfg())
			}
			b.ReportMetric(float64(r.SPLiterals), "SP-literals")
			b.ReportMetric(float64(r.SPPLiterals), "SPP-literals")
			b.ReportMetric(float64(r.EPPP), "EPPPs")
		})
	}
}

// BenchmarkTable2 regenerates Table 2 rows: EPPP construction with the
// naive [5] baseline vs partition-trie Algorithm 2.
func BenchmarkTable2(b *testing.B) {
	cases := []harness.OutputCase{
		{Func: "max128", Output: 20}, {Func: "m3", Output: 3},
		{Func: "m4", Output: 0}, {Func: "risc", Output: 2},
		{Func: "max512", Output: 5}, {Func: "ex5", Output: 50},
	}
	for _, c := range cases {
		f := bench.MustLoad(c.Func).Output(c.Output)
		b.Run(c.String()+"/naive", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.BuildEPPPNaive(f, core.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(c.String()+"/alg2", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.BuildEPPP(f, core.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTable3 regenerates Table 3 rows: the SPP_0 heuristic vs the
// exact algorithm, per output summed.
func BenchmarkTable3(b *testing.B) {
	for _, name := range []string{"dist", "mlp4", "m4", "f51m"} {
		m := bench.MustLoad(name)
		b.Run(name+"/SPP0", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for o := 0; o < m.NOutputs(); o++ {
					if _, err := core.Heuristic(m.Output(o), 0, core.Options{}); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
		b.Run(name+"/exact", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for o := 0; o < m.NOutputs(); o++ {
					if _, err := core.MinimizeExact(m.Output(o), core.Options{}); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// BenchmarkFig3 and BenchmarkFig4 sample the SPP_k sweep of the paper's
// figures: literal counts (fig 3) come out as reported metrics, CPU time
// (fig 4) as the benchmark time itself, one sub-benchmark per k.
func BenchmarkFig3Fig4(b *testing.B) {
	for _, name := range []string{"dist", "f51m"} {
		m := bench.MustLoad(name)
		for k := 0; k <= 4; k++ {
			b.Run(fmt.Sprintf("%s/k=%d", name, k), func(b *testing.B) {
				lits := 0
				for i := 0; i < b.N; i++ {
					lits = 0
					for o := 0; o < m.NOutputs(); o++ {
						res, err := core.Heuristic(m.Output(o), k, core.Options{})
						if err != nil {
							b.Fatal(err)
						}
						lits += res.Form.Literals()
					}
				}
				b.ReportMetric(float64(lits), "SPP_k-literals")
			})
		}
	}
}

// BenchmarkAblationGrouping compares the paper's partition trie with a
// flat hash map as the structure-grouping data structure (DESIGN.md
// ablation 1): same algorithm, same outputs, different index.
func BenchmarkAblationGrouping(b *testing.B) {
	for _, c := range []harness.OutputCase{
		{Func: "m3", Output: 3}, {Func: "adr4", Output: 0}, {Func: "max512", Output: 5},
	} {
		f := bench.MustLoad(c.Func).Output(c.Output)
		b.Run(c.String()+"/trie", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.BuildEPPP(f, core.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(c.String()+"/hashmap", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.BuildEPPPHashGrouped(f, core.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationUnion compares Algorithm 1's symbolic union against
// recomputing the CEX from the merged point sets (DESIGN.md ablation 2).
func BenchmarkAblationUnion(b *testing.B) {
	// A same-structure pair of degree-4 pseudocubes in B^12.
	n := 12
	a := pcube.FromPoint(n, 0x5A5)
	for _, alpha := range []uint64{0x003, 0x00C, 0x030, 0x0C0} {
		a = pcube.Union(a, a.Transform(alpha))
	}
	d := a.Transform(0x700)
	b.Run("algorithm1", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if pcube.Union(a, d) == nil {
				b.Fatal("union failed")
			}
		}
	})
	b.Run("from-points", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			pts := append(a.Points(), d.Points()...)
			if _, ok := pcube.FromPoints(n, pts); !ok {
				b.Fatal("not a pseudocube")
			}
		}
	})
}

// BenchmarkPartitionTrieInsert measures raw trie insertion throughput.
func BenchmarkPartitionTrieInsert(b *testing.B) {
	f := bench.MustLoad("m4").Output(0)
	set, err := core.BuildEPPP(f, core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr := ptrie.New(f.N())
		for _, c := range set.Candidates {
			tr.Insert(c)
		}
	}
	b.ReportMetric(float64(len(set.Candidates)), "CEXs")
}

// BenchmarkSPBaseline measures the two-level pipeline on its own.
func BenchmarkSPBaseline(b *testing.B) {
	for _, name := range []string{"adr4", "life", "dist"} {
		m := bench.MustLoad(name)
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for o := 0; o < m.NOutputs(); o++ {
					sp.Minimize(m.Output(o), sp.Options{})
				}
			}
		})
	}
}

// BenchmarkHarnessTable2Report exercises the full Table 2 harness path
// (including formatting) on the two fastest rows; it keeps the
// cmd/spptables plumbing itself under benchmark coverage.
func BenchmarkHarnessTable2Report(b *testing.B) {
	cases := []harness.OutputCase{{Func: "max128", Output: 20}, {Func: "risc", Output: 2}}
	for i := 0; i < b.N; i++ {
		harness.Table2(io.Discard, cases, cfg())
	}
}

// BenchmarkExtensionFPRM runs the §5 extension comparison: best
// fixed-polarity Reed-Muller forms next to SP and SPP (see
// harness.CompareForms for the reported literal counts).
func BenchmarkExtensionFPRM(b *testing.B) {
	for _, name := range []string{"adr4", "life", "mlp4"} {
		m := bench.MustLoad(name)
		b.Run(name, func(b *testing.B) {
			lits := 0
			for i := 0; i < b.N; i++ {
				lits = 0
				for o := 0; o < m.NOutputs(); o++ {
					lits += fprm.Minimize(m.Output(o)).Literals
				}
			}
			b.ReportMetric(float64(lits), "FPRM-literals")
		})
	}
}

// BenchmarkAblationSPEngine compares the two SP engines: exact
// Quine-McCluskey+cover vs the ESPRESSO-style heuristic loop.
func BenchmarkAblationSPEngine(b *testing.B) {
	for _, name := range []string{"adr4", "dist"} {
		m := bench.MustLoad(name)
		for _, eng := range []struct {
			label  string
			method sp.Method
		}{{"qm", sp.MethodQM}, {"espresso", sp.MethodEspresso}} {
			b.Run(name+"/"+eng.label, func(b *testing.B) {
				lits := 0
				for i := 0; i < b.N; i++ {
					lits = 0
					for o := 0; o < m.NOutputs(); o++ {
						lits += sp.Minimize(m.Output(o), sp.Options{Method: eng.method}).Form.Literals()
					}
				}
				b.ReportMetric(float64(lits), "SP-literals")
			})
		}
	}
}

// BenchmarkStatsOverhead guards the observability layer's
// zero-overhead-when-disabled contract: the same EPPP build with
// Options.Stats nil (hot paths pay one nil check) vs a live recorder.
// stats=off should match core's BenchmarkBuildEPPP on the same output;
// stats=on shows the price of turning collection on.
func BenchmarkStatsOverhead(b *testing.B) {
	f := bench.MustLoad("max512").Output(5)
	b.Run("stats=off", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.BuildEPPP(f, core.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("stats=on", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			rec := stats.New()
			if _, err := core.BuildEPPP(f, core.Options{Stats: rec}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkExtensionSharedOutputs measures joint multi-output
// minimization with a shared pseudoproduct pool against stacked
// per-output minimization.
func BenchmarkExtensionSharedOutputs(b *testing.B) {
	m := bench.MustLoad("adr4")
	multi := bfunc.NewMulti("adr4", m.Inputs, m.Outputs)
	b.Run("shared", func(b *testing.B) {
		var res *core.MultiResult
		var err error
		for i := 0; i < b.N; i++ {
			res, err = core.MinimizeMulti(multi, core.Options{})
			if err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(res.SharedLiterals), "shared-literals")
		b.ReportMetric(float64(res.SeparateLiterals()), "stacked-literals")
	})
	b.Run("separate", func(b *testing.B) {
		lits := 0
		for i := 0; i < b.N; i++ {
			lits = 0
			for o := 0; o < multi.NOutputs(); o++ {
				res, err := core.MinimizeExact(multi.Output(o), core.Options{})
				if err != nil {
					b.Fatal(err)
				}
				lits += res.Form.Literals()
			}
		}
		b.ReportMetric(float64(lits), "separate-literals")
	})
}

// --- covering-phase benchmark (BENCH_cover.json) ---------------------
//
// The seed covering path is reproduced here verbatim as the baseline:
// column construction enumerating every candidate's points through a
// map[uint64]int, and the full-rescan float-ratio greedy with the
// OR-rebuild redundancy elimination — exactly what internal/cover and
// SelectCover did before the lazy greedy. SelectCover now covers in
// point space: Gray-code column lists and the lazy greedy over them.

type seedBits []uint64

func newSeedBits(n int) seedBits { return make(seedBits, (n+63)/64) }

func (b seedBits) set(i int) { b[i/64] |= 1 << uint(i%64) }

func (b seedBits) orWith(o seedBits) {
	for i := range b {
		b[i] |= o[i]
	}
}

func (b seedBits) countNew(o seedBits) int {
	n := 0
	for i := range b {
		n += bits.OnesCount64(o[i] &^ b[i])
	}
	return n
}

func (b seedBits) containsAll(o seedBits) bool {
	for i := range b {
		if o[i]&^b[i] != 0 {
			return false
		}
	}
	return true
}

func seedGreedyCover(in *cover.Instance) []int {
	bs := make([]seedBits, len(in.Cols))
	for j, c := range in.Cols {
		b := newSeedBits(in.NRows)
		for _, r := range c.Rows {
			b.set(r)
		}
		bs[j] = b
	}
	covered := newSeedBits(in.NRows)
	var picked []int
	remaining := in.NRows
	for remaining > 0 {
		best, bestNew := -1, 0
		var bestRatio float64
		for j := range in.Cols {
			nw := covered.countNew(bs[j])
			if nw == 0 {
				continue
			}
			ratio := float64(in.Cols[j].Cost) / float64(nw)
			if best == -1 || ratio < bestRatio ||
				(ratio == bestRatio && nw > bestNew) {
				best, bestNew, bestRatio = j, nw, ratio
			}
		}
		if best == -1 {
			panic("bench: uncoverable row")
		}
		picked = append(picked, best)
		covered.orWith(bs[best])
		remaining -= bestNew
	}
	order := append([]int(nil), picked...)
	sort.Slice(order, func(a, b int) bool {
		return in.Cols[order[a]].Cost > in.Cols[order[b]].Cost
	})
	alive := map[int]bool{}
	for _, j := range picked {
		alive[j] = true
	}
	for _, j := range order {
		without := newSeedBits(in.NRows)
		for k := range alive {
			if k != j && alive[k] {
				without.orWith(bs[k])
			}
		}
		if without.containsAll(bs[j]) {
			alive[j] = false
		}
	}
	out := picked[:0]
	for _, j := range picked {
		if alive[j] {
			out = append(out, j)
		}
	}
	sort.Ints(out)
	return out
}

// seedCoverPhase runs the pre-bitset covering phase end to end
// (map-based column construction + seed greedy) and returns the
// selected form's literal count.
func seedCoverPhase(f *bfunc.Func, set *core.EPPPSet) (int, error) {
	on := f.On()
	rowOf := make(map[uint64]int, len(on))
	for i, p := range on {
		rowOf[p] = i
	}
	in := &cover.Instance{NRows: len(on)}
	var cols []*pcube.CEX
	for _, c := range set.Candidates {
		var rows []int
		for _, p := range c.Points() {
			if r, ok := rowOf[p]; ok {
				rows = append(rows, r)
			}
		}
		if len(rows) == 0 {
			continue
		}
		sort.Ints(rows)
		in.Cols = append(in.Cols, cover.Column{Cost: c.Literals(), Rows: rows})
		cols = append(cols, c)
	}
	if err := in.Validate(); err != nil {
		return 0, err
	}
	lits := 0
	for _, j := range seedGreedyCover(in) {
		lits += cols[j].Literals()
	}
	return lits, nil
}

// coverBench collects per-(function, implementation) timings and
// literal counts of BenchmarkCover's sub-benchmarks (declaration order)
// for the trailing "report" step.
var (
	coverBenchNsOp = map[string]float64{}
	coverBenchLits = map[string]int{}
)

var coverBenchCases = []harness.OutputCase{
	{Func: "adr4", Output: 0}, {Func: "dist", Output: 0},
	{Func: "m3", Output: 3}, {Func: "max512", Output: 5},
}

// BenchmarkCover measures the covering phase (Algorithm 2 step 3) on
// Table 1/2 functions: the seed map-and-rescan path against
// core.SelectCover, writing the comparison and the host it ran on to
// BENCH_cover.json. The report step asserts both paths select forms
// with identical literal counts; under -short (the CI smoke run) it
// checks them but leaves BENCH_cover.json alone.
func BenchmarkCover(b *testing.B) {
	for _, c := range coverBenchCases {
		f := bench.MustLoad(c.Func).Output(c.Output)
		set, err := core.BuildEPPP(f, core.Options{})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(c.String()+"/seed", func(b *testing.B) {
			lits := 0
			start := time.Now()
			for i := 0; i < b.N; i++ {
				if lits, err = seedCoverPhase(f, set); err != nil {
					b.Fatal(err)
				}
			}
			coverBenchNsOp[c.String()+"/seed"] = float64(time.Since(start).Nanoseconds()) / float64(b.N)
			coverBenchLits[c.String()+"/seed"] = lits
		})
		b.Run(c.String()+"/select-cover", func(b *testing.B) {
			lits := 0
			start := time.Now()
			for i := 0; i < b.N; i++ {
				form, _, _, err := core.SelectCover(f, set, core.Options{})
				if err != nil {
					b.Fatal(err)
				}
				lits = form.Literals()
			}
			coverBenchNsOp[c.String()+"/select-cover"] = float64(time.Since(start).Nanoseconds()) / float64(b.N)
			coverBenchLits[c.String()+"/select-cover"] = lits
		})
	}
	b.Run("report", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			// Runs after the timed sub-benchmarks to persist their results.
		}
		type row struct {
			Function       string  `json:"function"`
			SeedSec        float64 `json:"seed_sec_per_op"`
			SelectCoverSec float64 `json:"select_cover_sec_per_op"`
			Speedup        float64 `json:"select_cover_speedup_vs_seed"`
			Literals       int     `json:"literals"`
		}
		type host struct {
			Go         string `json:"go"`
			GOMAXPROCS int    `json:"gomaxprocs"`
			NumCPU     int    `json:"nproc"`
			CPU        string `json:"cpu"`
		}
		out := struct {
			Bench string `json:"bench"`
			Host  host   `json:"host"`
			Rows  []row  `json:"rows"`
		}{
			Bench: "covering phase, serial: seed map-and-rescan path vs core.SelectCover (point-space columns, lazy greedy)",
			Host:  host{Go: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(), CPU: cpuModel()},
		}
		for _, c := range coverBenchCases {
			seedNs := coverBenchNsOp[c.String()+"/seed"]
			selNs := coverBenchNsOp[c.String()+"/select-cover"]
			if seedNs == 0 || selNs == 0 {
				continue
			}
			if sl, cl := coverBenchLits[c.String()+"/seed"], coverBenchLits[c.String()+"/select-cover"]; sl != cl {
				b.Fatalf("%s: literal counts diverge: seed %d, SelectCover %d", c.String(), sl, cl)
			}
			out.Rows = append(out.Rows, row{
				Function:       c.String(),
				SeedSec:        seedNs / 1e9,
				SelectCoverSec: selNs / 1e9,
				Speedup:        seedNs / selNs,
				Literals:       coverBenchLits[c.String()+"/select-cover"],
			})
		}
		if testing.Short() {
			return
		}
		data, err := json.MarshalIndent(out, "", "  ")
		if err != nil {
			b.Fatal(err)
		}
		if err := os.WriteFile("BENCH_cover.json", append(data, '\n'), 0o644); err != nil {
			b.Fatal(err)
		}
	})
}

// cpuModel reads the first CPU model name from /proc/cpuinfo, or
// "unknown" where there is none.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
