// Package harness drives the paper's experiments: it reproduces Table 1
// (SP vs SPP minimization), Table 2 (EPPP construction: naive baseline
// vs partition-trie Algorithm 2), Table 3 (SPP_0 heuristic vs exact) and
// the Figure 3/4 series (literals and CPU time of SPP_k vs k), printing
// rows in the paper's layout. Absolute times differ from the paper's
// Pentium III 450 — the reproduction target is the shape: who wins, by
// roughly what factor, and where the exact algorithm stops terminating.
package harness

import (
	"flag"
	"fmt"
	"io"
	"text/tabwriter"
	"time"

	"repro/internal/bench"
	"repro/internal/bfunc"
	"repro/internal/core"
	"repro/internal/sp"
	"repro/internal/stats"
)

// Config bounds each per-output minimization, standing in for the
// paper's two-day timeout (exceeded budgets are reported as the paper's
// "*" entries).
type Config struct {
	// PerOutput bounds each single-output EPPP construction (spptables
	// binds it as -budget; the service ignores it).
	PerOutput time.Duration
	// NaiveBudget bounds each run of the [5] baseline (Table 2 only;
	// spptables binds it as -naive-budget).
	NaiveBudget time.Duration
	// MaxCandidates caps pseudoproduct generation per output.
	MaxCandidates int
	// CoverExact selects exact covering (small instances only).
	CoverExact bool
	// CoverMaxNodes bounds the exact covering search per instance
	// (0 = the solver default). Without it a CoverExact row had no node
	// budget at all — the paper's "*" timeout semantics only covered
	// EPPP construction time.
	CoverMaxNodes int64
	// CoverWorkers sets how many root branches of the exact cover's
	// branch and bound run at once (0 = GOMAXPROCS, 1 = serial);
	// results are identical either way. EPPP construction, covering
	// columns and the greedy cover are always serial.
	CoverWorkers int
}

// DefaultConfig keeps every default table row finishing in minutes on a
// laptop while leaving room for the heavy rows to show real stars.
func DefaultConfig() Config {
	return Config{
		PerOutput:     60 * time.Second,
		NaiveBudget:   60 * time.Second,
		MaxCandidates: 4_000_000,
	}
}

// BindFlags registers the config's minimization bounds on fs under the
// flag names the tools share (-max-candidates, -cover-workers,
// -cover-max-nodes), so cmd/spptables and cmd/sppserve parse identical
// knobs. The time budgets are spptables' own flags: a server compute is
// bounded by its request or job deadline instead. Call on a config
// seeded with DefaultConfig (or other desired defaults) before
// fs.Parse.
func (c *Config) BindFlags(fs *flag.FlagSet) {
	fs.IntVar(&c.MaxCandidates, "max-candidates", c.MaxCandidates, "cap on generated pseudoproducts per output (0 = library default)")
	fs.IntVar(&c.CoverWorkers, "cover-workers", c.CoverWorkers, "parallel root branches of the exact cover's branch and bound (0 = GOMAXPROCS, 1 = serial)")
	fs.Int64Var(&c.CoverMaxNodes, "cover-max-nodes", c.CoverMaxNodes, "node budget for exact covering (0 = solver default)")
}

// CoreOptions translates the config into the per-minimization options
// the core engines take. Shared by the table drivers here and by the
// serving layer (internal/service), which adds its own per-request
// context and stats recorder on top.
func (c Config) CoreOptions() core.Options {
	return core.Options{
		MaxDuration:   c.PerOutput,
		MaxCandidates: c.MaxCandidates,
		CoverExact:    c.CoverExact,
		CoverMaxNodes: c.CoverMaxNodes,
		CoverWorkers:  c.CoverWorkers,
	}
}

// rowRecorder pairs a fresh recorder with the Report call every table
// row makes: phases and counters accumulate into rec during the row's
// minimizations and report(name) snapshots them, stamping the
// configured covering worker count.
func (c Config) rowRecorder() (rec *stats.Recorder, report func(name string) *stats.Report) {
	rec = stats.New()
	return rec, func(name string) *stats.Report {
		rep := rec.Report(name)
		rep.CoverWorkers = c.CoverWorkers
		return rep
	}
}

// FuncResult aggregates per-output minimizations of one benchmark, the
// way the paper reports multi-output functions ("the different outputs
// of each function have been minimized separately").
type FuncResult struct {
	Name string
	// SP side (paper Table 1 columns #PI, #L, #P).
	SPPrimes   int
	SPLiterals int
	SPTerms    int
	SPTime     time.Duration
	// SPP side (paper Table 1 columns #EPPP, #L, #PP).
	EPPP        int
	SPPLiterals int
	SPPTerms    int
	SPPTime     time.Duration
	// DNF marks outputs whose EPPP construction exceeded the budget;
	// the row is reported with a star like the paper's.
	DNF bool
	// Stats is the machine-readable run report of the SPP side,
	// aggregated over all outputs.
	Stats *stats.Report
}

// MinimizeFunc runs SP and exact SPP minimization over every output of
// m and sums the metrics.
func MinimizeFunc(m *bfunc.Multi, cfg Config) FuncResult {
	res := FuncResult{Name: m.Name}
	rec, report := cfg.rowRecorder()
	opts := cfg.CoreOptions()
	opts.Stats = rec
	for o := 0; o < m.NOutputs(); o++ {
		f := m.Output(o)
		spRes := sp.Minimize(f, sp.Options{CoverExact: cfg.CoverExact})
		res.SPPrimes += spRes.NumPrimes
		res.SPLiterals += spRes.Form.Literals()
		res.SPTerms += spRes.Form.NumTerms()
		res.SPTime += spRes.Time

		start := time.Now()
		sppRes, err := core.MinimizeExact(f, opts)
		if err != nil {
			res.DNF = true
			res.SPPTime += time.Since(start)
			continue
		}
		res.EPPP += sppRes.Build.EPPP
		res.SPPLiterals += sppRes.Form.Literals()
		res.SPPTerms += sppRes.Form.NumTerms()
		res.SPPTime += sppRes.Build.BuildTime + sppRes.CoverTime
	}
	res.Stats = report("table1/" + m.Name)
	return res
}

// Table1Functions is the default benchmark list of the paper's Table 1.
var Table1Functions = []string{
	"addm4", "adr4", "dist", "ex5", "exps", "life", "lin.rom", "m3", "m4",
	"max128", "max512", "mlp4", "newcond", "newtpla2", "p1", "prom2",
	"radd", "root", "test1",
}

// Table1 reproduces the paper's Table 1 for the named benchmarks,
// writing one row per function and returning the results.
func Table1(w io.Writer, names []string, cfg Config) []FuncResult {
	fmt.Fprintln(w, "Table 1: SP forms vs SPP forms (outputs minimized separately)")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "function\t#PI\t#L(SP)\t#P\t#EPPP\t#L(SPP)\t#PP\tSP/SPP\t")
	var out []FuncResult
	for _, name := range names {
		m := bench.MustLoad(name)
		r := MinimizeFunc(m, cfg)
		out = append(out, r)
		if r.DNF {
			fmt.Fprintf(tw, "%s\t%d\t%d\t%d\t*\t*\t*\t*\t\n",
				r.Name, r.SPPrimes, r.SPLiterals, r.SPTerms)
			continue
		}
		ratio := "-"
		if r.SPPLiterals > 0 {
			ratio = fmt.Sprintf("%.2f", float64(r.SPLiterals)/float64(r.SPPLiterals))
		}
		fmt.Fprintf(tw, "%s\t%d\t%d\t%d\t%d\t%d\t%d\t%s\t\n",
			r.Name, r.SPPrimes, r.SPLiterals, r.SPTerms,
			r.EPPP, r.SPPLiterals, r.SPPTerms, ratio)
	}
	tw.Flush()
	return out
}

// OutputCase names one single-output instance, e.g. cs8(1).
type OutputCase struct {
	Func   string
	Output int
}

func (c OutputCase) String() string { return fmt.Sprintf("%s(%d)", c.Func, c.Output) }

// Table2Cases is the paper's Table 2 instance list.
var Table2Cases = []OutputCase{
	{"cs8", 1}, {"cs8", 2}, {"addm4", 2}, {"addm4", 4},
	{"prom1", 15}, {"prom1", 31}, {"max128", 20}, {"m3", 3},
	{"m4", 0}, {"risc", 2}, {"ex5", 50}, {"max512", 5},
}

// Table2Row compares EPPP-construction CPU time between the naive
// baseline of [5] and the partition-trie Algorithm 2 on one output.
type Table2Row struct {
	Case      OutputCase
	Literals  int // #L of the minimal expression (from Algorithm 2)
	NaiveTime time.Duration
	NaiveDNF  bool
	TrieTime  time.Duration
	TrieDNF   bool
	// NaiveComparisons vs TrieUnions quantifies the speedup
	// machine-independently: the baseline pays a structure comparison
	// per pair, the trie algorithm only ever touches unifiable pairs.
	NaiveComparisons int64
	TrieUnions       int64
	// NaiveStats and TrieStats are the per-engine run reports (the two
	// engines get separate recorders so their phase times and counters
	// stay comparable side by side).
	NaiveStats *stats.Report
	TrieStats  *stats.Report
}

// Table2 reproduces the paper's Table 2.
func Table2(w io.Writer, cases []OutputCase, cfg Config) []Table2Row {
	fmt.Fprintln(w, "Table 2: EPPP construction time, naive [5] vs Algorithm 2 (single outputs)")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "function\t#L\tnaive [5]\talg. 2\tspeedup\tnaive cmps\talg2 unions\t")
	var rows []Table2Row
	for _, c := range cases {
		f := bench.MustLoad(c.Func).Output(c.Output)
		row := Table2Row{Case: c}

		trieRec, trieReport := cfg.rowRecorder()
		opts := cfg.CoreOptions()
		opts.Stats = trieRec
		res, err := core.MinimizeExact(f, opts)
		if err != nil {
			row.TrieDNF = true
		} else {
			row.Literals = res.Form.Literals()
			row.TrieTime = res.Build.BuildTime
			row.TrieUnions = res.Build.Unions
		}
		row.TrieStats = trieReport(fmt.Sprintf("table2/%s/alg2", c))

		naiveRec, naiveReport := cfg.rowRecorder()
		nOpts := opts
		nOpts.MaxDuration = cfg.NaiveBudget
		nOpts.Stats = naiveRec
		start := time.Now()
		nres, err := core.BuildEPPPNaive(f, nOpts)
		if err != nil {
			row.NaiveDNF = true
			row.NaiveTime = time.Since(start)
		} else {
			row.NaiveTime = nres.Stats.BuildTime
			row.NaiveComparisons = nres.Stats.Comparisons
		}
		row.NaiveStats = naiveReport(fmt.Sprintf("table2/%s/naive", c))
		rows = append(rows, row)

		lit, naive, alg2, speed, cmps := "*", "*", "*", "*", "*"
		if !row.TrieDNF {
			lit = fmt.Sprintf("%d", row.Literals)
			alg2 = fmtDur(row.TrieTime)
		}
		if !row.NaiveDNF {
			naive = fmtDur(row.NaiveTime)
			cmps = fmt.Sprintf("%d", row.NaiveComparisons)
			if !row.TrieDNF && row.TrieTime > 0 {
				speed = fmt.Sprintf("%.0f×", float64(row.NaiveTime)/float64(row.TrieTime))
			}
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\t%s\t%d\t\n",
			c, lit, naive, alg2, speed, cmps, row.TrieUnions)
	}
	tw.Flush()
	return rows
}

func fmtDur(d time.Duration) string {
	switch {
	case d >= time.Second:
		return fmt.Sprintf("%.2fs", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%.1fms", float64(d.Microseconds())/1000)
	default:
		return fmt.Sprintf("%dµs", d.Microseconds())
	}
}
