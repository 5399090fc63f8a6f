// Command spptables regenerates the evaluation tables and figures of
// the DAC'01 SPP paper on the built-in benchmark registry (DESIGN.md
// maps each to its experiment id):
//
//	spptables -table 1            # Table 1: SP vs SPP
//	spptables -table 2            # Table 2: naive [5] vs Algorithm 2
//	spptables -table 3            # Table 3: SPP_0 vs exact
//	spptables -fig 34             # Figure 3/4 series for dist and f51m
//	spptables -all                # everything
//
// Flags -funcs, -budget, -naive-budget and -maxk scale the run; exceeded
// budgets are printed as the paper's "*" (did not terminate) entries.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/bench"
	"repro/internal/harness"
	"repro/internal/stats"
)

func main() {
	var (
		table     = flag.Int("table", 0, "table to regenerate (1, 2 or 3)")
		fig       = flag.String("fig", "", "figure series to regenerate (\"34\")")
		all       = flag.Bool("all", false, "regenerate every table and figure")
		funcs     = flag.String("funcs", "", "comma-separated benchmark subset (default: the paper's list)")
		maxK      = flag.Int("maxk", -1, "cap on k for the figure sweeps (-1 = up to n-1)")
		compare   = flag.Bool("compare", false, "run the extension comparison: SP vs Reed-Muller vs SPP")
		csvDir    = flag.String("csv", "", "also write results as CSV files into this directory")
		list      = flag.Bool("list", false, "list available benchmarks and exit")
		statsPath = flag.String("stats", "", "write per-row run reports (JSON) to this file, - for stdout")
		verbose   = flag.Bool("v", false, "print per-row phase/counter summaries to stderr")
	)
	cfg := harness.DefaultConfig()
	cfg.BindFlags(flag.CommandLine)
	flag.DurationVar(&cfg.PerOutput, "budget", cfg.PerOutput, "per-output budget for EPPP construction")
	flag.DurationVar(&cfg.NaiveBudget, "naive-budget", cfg.NaiveBudget, "per-output budget for the naive [5] baseline")
	flag.Parse()

	if *list {
		for _, name := range bench.Names() {
			info, _ := bench.Lookup(name)
			fmt.Printf("%-10s %2d in / %2d out  tier %d  %s\n",
				name, info.Inputs, info.Outputs, info.Tier, info.Desc)
		}
		return
	}

	var reports []*stats.Report
	collect := func(reps ...*stats.Report) {
		for _, rep := range reps {
			if rep == nil {
				continue
			}
			reports = append(reports, rep)
			if *verbose {
				rep.Summary(os.Stderr)
			}
		}
	}

	pick := func(def []string) []string {
		if *funcs == "" {
			return def
		}
		var out []string
		for _, f := range strings.Split(*funcs, ",") {
			f = strings.TrimSpace(f)
			if f == "" {
				continue
			}
			if _, ok := bench.Lookup(f); !ok {
				fmt.Fprintf(os.Stderr, "spptables: unknown benchmark %q\n", f)
				os.Exit(2)
			}
			out = append(out, f)
		}
		return out
	}

	writeCSV := func(name string, write func(w *os.File) error) {
		if *csvDir == "" {
			return
		}
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "spptables:", err)
			os.Exit(1)
		}
		f, err := os.Create(filepath.Join(*csvDir, name))
		if err != nil {
			fmt.Fprintln(os.Stderr, "spptables:", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := write(f); err != nil {
			fmt.Fprintln(os.Stderr, "spptables:", err)
			os.Exit(1)
		}
	}

	ran := false
	if *all || *table == 1 {
		rows := harness.Table1(os.Stdout, pick(harness.Table1Functions), cfg)
		writeCSV("table1.csv", func(w *os.File) error { return harness.WriteTable1CSV(w, rows) })
		for _, r := range rows {
			collect(r.Stats)
		}
		fmt.Println()
		ran = true
	}
	if *all || *table == 2 {
		rows := harness.Table2(os.Stdout, harness.Table2Cases, cfg)
		writeCSV("table2.csv", func(w *os.File) error { return harness.WriteTable2CSV(w, rows) })
		for _, r := range rows {
			collect(r.TrieStats, r.NaiveStats)
		}
		fmt.Println()
		ran = true
	}
	if *all || *table == 3 {
		rows := harness.Table3(os.Stdout, pick(harness.Table3Functions), cfg)
		writeCSV("table3.csv", func(w *os.File) error { return harness.WriteTable3CSV(w, rows) })
		for _, r := range rows {
			collect(r.Stats)
		}
		fmt.Println()
		ran = true
	}
	if *all || *fig == "34" || *fig == "3" || *fig == "4" {
		sweeps := harness.Figures34(os.Stdout, pick([]string{"dist", "f51m"}), *maxK, cfg)
		writeCSV("figures34.csv", func(w *os.File) error { return harness.WriteSweepCSV(w, sweeps) })
		fmt.Println()
		ran = true
	}
	if *all || *compare {
		harness.CompareForms(os.Stdout, pick(harness.CompareFunctions), cfg)
		ran = true
	}
	if !ran {
		flag.Usage()
		os.Exit(2)
	}
	if *statsPath != "" {
		rr := stats.NewRunReport(reports...)
		out := os.Stdout
		if *statsPath != "-" {
			f, err := os.Create(*statsPath)
			if err != nil {
				fmt.Fprintln(os.Stderr, "spptables:", err)
				os.Exit(1)
			}
			defer f.Close()
			out = f
		}
		if err := rr.WriteJSON(out); err != nil {
			fmt.Fprintln(os.Stderr, "spptables:", err)
			os.Exit(1)
		}
		if *statsPath != "-" {
			fmt.Println("wrote", *statsPath)
		}
	}
}
