// Command sppmin minimizes a Boolean function into an SPP (Sum of
// Pseudoproducts) form, the three-level AND-of-EXORs-then-OR network of
// the DAC'01 paper.
//
//	sppmin [flags] design.pla        # minimize a PLA file
//	sppmin [flags] -bench name       # minimize a built-in benchmark
//
// By default every output is minimized exactly (Algorithm 2); -k
// switches to the SPP_k heuristic, and -sp prints the two-level SP form
// instead. -show prints the minimized expressions.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"repro"
	"repro/internal/bench"
	"repro/internal/bfunc"
	"repro/internal/stats"
)

func main() {
	var (
		benchName = flag.String("bench", "", "minimize a built-in benchmark instead of a PLA file")
		output    = flag.Int("output", -1, "minimize a single output (default: all)")
		k         = flag.Int("k", -1, "SPP_k heuristic parameter (-1 = exact algorithm)")
		doSP      = flag.Bool("sp", false, "also minimize as a two-level SP form")
		doRM      = flag.Bool("rm", false, "also minimize as a fixed-polarity Reed-Muller form")
		verilog   = flag.String("verilog", "", "write the minimized design as structural Verilog to this file")
		blif      = flag.String("blif", "", "write the minimized design as BLIF to this file")
		show      = flag.Bool("show", false, "print the minimized expressions")
		budget    = flag.Duration("budget", 2*time.Minute, "per-output time budget")
		exactCov  = flag.Bool("exact-cover", false, "use exact (branch-and-bound) covering")
		share     = flag.Bool("share", false, "jointly minimize all outputs with a shared pseudoproduct pool")
		workers   = flag.Int("workers", 0, "outputs built at once by -share and the -verilog/-blif export (0 = GOMAXPROCS, 1 = serial)")
		coverWork = flag.Int("cover-workers", 0, "parallel root branches of the -exact-cover branch and bound (0 = follow -workers, 1 = serial)")
		maxNodes  = flag.Int64("cover-max-nodes", 0, "node budget for exact covering (0 = solver default)")
		statsPath = flag.String("stats", "", "write a machine-readable run report (JSON) to this file, - for stdout")
		verbose   = flag.Bool("v", false, "print a per-phase timing and counter summary to stderr")
	)
	flag.Parse()

	design, err := loadDesign(*benchName, flag.Args())
	if err != nil {
		fmt.Fprintln(os.Stderr, "sppmin:", err)
		os.Exit(1)
	}
	fmt.Printf("%s: %d inputs, %d outputs\n", design.Name(), design.Inputs(), design.NOutputs())

	opts := &spp.Options{
		MaxDuration:   *budget,
		ExactCover:    *exactCov,
		Workers:       *workers,
		CoverWorkers:  *coverWork,
		MaxCoverNodes: *maxNodes,
	}
	var rec *spp.StatsRecorder
	if *statsPath != "" || *verbose {
		rec = spp.NewLabeledStatsRecorder()
		opts.Stats = rec
	}
	emitStats := func() {
		if rec == nil {
			return
		}
		rep := rec.Report(design.Name())
		rep.Workers = *workers
		rep.CoverWorkers = *coverWork
		if *verbose {
			rep.Summary(os.Stderr)
		}
		if *statsPath == "" {
			return
		}
		if *statsPath == "-" {
			if err := rep.WriteJSON(os.Stdout); err != nil {
				fmt.Fprintln(os.Stderr, "sppmin:", err)
				os.Exit(1)
			}
			return
		}
		if err := writeFile(*statsPath, rep.WriteJSON); err != nil {
			fmt.Fprintln(os.Stderr, "sppmin:", err)
			os.Exit(1)
		}
		fmt.Println("wrote", *statsPath)
	}
	if *share {
		shared, err := spp.MinimizeShared(design, opts)
		if err != nil {
			fmt.Fprintln(os.Stderr, "sppmin:", err)
			os.Exit(1)
		}
		stopVerify := rec.Phase(stats.PhaseVerify)
		err = shared.Verify()
		stopVerify()
		if err != nil {
			fmt.Fprintln(os.Stderr, "sppmin: internal verification failed:", err)
			os.Exit(1)
		}
		for o := 0; o < design.NOutputs(); o++ {
			form := shared.Output(o)
			fmt.Printf("  out %2d: %3d literals, %2d pseudoproducts", o, form.Literals(), form.NumTerms())
			if *show {
				fmt.Printf("  %v", form)
			}
			fmt.Println()
		}
		fmt.Printf("shared pool: %d pseudoproducts, %d literals paid once (%d if stacked per-output)\n",
			shared.NumTerms(), shared.SharedLiterals(), shared.SeparateLiterals())
		emitStats()
		return
	}
	first, last := 0, design.NOutputs()-1
	if *output >= 0 {
		if *output > last {
			fmt.Fprintf(os.Stderr, "sppmin: output %d out of range [0,%d]\n", *output, last)
			os.Exit(1)
		}
		first, last = *output, *output
	}

	totalL, totalPP, totalSPL, totalRML := 0, 0, 0, 0
	for o := first; o <= last; o++ {
		f := design.Output(o)
		var res *spp.Result
		var err error
		if *k >= 0 {
			res, err = spp.MinimizeK(f, *k, opts)
		} else {
			res, err = spp.Minimize(f, opts)
		}
		if err != nil {
			fmt.Printf("  out %2d: %v\n", o, err)
			continue
		}
		stopVerify := rec.Phase(stats.PhaseVerify)
		err = res.Form.Verify(f)
		stopVerify()
		if err != nil {
			fmt.Fprintf(os.Stderr, "sppmin: internal verification failed on output %d: %v\n", o, err)
			os.Exit(1)
		}
		totalL += res.Form.Literals()
		totalPP += res.Form.NumTerms()
		line := fmt.Sprintf("  out %2d: SPP %3d literals, %2d pseudoproducts, %d candidates (%v build, %v cover)",
			o, res.Form.Literals(), res.Form.NumTerms(), res.EPPPCount,
			res.BuildTime.Round(time.Millisecond), res.CoverTime.Round(time.Millisecond))
		if *doSP {
			sr := spp.MinimizeSP(f, opts)
			totalSPL += sr.Literals
			line += fmt.Sprintf(" | SP %3d literals, %2d products", sr.Literals, sr.NumTerms)
		}
		if *doRM {
			rm := spp.MinimizeRM(f)
			totalRML += rm.Literals
			line += fmt.Sprintf(" | FPRM %3d literals, %2d terms", rm.Literals, rm.NumTerms)
		}
		fmt.Println(line)
		if *show {
			fmt.Printf("          %v\n", res.Form)
		}
	}
	summary := fmt.Sprintf("total: SPP %d literals, %d pseudoproducts", totalL, totalPP)
	if *doSP {
		summary += fmt.Sprintf(" | SP %d literals (ratio %.2f)", totalSPL, ratio(totalSPL, totalL))
	}
	if *doRM {
		summary += fmt.Sprintf(" | FPRM %d literals", totalRML)
	}
	fmt.Println(summary)

	if *verilog != "" || *blif != "" {
		// Re-minimize through the design API (parallel across outputs)
		// so the export includes every requested output.
		dr := spp.MinimizeDesign(design, *k, opts)
		if err := dr.Err(); err != nil {
			fmt.Fprintln(os.Stderr, "sppmin: export skipped failed outputs:", err)
		}
		if *verilog != "" {
			if err := writeFile(*verilog, dr.WriteVerilog); err != nil {
				fmt.Fprintln(os.Stderr, "sppmin:", err)
				os.Exit(1)
			}
			fmt.Println("wrote", *verilog)
		}
		if *blif != "" {
			if err := writeFile(*blif, dr.WriteBLIF); err != nil {
				fmt.Fprintln(os.Stderr, "sppmin:", err)
				os.Exit(1)
			}
			fmt.Println("wrote", *blif)
		}
	}
	emitStats()
}

func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func loadDesign(benchName string, args []string) (*spp.Design, error) {
	switch {
	case benchName != "":
		m, err := bench.Load(benchName)
		if err != nil {
			return nil, err
		}
		// Round-trip through the PLA writer: the public API consumes
		// PLA text, and this doubles as a live test of the writer.
		var buf bytes.Buffer
		if err := bfunc.WritePLA(&buf, m); err != nil {
			return nil, err
		}
		return spp.ParsePLA(&buf, benchName)
	case len(args) == 1:
		f, err := os.Open(args[0])
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return spp.ParsePLA(f, args[0])
	default:
		return nil, fmt.Errorf("usage: sppmin [flags] design.pla | sppmin -bench name (see -h)")
	}
}
