package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// workload is one named, seeded op sequence.
type workload interface {
	// setup loads inputs, builds whatever the ops call into and runs the
	// priming computes; everything up to the first timed op.
	setup() error
	// run executes the op sequence once as a timed phase; tr is nil in
	// an untraced phase. Outputs are retained for check.
	run(tr *tracer) phaseResult
	// check verifies every output retained so far, counting each op in
	// t. It returns a description of every failed check.
	check(t *tally) []string
	// literalsPerOp is the mean #L of the forms the last phase returned.
	literalsPerOp() float64
	// layers returns the per-layer metrics of the traced phase.
	layers(tr *tracer) map[string]metric
	// config describes the exact configuration the ops ran under.
	config() map[string]any
}

var workloads = map[string]func(seed int64, seconds int, trace bool) workload{
	"exact-cold": newExactCold,
	"serve-hot":  newServeHot,
	"edit-loop":  newEditLoop,
}

func workloadNames() string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

// work is the child process: set up, report readiness, and (role run)
// measure, check and report.
func work(o options) error {
	w := workloads[o.workload](o.seed, o.seconds, o.trace)
	if err := w.setup(); err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	fmt.Println(readyLine)
	if o.role == "probe" {
		return nil
	}

	ph := w.run(nil)
	ms := endToEnd(ph)
	var traced phaseResult
	var tr *tracer
	if o.trace {
		tr = newTracer()
		traced = w.run(tr)
	}

	var t tally
	problems := w.check(&t)
	for _, u := range t.unclassified {
		problems = append(problems, "unclassified failure: "+u)
	}
	ms["literals_per_op"] = metric{w.literalsPerOp(), "count"}

	meta := runMeta(o, w, ph, t)
	mb, err := json.Marshal(meta)
	if err != nil {
		return err
	}
	fmt.Println("meta", string(mb))
	for _, p := range problems {
		fmt.Println("check failed:", p)
	}
	if len(t.unclassified) > 0 {
		return fmt.Errorf("%d failures without a known cause", len(t.unclassified))
	}

	res := result{Correct: len(problems) == 0, Attempted: t.attempted, Failed: t.failed}
	fmt.Printf("%-34s %14.6g %s\n", "error_rate", t.errorRate(), "ratio")
	if o.trace {
		res.Metrics = w.layers(tr)
		res.Metrics["trace.overhead"] = metric{
			(float64(len(ph.lat)) / ph.wall.Seconds()) / (float64(len(traced.lat)) / traced.wall.Seconds()), "ratio"}
		path := filepath.Join(".bench_build", "traces", fmt.Sprintf("%s-seed%d.jsonl", o.workload, o.seed))
		if err := tr.write(path); err != nil {
			return err
		}
		fmt.Println("spans written to", path)
	} else {
		res.Metrics = ms
	}
	printMetrics(res.Metrics)
	out, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// endToEnd derives the end-to-end metrics of one untraced phase, except
// setup_s (added by the orchestrator) and literals_per_op (added after
// the output checks).
func endToEnd(ph phaseResult) map[string]metric {
	ops := float64(len(ph.lat))
	lat := millis(ph.lat)
	return map[string]metric{
		"ops_per_s":      {ops / ph.wall.Seconds(), "1/s"},
		"latency_p50_ms": {percentile(lat, 0.5), "ms"},
		"latency_p90_ms": {percentile(lat, 0.9), "ms"},
		"cpu_ms_per_op":  {float64(ph.cpu) / float64(time.Millisecond) / ops, "ms"},
		"allocs_per_op":  {float64(ph.mallocs) / ops, "count"},
		"peak_heap_mb":   {float64(ph.peakHeap) / (1 << 20), "MiB"},
	}
}

func printMetrics(ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-34s %14.6g %s\n", n, ms[n].Value, ms[n].Unit)
	}
}

// runMeta is the run's metadata: hardware, toolchain, commit, seed, op
// counts and the exact configuration.
func runMeta(o options, w workload, ph phaseResult, t tally) map[string]any {
	n := len(ph.lat)
	q, _ := highestTail(n)
	return map[string]any{
		"workload":        o.workload,
		"seed":            o.seed,
		"seconds":         o.seconds,
		"trace":           o.trace,
		"go":              runtime.Version(),
		"gomaxprocs":      runtime.GOMAXPROCS(0),
		"nproc":           runtime.NumCPU(),
		"cpu":             cpuModel(),
		"commit":          commit(),
		"ops":             n,
		"attempted":       t.attempted,
		"failed":          t.failed,
		"failure_causes":  t.causes,
		"p90_beyond":      beyond(n, 0.9),
		"highest_tail":    q,
		"highest_tail_ms": percentile(millis(ph.lat), q),
		"tail_beyond":     beyond(n, q),
		"timed_wall_s":    ph.wall.Seconds(),
		"config":          w.config(),
	}
}

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

// commit is the VCS revision the binary was built from, when the build
// saw one (a checkout without .git has none).
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		rev, dirty := "", false
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
		if rev != "" {
			if dirty {
				rev += "+dirty"
			}
			return rev
		}
	}
	return "unknown"
}
