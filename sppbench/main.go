// Command sppbench is the repository's benchmark: it runs one workload
// against the minimizer's library and service layers, checks every
// output, and prints every metric by name with its unit. The last line
// of standard output is one JSON object with the keys correct,
// attempted, failed and metrics.
//
//	bash sppbench/run.sh --workload exact-cold --seed 1 --seconds 10 --trace 0
//
// Workloads (README.md says why each exists and what it loads):
//
//	exact-cold  core.BuildEPPP + core.SelectCover on the Table 1 functions
//	serve-hot   cache-hit requests through service.Server.Handler
//	edit-loop   warm delta chains through service.Server.Handler
//
// With --trace 0 the result holds the end-to-end metrics. set-up time
// is measured in fresh processes: the command starts setupProbes child
// processes that only set up, then one that sets up and runs, and
// reports the median of their set-up times. With --trace 1 the child
// runs the op sequence twice on one set-up, untraced and then traced,
// and reports the per-layer metrics plus the tracing overhead.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"time"
)

// setupProbes is how many set-up-only processes precede the measured
// one; setup_s is the median over all of them.
const setupProbes = 2

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	role     string
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload: exact-cold, serve-hot or edit-loop")
	flag.Int64Var(&o.seed, "seed", 1, "seed of the op sequence")
	flag.IntVar(&o.seconds, "seconds", 10, "nominal length of the timed phase; sizes the fixed op sequence")
	flag.IntVar(&trace, "trace", 0, "1 = report per-layer metrics from a traced run")
	flag.StringVar(&o.role, "role", "", "internal: probe (set up only) or run (set up and measure)")
	flag.Parse()
	o.trace = trace == 1
	if _, ok := workloads[o.workload]; !ok || o.seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintf(os.Stderr, "sppbench: need --workload (%s), --seconds >= 1 and --trace 0|1\n", workloadNames())
		os.Exit(2)
	}
	var err error
	switch o.role {
	case "":
		err = orchestrate(o)
	case "probe", "run":
		err = work(o)
	default:
		err = fmt.Errorf("unknown role %q", o.role)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "sppbench:", err)
		os.Exit(1)
	}
}

// result is the final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// orchestrate runs the set-up probes and the measured child, then adds
// setup_s to the child's result.
func orchestrate(o options) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	args := func(role string) []string {
		return []string{"--workload", o.workload, "--seed", strconv.FormatInt(o.seed, 10),
			"--seconds", strconv.Itoa(o.seconds), "--trace", map[bool]string{false: "0", true: "1"}[o.trace],
			"--role", role}
	}
	var setups []float64
	if !o.trace {
		for i := 0; i < setupProbes; i++ {
			d, _, err := child(exe, args("probe"), false)
			if err != nil {
				return fmt.Errorf("set-up probe %d: %w", i, err)
			}
			setups = append(setups, d.Seconds())
		}
	}
	d, last, err := child(exe, args("run"), true)
	if err != nil {
		return err
	}
	var res result
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return fmt.Errorf("measured run printed no result: %w", err)
	}
	if !o.trace {
		setups = append(setups, d.Seconds())
		fmt.Printf("setup_s samples %v\n", setups)
		res.Metrics["setup_s"] = metric{median(setups), "s"}
		fmt.Printf("%-34s %14.6g %s\n", "setup_s", res.Metrics["setup_s"].Value, "s")
	}
	out, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// child starts the benchmark binary with args and waits for it. It
// returns the time from start until the child printed its "ready" line
// (set-up done) and the child's last output line; with echo the lines
// between the two are copied to standard output.
func child(exe string, args []string, echo bool) (setup time.Duration, last string, err error) {
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return 0, "", err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return 0, "", err
	}
	sc := bufio.NewScanner(out)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	var pending string
	ready := false
	for sc.Scan() {
		line := sc.Text()
		if !ready {
			if line == readyLine {
				setup, ready = time.Since(start), true
			}
			continue
		}
		if echo && pending != "" {
			fmt.Println(pending)
		}
		pending = line
	}
	scanErr := sc.Err()
	if err := cmd.Wait(); err != nil {
		return 0, "", err
	}
	if scanErr != nil {
		return 0, "", scanErr
	}
	if !ready {
		return 0, "", errors.New("child never finished set-up")
	}
	return setup, pending, nil
}

const readyLine = "sppbench: set-up done"
