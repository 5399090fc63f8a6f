package main

import (
	"fmt"
	"math"
	"net/http"
	"sort"
	"time"
)

// minTail is how many samples must lie beyond a reported percentile
// for it to be reported at all.
const minTail = 10

// percentile returns the nearest-rank q-quantile (0 < q ≤ 1) of the
// sorted samples: the smallest value with at least q·n samples at or
// below it.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := rank(len(sorted), q) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

// rank is the 1-based nearest rank of the q-quantile of n samples. The
// epsilon keeps q·n from rounding up past a whole number (0.999·10000).
func rank(n int, q float64) int {
	return int(math.Ceil(q*float64(n) - 1e-9))
}

// beyond is the number of samples strictly past the nearest-rank
// q-quantile of n samples.
func beyond(n int, q float64) int {
	return n - rank(n, q)
}

// tailLadder lists the percentiles highestTail may pick, highest first.
var tailLadder = []float64{0.999, 0.99, 0.9, 0.5}

// highestTail picks the highest percentile of tailLadder that keeps at
// least minTail of n samples beyond it; ok is false when none does.
func highestTail(n int) (q float64, ok bool) {
	for _, q := range tailLadder {
		if beyond(n, q) >= minTail {
			return q, true
		}
	}
	return 0, false
}

// median of unsorted values; the input is not modified.
func median(vals []float64) float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// millis converts durations to sorted float milliseconds.
func millis(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	sort.Float64s(out)
	return out
}

// Failure causes. Every failed op must map to one of these; anything
// else is a bug in the benchmark or the program and fails the run.
const (
	causeVerify       = "verify_mismatch"   // form wrong, or #L differs from the reference
	causeDeltaCold    = "delta_cold"        // a delta answered by a cold fallback
	causeColdRequired = "cold_run_required" // 409: the delta base was gone
)

// classify names the cause of one op's failure, or "" when the op
// succeeded. status is the HTTP status (200 for library calls), code
// the response's error code, delta its delta mode ("" unless the op was
// a delta request) and verr the output check's error. ok is false for
// a failure no known cause explains.
func classify(status int, code, delta string, wantDelta bool, verr error) (cause string, ok bool) {
	switch {
	case status == http.StatusConflict && code == causeColdRequired:
		return causeColdRequired, true
	case status != http.StatusOK:
		if http.StatusText(status) == "" {
			return "", false
		}
		return fmt.Sprintf("http_%d", status), true
	case wantDelta && delta == "cold":
		return causeDeltaCold, true
	case wantDelta && delta != "warm":
		return "", false
	case verr != nil:
		return causeVerify, true
	}
	return "", true
}

// tally counts attempted ops and failures by cause.
type tally struct {
	attempted    int
	failed       int
	causes       map[string]int
	unclassified []string
}

// add records one op. A failure without a known cause is kept in
// unclassified with a description and fails the run.
func (t *tally) add(status int, code, delta string, wantDelta bool, verr error) {
	t.attempted++
	cause, ok := classify(status, code, delta, wantDelta, verr)
	if !ok {
		t.failed++
		t.unclassified = append(t.unclassified,
			fmt.Sprintf("status %d code %q delta %q verify %v", status, code, delta, verr))
		return
	}
	if cause == "" {
		return
	}
	t.failed++
	if t.causes == nil {
		t.causes = map[string]int{}
	}
	t.causes[cause]++
}

func (t *tally) errorRate() float64 {
	if t.attempted == 0 {
		return 0
	}
	return float64(t.failed) / float64(t.attempted)
}
