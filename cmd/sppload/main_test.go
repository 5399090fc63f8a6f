package main

import (
	"maps"
	"net/http"
	"testing"
	"time"
)

func TestRecorder(t *testing.T) {
	var r recorder
	for i := 1; i <= 10; i++ {
		r.add(call{d: time.Duration(i) * time.Millisecond, code: http.StatusOK})
	}
	r.add(call{d: 500 * time.Microsecond, code: http.StatusTooManyRequests, retryAfter: true})
	r.add(call{d: 700 * time.Microsecond, code: http.StatusTooManyRequests})
	r.add(call{d: time.Second, code: http.StatusInternalServerError})
	r.add(call{d: time.Second}) // no response

	// Nearest rank: index min(⌊p·n⌋, n−1) of the sorted latencies.
	for _, c := range []struct {
		p     float64
		codes []int
		want  float64
	}{
		{0.50, []int{http.StatusOK}, 6},
		{0.99, []int{http.StatusOK}, 10},
		{1.00, []int{http.StatusOK}, 10},
		{0.50, []int{http.StatusTooManyRequests}, 0.7},
		{0.50, nil, 6},
		{0.50, []int{http.StatusGatewayTimeout}, 0},
	} {
		if got := r.pct(c.p, c.codes...); got != c.want {
			t.Errorf("pct(%v, %v) = %v, want %v", c.p, c.codes, got, c.want)
		}
	}
	if got := r.meanMS(http.StatusOK); got != 5.5 {
		t.Errorf("meanMS(200) = %v, want 5.5", got)
	}
	if got := r.n(); got != 14 {
		t.Errorf("n() = %d, want 14", got)
	}
	if r.retryAfter != 1 {
		t.Errorf("retryAfter = %d, want 1", r.retryAfter)
	}
	if got, want := r.unexpected(http.StatusTooManyRequests), map[int]int{0: 1, 500: 1}; !maps.Equal(got, want) {
		t.Errorf("unexpected(429) = %v, want %v", got, want)
	}
	var clean recorder
	clean.add(call{code: http.StatusOK})
	if got := clean.unexpected(); got != nil {
		t.Errorf("unexpected() with only 200s = %v, want nil", got)
	}
}
