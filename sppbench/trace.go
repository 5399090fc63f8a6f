package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed interval of the traced run. Start and End are
// nanoseconds since the tracer's epoch; Parent is the index of the
// enclosing span in the tracer, -1 for an op's root.
type span struct {
	Name   string `json:"name"`
	Op     int    `json:"op"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps the spans of one traced run in memory; write dumps them
// when the run ends. Spans are recorded around the benchmark's own calls
// into each layer's public functions, plus spans placed from what the
// program reports about itself (a response's elapsed_ns and stats
// phases), which the caller positions inside their parent.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) ns(at time.Time) int64 { return at.Sub(t.epoch).Nanoseconds() }

// add records a span and returns its index for use as a parent.
func (t *tracer) add(name string, op, parent int, start, end int64) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Op: op, Parent: parent, Start: start, End: end})
	return len(t.spans) - 1
}

// addAt is add with wall-clock endpoints.
func (t *tracer) addAt(name string, op, parent int, start, end time.Time) int {
	return t.add(name, op, parent, t.ns(start), t.ns(end))
}

// selfTimes returns, per span, its duration minus the part of its
// interval that its children cover (overlapping children count once).
func selfTimes(spans []span) []int64 {
	kids := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		ivs := make([][2]int64, 0, len(kids[i]))
		for _, k := range kids[i] {
			a, b := max(spans[k].Start, s.Start), min(spans[k].End, s.End)
			if a < b {
				ivs = append(ivs, [2]int64{a, b})
			}
		}
		sort.Slice(ivs, func(a, b int) bool { return ivs[a][0] < ivs[b][0] })
		var covered, reach int64 = 0, s.Start
		for _, iv := range ivs {
			a := max(iv[0], reach)
			if iv[1] > a {
				covered += iv[1] - a
				reach = iv[1]
			}
		}
		self[i] = s.dur() - covered
	}
	return self
}

// layerTimes groups self and total times (ms) by span name, one sample
// per span.
func (t *tracer) layerTimes() (self, total map[string][]float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	st := selfTimes(t.spans)
	self, total = map[string][]float64{}, map[string][]float64{}
	for i, s := range t.spans {
		self[s.Name] = append(self[s.Name], float64(st[i])/1e6)
		total[s.Name] = append(total[s.Name], float64(s.dur())/1e6)
	}
	return self, total
}

// write dumps the spans as JSON lines to path.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}

// mean of vals, 0 for none (a layer the workload never calls).
func mean(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := 0.0
	for _, v := range vals {
		s += v
	}
	return s / float64(len(vals))
}
