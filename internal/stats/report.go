package stats

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"
)

// Schema identifies the JSON layout of a single-run Report. The
// normative field-by-field description (and the deterministic-vs-sched
// counter contract) lives in docs/stats-schema.md, with the recorder's
// sharding design in DESIGN.md (ablation 10); bump on breaking changes.
const Schema = "spp-stats/v1"

// PhaseTime is one phase's aggregate wall time.
type PhaseTime struct {
	Phase string `json:"phase"`
	// Seconds is total wall time spent in the phase across all its
	// invocations (per-output builds of a multi-output run sum here).
	Seconds float64 `json:"seconds"`
	// Count is the number of timed invocations.
	Count int64 `json:"count"`
}

// LayerSize is one per-degree EPPP layer aggregate.
type LayerSize struct {
	Degree int `json:"degree"`
	// Size is the number of pseudoproducts retained at the degree.
	Size int64 `json:"size"`
	// Groups is the number of structure groups at the degree.
	Groups int64 `json:"groups"`
}

// Report is the machine-readable summary of one run. Counters holds
// the deterministic counters (identical for every worker count on the
// same input); Sched holds the scheduling-dependent ones. Zero-valued
// entries are omitted from both.
type Report struct {
	Schema string `json:"schema"`
	Name   string `json:"name,omitempty"`
	// Workers and CoverWorkers are the pool sizes the run was given
	// (informational; they never influence Counters). Workers counts
	// outputs built at once; every single EPPP build is serial.
	Workers      int              `json:"workers,omitempty"`
	CoverWorkers int              `json:"cover_workers,omitempty"`
	WallSeconds  float64          `json:"wall_seconds"`
	Phases       []PhaseTime      `json:"phases,omitempty"`
	Counters     map[string]int64 `json:"counters,omitempty"`
	Sched        map[string]int64 `json:"sched,omitempty"`
	Layers       []LayerSize      `json:"layers,omitempty"`
}

// Report snapshots the recorder into a serializable Report. WallSeconds
// is the time since the recorder was created. Returns nil on a nil
// recorder.
func (r *Recorder) Report(name string) *Report {
	if r == nil {
		return nil
	}
	rep := &Report{
		Schema:      Schema,
		Name:        name,
		WallSeconds: time.Since(r.start).Seconds(),
	}
	for p := Phase(0); p < numPhases; p++ {
		calls := r.phaseCalls[p].Load()
		if calls == 0 {
			continue
		}
		rep.Phases = append(rep.Phases, PhaseTime{
			Phase:   p.String(),
			Seconds: time.Duration(r.phaseNanos[p].Load()).Seconds(),
			Count:   calls,
		})
	}
	for c := Counter(0); c < numCounters; c++ {
		v := r.counters[c].Load()
		if v == 0 {
			continue
		}
		if c.Deterministic() {
			if rep.Counters == nil {
				rep.Counters = make(map[string]int64)
			}
			rep.Counters[c.String()] = v
		} else {
			if rep.Sched == nil {
				rep.Sched = make(map[string]int64)
			}
			rep.Sched[c.String()] = v
		}
	}
	r.mu.Lock()
	for d := range r.layerSizes {
		if r.layerSizes[d] == 0 && r.layerGroups[d] == 0 {
			continue
		}
		rep.Layers = append(rep.Layers, LayerSize{
			Degree: d,
			Size:   r.layerSizes[d],
			Groups: r.layerGroups[d],
		})
	}
	r.mu.Unlock()
	return rep
}

// PhaseSeconds returns the summed wall time of all phases — the
// instrumented fraction of WallSeconds.
func (rep *Report) PhaseSeconds() float64 {
	var s float64
	for _, p := range rep.Phases {
		s += p.Seconds
	}
	return s
}

// WriteJSON writes the report as indented JSON.
func (rep *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

// Summary writes a human-readable phase/counter table, the `-v` view.
func (rep *Report) Summary(w io.Writer) {
	if rep.Name != "" {
		fmt.Fprintf(w, "%s:\n", rep.Name)
	}
	fmt.Fprintf(w, "  wall time %.3fs", rep.WallSeconds)
	if len(rep.Phases) > 0 {
		fmt.Fprintf(w, " (%.3fs in %d instrumented phases)", rep.PhaseSeconds(), len(rep.Phases))
	}
	fmt.Fprintln(w)
	for _, p := range rep.Phases {
		fmt.Fprintf(w, "  %-18s %9.3fs  x%d\n", p.Phase, p.Seconds, p.Count)
	}
	writeCounterBlock(w, "counters", rep.Counters)
	writeCounterBlock(w, "sched", rep.Sched)
	if len(rep.Layers) > 0 {
		fmt.Fprintf(w, "  layers (degree:size/groups)")
		for _, l := range rep.Layers {
			fmt.Fprintf(w, " %d:%d/%d", l.Degree, l.Size, l.Groups)
		}
		fmt.Fprintln(w)
	}
}

func writeCounterBlock(w io.Writer, title string, m map[string]int64) {
	if len(m) == 0 {
		return
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Fprintf(w, "  %s:\n", title)
	for _, k := range keys {
		fmt.Fprintf(w, "    %-28s %d\n", k, m[k])
	}
}

// RunReport is the multi-report container emitted by cmd/spptables: one
// Report per table row or figure point.
type RunReport struct {
	Schema  string    `json:"schema"`
	Reports []*Report `json:"reports"`
}

// RunSchema identifies the JSON layout of a RunReport; see
// docs/stats-schema.md.
const RunSchema = "spp-stats-run/v1"

// NewRunReport wraps reports (nil entries are dropped).
func NewRunReport(reports ...*Report) *RunReport {
	rr := &RunReport{Schema: RunSchema}
	for _, r := range reports {
		if r != nil {
			rr.Reports = append(rr.Reports, r)
		}
	}
	return rr
}

// WriteJSON writes the run report as indented JSON.
func (rr *RunReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rr)
}
