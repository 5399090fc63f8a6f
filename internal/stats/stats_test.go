package stats

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

// A nil recorder must accept every probe and produce nothing.
func TestNilRecorderSafe(t *testing.T) {
	var r *Recorder
	r.Add(CtrCandidates, 7)
	r.Phase(PhaseEPPP)()
	r.Layer(2, 10, 3)
	ran := false
	r.Do(PhaseCoverExact, func() { ran = true })
	if !ran {
		t.Fatal("Do did not run fn on nil recorder")
	}
	r.Add(CtrUnions, 3)
	if got := r.Get(CtrUnions); got != 0 {
		t.Fatalf("nil recorder Get = %d, want 0", got)
	}
	if rep := r.Report("x"); rep != nil {
		t.Fatalf("nil recorder Report = %+v, want nil", rep)
	}
}

func TestAddGet(t *testing.T) {
	r := New()
	r.Add(CtrCandidates, 5)
	r.Add(CtrCandidates, 2)
	r.Add(CtrUnions, 11)
	if got := r.Get(CtrCandidates); got != 7 {
		t.Errorf("CtrCandidates = %d, want 7", got)
	}
	if got := r.Get(CtrUnions); got != 11 {
		t.Errorf("CtrUnions = %d, want 11", got)
	}
}

// Concurrent Add/Layer from many goroutines must neither race (run
// under -race in check-race) nor lose updates.
func TestConcurrentAccumulation(t *testing.T) {
	r := New()
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				r.Add(CtrCandidates, 1)
				r.Add(CtrUnions, 1)
				r.Layer(3, 1, 0)
			}
		}()
	}
	wg.Wait()
	if got := r.Get(CtrCandidates); got != workers*per {
		t.Errorf("CtrCandidates = %d, want %d", got, workers*per)
	}
	if got := r.Get(CtrUnions); got != workers*per {
		t.Errorf("CtrUnions = %d, want %d", got, workers*per)
	}
	rep := r.Report("")
	if len(rep.Layers) != 1 || rep.Layers[0].Degree != 3 || rep.Layers[0].Size != workers*per {
		t.Errorf("Layers = %+v, want one degree-3 entry of size %d", rep.Layers, workers*per)
	}
}

func TestPhaseTiming(t *testing.T) {
	r := New()
	stop := r.Phase(PhaseCoverGreedy)
	time.Sleep(2 * time.Millisecond)
	stop()
	r.Phase(PhaseCoverGreedy)()
	rep := r.Report("t")
	if len(rep.Phases) != 1 {
		t.Fatalf("Phases = %+v, want exactly one", rep.Phases)
	}
	p := rep.Phases[0]
	if p.Phase != "cover.greedy" || p.Count != 2 {
		t.Errorf("phase = %+v, want cover.greedy x2", p)
	}
	if p.Seconds <= 0 || p.Seconds > rep.WallSeconds+0.001 {
		t.Errorf("phase seconds %v out of range (wall %v)", p.Seconds, rep.WallSeconds)
	}
	if ps := rep.PhaseSeconds(); ps != p.Seconds {
		t.Errorf("PhaseSeconds = %v, want %v", ps, p.Seconds)
	}
}

// Counter classification drives which JSON section a counter lands in;
// the split is what the determinism tests and CI gates diff.
func TestCounterClassification(t *testing.T) {
	det := []Counter{CtrCandidates, CtrEPPP, CtrUnions, CtrFresh, CtrComparisons,
		CtrCoverColumns, CtrCoverDCOnly, CtrCoverGray, CtrCoverContains,
		CtrGreedyPicks, CtrGreedyReevals, CtrGreedyRedundant,
		CtrReduceEssential, CtrReduceRowDom, CtrReduceColDom,
		CtrCoverDirty}
	sched := []Counter{CtrTrieNodes, CtrTrieWalks, CtrExactNodes,
		CtrExactBoundPrunes, CtrExactLBPrunes, CtrExactRootBranches}
	for _, c := range det {
		if !c.Deterministic() {
			t.Errorf("%v classified sched, want deterministic", c)
		}
	}
	for _, c := range sched {
		if c.Deterministic() {
			t.Errorf("%v classified deterministic, want sched", c)
		}
	}
	if len(det)+len(sched) != int(numCounters) {
		t.Errorf("test covers %d counters, package has %d", len(det)+len(sched), numCounters)
	}
	seen := map[string]bool{}
	for c := Counter(0); c < numCounters; c++ {
		name := c.String()
		if name == "" || name == "unknown" || seen[name] {
			t.Errorf("counter %d has bad/duplicate name %q", c, name)
		}
		seen[name] = true
	}
	for p := Phase(0); p < numPhases; p++ {
		if p.String() == "" || p.String() == "unknown" {
			t.Errorf("phase %d has no name", p)
		}
	}
}

func TestReportJSONRoundTrip(t *testing.T) {
	r := New()
	r.Add(CtrCandidates, 42)
	r.Add(CtrExactNodes, 9)
	r.Layer(1, 4, 2)
	r.Phase(PhaseEPPP)()
	rep := r.Report("adr4")
	rep.Workers, rep.CoverWorkers = 4, 2

	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if back.Schema != Schema || back.Name != "adr4" || back.Workers != 4 {
		t.Errorf("round trip lost header: %+v", back)
	}
	if back.Counters["eppp.candidates"] != 42 {
		t.Errorf("Counters = %v, want eppp.candidates=42", back.Counters)
	}
	if back.Sched["cover.exact_nodes"] != 9 {
		t.Errorf("Sched = %v, want cover.exact_nodes=9", back.Sched)
	}
	if _, inDet := back.Counters["cover.exact_nodes"]; inDet {
		t.Error("sched counter leaked into deterministic section")
	}
	if len(back.Layers) != 1 || back.Layers[0] != (LayerSize{Degree: 1, Size: 4, Groups: 2}) {
		t.Errorf("Layers = %+v", back.Layers)
	}
}

func TestZeroEntriesOmitted(t *testing.T) {
	r := New()
	r.Add(CtrUnions, 1)
	rep := r.Report("")
	if len(rep.Counters) != 1 {
		t.Errorf("Counters = %v, want only eppp.unions", rep.Counters)
	}
	if rep.Sched != nil {
		t.Errorf("Sched = %v, want nil", rep.Sched)
	}
	if len(rep.Phases) != 0 {
		t.Errorf("Phases = %v, want empty", rep.Phases)
	}
}

func TestSummary(t *testing.T) {
	r := New()
	r.Add(CtrCandidates, 3)
	r.Add(CtrTrieNodes, 5)
	r.Layer(0, 2, 1)
	r.Phase(PhaseCoverGreedy)()
	var buf bytes.Buffer
	r.Report("demo").Summary(&buf)
	out := buf.String()
	for _, want := range []string{"demo:", "wall time", "cover.greedy",
		"eppp.candidates", "eppp.trie_nodes", "layers", "0:2/1"} {
		if !strings.Contains(out, want) {
			t.Errorf("Summary output missing %q:\n%s", want, out)
		}
	}
}

func TestRunReport(t *testing.T) {
	a := New().Report("a")
	rr := NewRunReport(a, nil, New().Report("b"))
	if len(rr.Reports) != 2 {
		t.Fatalf("Reports = %d, want 2 (nil dropped)", len(rr.Reports))
	}
	var buf bytes.Buffer
	if err := rr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back RunReport
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if back.Schema != RunSchema || len(back.Reports) != 2 {
		t.Errorf("round trip: %+v", back)
	}
}

// Do with labels must still run fn and propagate per-goroutine labels
// without interfering with counters.
func TestLabeledDo(t *testing.T) {
	r := NewLabeled()
	done := make(chan struct{})
	go r.Do(PhaseEPPP, func() {
		r.Add(CtrCandidates, 1)
		close(done)
	})
	<-done
	if got := r.Get(CtrCandidates); got != 1 {
		t.Fatalf("counter after labeled Do = %d, want 1", got)
	}
}
