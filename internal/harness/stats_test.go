package harness

import (
	"bytes"
	"testing"

	"repro/internal/bench"
)

func TestCoreOptionsPlumbsCoverMaxNodes(t *testing.T) {
	cfg := fastCfg()
	cfg.CoverMaxNodes = 12345
	if got := cfg.CoreOptions().CoverMaxNodes; got != 12345 {
		t.Fatalf("CoreOptions().CoverMaxNodes = %d, want 12345", got)
	}
	cfg.CoverExact = true
	cfg.CoverWorkers = 3
	opts := cfg.CoreOptions()
	if !opts.CoverExact || opts.CoverWorkers != 3 || opts.CoverMaxNodes != 12345 {
		t.Fatalf("CoreOptions dropped fields: %+v", opts)
	}
}

func TestMinimizeFuncAttachesStats(t *testing.T) {
	r := MinimizeFunc(bench.MustLoad("life"), fastCfg())
	if r.Stats == nil {
		t.Fatal("FuncResult.Stats not attached")
	}
	if r.Stats.Name != "table1/life" {
		t.Fatalf("report name %q", r.Stats.Name)
	}
	if r.Stats.Counters["eppp.retained"] != int64(r.EPPP) {
		t.Fatalf("report eppp.retained %d != row EPPP %d",
			r.Stats.Counters["eppp.retained"], r.EPPP)
	}
	if len(r.Stats.Phases) == 0 || r.Stats.PhaseSeconds() <= 0 {
		t.Fatalf("no phases recorded: %+v", r.Stats.Phases)
	}
}

func TestTable2AttachesStats(t *testing.T) {
	var buf bytes.Buffer
	rows := Table2(&buf, []OutputCase{{Func: "risc", Output: 2}}, fastCfg())
	r := rows[0]
	if r.TrieStats == nil || r.NaiveStats == nil {
		t.Fatalf("per-engine reports missing: %+v", r)
	}
	if r.TrieStats.Name != "table2/risc(2)/alg2" || r.NaiveStats.Name != "table2/risc(2)/naive" {
		t.Fatalf("report names %q / %q", r.TrieStats.Name, r.NaiveStats.Name)
	}
	// The two engines count their work in different currencies; both
	// must show up in their own report.
	if r.TrieStats.Counters["eppp.unions"] != r.TrieUnions {
		t.Fatalf("trie report unions %d != row %d",
			r.TrieStats.Counters["eppp.unions"], r.TrieUnions)
	}
	if r.NaiveStats.Counters["eppp.naive_comparisons"] != r.NaiveComparisons {
		t.Fatalf("naive report comparisons %d != row %d",
			r.NaiveStats.Counters["eppp.naive_comparisons"], r.NaiveComparisons)
	}
}

func TestTable3AttachesStats(t *testing.T) {
	var buf bytes.Buffer
	rows := Table3(&buf, []string{"mlp4"}, fastCfg())
	r := rows[0]
	if r.Stats == nil || r.Stats.Name != "table3/mlp4" {
		t.Fatalf("report missing or misnamed: %+v", r.Stats)
	}
	phases := map[string]bool{}
	for _, p := range r.Stats.Phases {
		phases[p.Phase] = true
	}
	// The row runs both the heuristic and the exact pass on one
	// recorder; both pipelines' phases must be present.
	for _, want := range []string{"eppp", "heuristic.seed", "cover.greedy"} {
		if !phases[want] {
			t.Fatalf("phases %v missing %q", r.Stats.Phases, want)
		}
	}
}
