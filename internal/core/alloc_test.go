package core

import (
	"fmt"
	"testing"

	"repro/internal/bench"
	"repro/internal/bfunc"
	"repro/internal/pcube"
	"repro/internal/stats"
)

// TestBuildEPPPAllocCeiling is a load-independent gate on the union
// kernel: allocations, unlike wall time, do not move with host load.
// m3 output 3 (a Table 1 function, and a Table 2 row) measured 40,713
// allocations per serial build once duplicate unions stopped
// allocating, against 223,183 when every union built a CEX; the ceiling
// sits about 10% above the new count.
func TestBuildEPPPAllocCeiling(t *testing.T) {
	const ceiling = 45000
	f := bench.MustLoad("m3").Output(3)
	var set *EPPPSet
	allocs := testing.AllocsPerRun(2, func() {
		var err error
		if set, err = BuildEPPP(f, Options{Workers: 1}); err != nil {
			t.Fatal(err)
		}
	})
	if s := set.Stats; s.Unions != 24527 || s.Fresh != 7371 || s.EPPP != 1556 {
		t.Fatalf("m3(3) build changed shape: unions=%d fresh=%d eppp=%d, want 24527/7371/1556",
			s.Unions, s.Fresh, s.EPPP)
	}
	if allocs > ceiling {
		t.Fatalf("BuildEPPP(m3(3), Workers: 1) allocates %.0f times, ceiling %d", allocs, ceiling)
	}
}

// TestBuildEPPPWalksPerDelta is the pair loop's load-independent work
// gate: m3(3)'s build walks the next-level trie once per structure
// group and distinct complement difference δ (pcube.UnionCompVector
// derives every other pair's union), not once per union. The expected
// count comes from a brute-force replay of the levels: group by
// structure, collect the δ of every pair, and carry every union to the
// next level.
func TestBuildEPPPWalksPerDelta(t *testing.T) {
	f := bench.MustLoad("m3").Output(3)
	var pairs, distinct int64
	level := map[string]map[uint64]*pcube.CEX{}
	add := func(to map[string]map[uint64]*pcube.CEX, c *pcube.CEX) {
		g := to[c.StructureKey()]
		if g == nil {
			g = map[uint64]*pcube.CEX{}
			to[c.StructureKey()] = g
		}
		g[c.CompVector()] = c
	}
	for _, p := range f.Care() {
		add(level, pcube.FromPoint(f.N(), p))
	}
	for len(level) > 0 {
		next := map[string]map[uint64]*pcube.CEX{}
		for _, g := range level {
			deltas := map[uint64]bool{}
			for cva, a := range g {
				for cvb, b := range g {
					if cva < cvb {
						pairs++
						deltas[cva^cvb] = true
						add(next, pcube.Union(a, b))
					}
				}
			}
			distinct += int64(len(deltas))
		}
		level = next
	}

	rec := stats.New()
	set, err := BuildEPPP(f, Options{Stats: rec})
	if err != nil {
		t.Fatal(err)
	}
	if set.Stats.Unions != 24527 || pairs != 24527 {
		t.Fatalf("m3(3) has %d unions (brute force %d), want 24527", set.Stats.Unions, pairs)
	}
	t.Logf("m3(3): %d unions, %d distinct (group, δ)", pairs, distinct)
	if walks := rec.Get(stats.CtrTrieWalks); walks != distinct {
		t.Fatalf("BuildEPPP(m3(3)) walks the trie %d times for %d distinct (group, δ) and %d unions",
			walks, distinct, pairs)
	}
}

// BenchmarkBuildEPPP times the serial Algorithm 2 build on two Table 2
// outputs, with allocations reported: m3(3) is the allocation gate's
// instance and max512(5) the largest single build the Table 1 workload
// runs. The exact-cold case is one pass of sppbench's exact-cold
// workload: BuildEPPP and SelectCover on each of the 131 outputs of its
// Table 1 functions (m3, m4, p1, test1, ex5, mlp4), in that order.
func BenchmarkBuildEPPP(b *testing.B) {
	for _, c := range []struct {
		name string
		out  int
	}{{"m3", 3}, {"max512", 5}} {
		f := bench.MustLoad(c.name).Output(c.out)
		b.Run(fmt.Sprintf("%s(%d)", c.name, c.out), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := BuildEPPP(f, Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	var pass []*bfunc.Func
	for _, name := range []string{"m3", "m4", "p1", "test1", "ex5", "mlp4"} {
		pass = append(pass, bench.MustLoad(name).Outputs...)
	}
	b.Run(fmt.Sprintf("exact-cold(%d)", len(pass)), func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, f := range pass {
				set, err := BuildEPPP(f, Options{})
				if err != nil {
					b.Fatal(err)
				}
				if _, _, _, err := SelectCover(f, set, Options{}); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}
