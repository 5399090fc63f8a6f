package core

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/bench"
	"repro/internal/bfunc"
	"repro/internal/pcube"
	"repro/internal/stats"
)

// TestBuildEPPPAllocCeiling is a load-independent gate on the build's
// storage: allocations, unlike wall time, do not move with host load.
// A build keeps its levels in two pooled tries' arrays and copies each
// level's candidates into two exact-size arrays, so no trie node, group
// or pseudoproduct is a heap object of its own. m3(3) (a Table 1
// function, and a Table 2 row) measured 38 allocations per build, down
// from 40,713 with a heap object per trie node, group member and CEX,
// and max512(5) 38, down from 145,967; one exact-cold pass (BuildEPPP
// and SelectCover on its 131 outputs) measured 190,412, down from
// 4,988,430. Each ceiling sits about 10% above its count.
//
// The tries come from a sync.Pool, which a collection empties and the
// race detector drains at random, and a build that misses it grows its
// arrays afresh (about 170 allocations). So a count is the fewest of a
// few runs: the build's own, once the arrays it reuses have grown.
func TestBuildEPPPAllocCeiling(t *testing.T) {
	for _, c := range []struct {
		name    string
		out     int
		ceiling uint64
		groups  int
	}{{"m3", 3, 42, 2019}, {"max512", 5, 42, 5068}} {
		f := bench.MustLoad(c.name).Output(c.out)
		var set *EPPPSet
		allocs := fewestAllocs(5, func() {
			var err error
			if set, err = BuildEPPP(f, Options{Workers: 1}); err != nil {
				t.Fatal(err)
			}
		})
		groups := 0
		for _, g := range set.Stats.Groups {
			groups += g
		}
		if groups != c.groups {
			t.Fatalf("%s(%d) build changed shape: %d groups, want %d", c.name, c.out, groups, c.groups)
		}
		t.Logf("BuildEPPP(%s(%d)): %d allocations for %d groups", c.name, c.out, allocs, groups)
		if allocs > c.ceiling {
			t.Errorf("BuildEPPP(%s(%d)) allocates %d times, ceiling %d", c.name, c.out, allocs, c.ceiling)
		}
	}
	if s := mustBuild(t, bench.MustLoad("m3").Output(3)).Stats; s.Unions != 24527 || s.Fresh != 7371 || s.EPPP != 1556 {
		t.Fatalf("m3(3) build changed shape: unions=%d fresh=%d eppp=%d, want 24527/7371/1556",
			s.Unions, s.Fresh, s.EPPP)
	}

	const passCeiling = 210000
	pass := exactColdPass()
	allocs := fewestAllocs(1, func() {
		for _, f := range pass {
			if _, _, _, err := SelectCover(f, mustBuild(t, f), Options{}); err != nil {
				t.Fatal(err)
			}
		}
	})
	t.Logf("exact-cold pass: %d allocations", allocs)
	if allocs > passCeiling {
		t.Errorf("one exact-cold pass allocates %d times, ceiling %d", allocs, passCeiling)
	}
}

// fewestAllocs calls fn once to warm up, then runs more times, and
// returns the fewest heap allocations one call made.
func fewestAllocs(runs int, fn func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	fn()
	fewest := ^uint64(0)
	var before, after runtime.MemStats
	for i := 0; i < runs; i++ {
		runtime.ReadMemStats(&before)
		fn()
		runtime.ReadMemStats(&after)
		fewest = min(fewest, after.Mallocs-before.Mallocs)
	}
	return fewest
}

func mustBuild(t *testing.T, f *bfunc.Func) *EPPPSet {
	t.Helper()
	set, err := BuildEPPP(f, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return set
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
	pass := exactColdPass()
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

// TestResumeAllocCeiling is the warm path's load-independent gate: the
// mean allocations of a resume over 10 seeded single swaps of each
// edit-loop base, each resumed from the base and then reversed by a
// chained second resume (160 resumes). A resume prices its retraction
// unions from the group's structure and δ, files its fold-ins in a
// pooled unifier's level tries and enumerates point signatures without
// allocating, so it allocates for the groups it patches, the entries
// it creates and its covering lists: 4,452 times, down from 9,668 when
// every union was a CEX and fold-ins were filed by key string. The
// ceiling sits about 10% above. The count is the fewest of a few runs,
// like TestBuildEPPPAllocCeiling's, because the tries come from a
// sync.Pool.
func TestResumeAllocCeiling(t *testing.T) {
	const ceiling = 4900
	cases := editLoopResumes(t, 10)
	resumes := uint64(0)
	allocs := fewestAllocs(3, func() {
		resumes = 0
		resumeSwaps(t, cases, func(*Result, *WarmState) { resumes++ })
	})
	mean := allocs / resumes
	t.Logf("%d resumes: %d allocations each", resumes, mean)
	if mean > ceiling {
		t.Errorf("a resume allocates %d times, ceiling %d", mean, ceiling)
	}
}

// BenchmarkResumeExact times ResumeExact over the resumes of
// TestResumeDigestsPinned, with allocations reported: an even operation
// resumes one single swap of an edit-loop base from the base, the odd
// one after it resumes the reverse edit from the state it returned. So
// every per-op figure is per resume.
func BenchmarkResumeExact(b *testing.B) {
	cases := editLoopResumes(b, 40)
	b.ReportAllocs()
	b.ResetTimer()
	var ws *WarmState
	var d Delta
	for i := 0; i < b.N; i++ {
		if i%2 == 0 {
			j := i / 2
			c := &cases[j%len(cases)]
			ws, d = c.ws, c.deltas[j/len(cases)%len(c.deltas)]
		} else {
			d = d.reverse()
		}
		_, nws, err := ResumeExact(ws, d, Options{})
		if err != nil {
			b.Fatal(err)
		}
		ws = nws
	}
}
