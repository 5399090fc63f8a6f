package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math/rand"
	"testing"

	"repro/internal/bench"
	"repro/internal/bfunc"
	"repro/internal/pcube"
	"repro/internal/stats"
)

// exactColdPass is one pass of the exact-cold workload: every output of
// the Table 1 functions m3, m4, p1, test1, ex5 and mlp4, in that order
// (131 outputs).
func exactColdPass() []*bfunc.Func {
	var pass []*bfunc.Func
	for _, name := range []string{"m3", "m4", "p1", "test1", "ex5", "mlp4"} {
		pass = append(pass, bench.MustLoad(name).Outputs...)
	}
	return pass
}

// editLoopBases are the eight bases of the edit-loop workload's delta
// chains, as (function, output).
var editLoopBases = []struct {
	name string
	out  int
}{
	{"m4", 3}, {"max512", 1}, {"mlp4", 2}, {"ex5", 0},
	{"dist", 1}, {"m4", 0}, {"m3", 4}, {"mlp4", 1},
}

// digestStats writes every deterministic BuildStats field (all but
// BuildTime) and the recorder's trie counters.
func digestStats(h hash.Hash, b BuildStats, rec *stats.Recorder) {
	fmt.Fprintf(h, "stats %d %d %d %d %d %v %v nodes %d walks %d\n",
		b.Candidates, b.EPPP, b.Unions, b.Fresh, b.Comparisons, b.LevelSizes, b.Groups,
		rec.Get(stats.CtrTrieNodes), rec.Get(stats.CtrTrieWalks))
}

func digestForm(h hash.Hash, f Form) {
	fmt.Fprintf(h, "form %d", f.N)
	for _, t := range f.Terms {
		fmt.Fprintf(h, " %x", t.Key())
	}
	fmt.Fprintln(h)
}

// TestBuildDigestsPinned holds Algorithm 2's engines byte-identical to
// the pointer-node partition trie they replaced, by SHA-256 over:
//
//   - for each of the 131 exact-cold outputs: BuildEPPP's candidate
//     keys in order, its BuildStats without BuildTime, its
//     eppp.trie_nodes and eppp.trie_walks counters, and SelectCover's
//     greedy form;
//   - Heuristic's forms and stats at k = 0 and k = 1 on the same
//     outputs;
//   - MinimizeExactWarm's form and WarmState.Bytes() on the eight
//     edit-loop bases.
//
// The digests were recorded from the pointer-node trie; any change to a
// candidate's order or bytes, a counter or a form fails the test.
func TestBuildDigestsPinned(t *testing.T) {
	const (
		wantBuild     = "8b5bae0ed604e5bc08fe55a3a82c11e0edd5677ae08eadc9bb1c6e44d1d6e3bb"
		wantHeuristic = "d0b75b87246d213b4f8cc50fb886837facec10c7c4f4348983b8ca12d1dc93bb"
		wantWarm      = "79ccb31f022963e1ed2709508b663f92b5c624c4826a8fb487e48edf6d15eaa6"
	)
	pass := exactColdPass()
	if len(pass) != 131 {
		t.Fatalf("exact-cold pass has %d outputs, want 131", len(pass))
	}
	build, heur, warm := sha256.New(), sha256.New(), sha256.New()
	for i, f := range pass {
		rec := stats.New()
		set, err := BuildEPPP(f, Options{Stats: rec})
		if err != nil {
			t.Fatalf("output %d: %v", i, err)
		}
		fmt.Fprintf(build, "output %d %d\n", i, len(set.Candidates))
		for _, c := range set.Candidates {
			fmt.Fprintf(build, "%x\n", c.Key())
		}
		digestStats(build, set.Stats, rec)
		form, _, _, err := SelectCover(f, set, Options{})
		if err != nil {
			t.Fatalf("output %d: %v", i, err)
		}
		digestForm(build, form)

		for k := 0; k <= 1; k++ {
			rec := stats.New()
			res, err := Heuristic(f, k, Options{Stats: rec})
			if err != nil {
				t.Fatalf("output %d, k = %d: %v", i, k, err)
			}
			fmt.Fprintf(heur, "output %d k %d optimal %v\n", i, k, res.CoverOptimal)
			digestStats(heur, res.Build, rec)
			digestForm(heur, res.Form)
		}
	}
	for _, b := range editLoopBases {
		res, ws, err := MinimizeExactWarm(bench.MustLoad(b.name).Output(b.out), Options{})
		if err != nil {
			t.Fatalf("%s(%d): %v", b.name, b.out, err)
		}
		fmt.Fprintf(warm, "%s %d bytes %d\n", b.name, b.out, ws.Bytes())
		digestForm(warm, res.Form)
	}
	for _, d := range []struct {
		name string
		h    hash.Hash
		want string
	}{{"build", build, wantBuild}, {"heuristic", heur, wantHeuristic}, {"warm", warm, wantWarm}} {
		if got := hex.EncodeToString(d.h.Sum(nil)); got != d.want {
			t.Errorf("%s digest %s, want %s", d.name, got, d.want)
		}
	}
}

// resumeCase is one edit-loop base with its warm state and seeded
// single-swap edits: each turns one OFF point ON and one ON point OFF,
// as the edit-loop workload's chains do.
type resumeCase struct {
	name   string
	ws     *WarmState
	deltas []Delta
}

// editLoopResumes captures the warm state of each edit-loop base and
// draws swaps single-swap edits of it, seeded per base.
func editLoopResumes(tb testing.TB, swaps int) []resumeCase {
	tb.Helper()
	var cases []resumeCase
	for i, b := range editLoopBases {
		f := bench.MustLoad(b.name).Output(b.out)
		_, ws, err := MinimizeExactWarm(f, Options{})
		if err != nil {
			tb.Fatalf("%s(%d): %v", b.name, b.out, err)
		}
		rng := rand.New(rand.NewSource(int64(i + 1)))
		on, space := f.On(), int64(1)<<uint(f.N())
		c := resumeCase{name: fmt.Sprintf("%s(%d)", b.name, b.out), ws: ws}
		for len(c.deltas) < swaps {
			add := uint64(rng.Int63n(space))
			if f.IsOn(add) || f.IsDC(add) {
				continue
			}
			c.deltas = append(c.deltas, Delta{AddOn: []uint64{add}, RemoveOn: []uint64{on[rng.Intn(len(on))]}})
		}
		cases = append(cases, c)
	}
	return cases
}

// reverse is the edit that takes a single swap back.
func (d Delta) reverse() Delta { return Delta{AddOn: d.RemoveOn, RemoveOn: d.AddOn} }

// resumeSwaps runs every edit of every case as a resume from its base,
// then the reverse edit as a resume chained on the first, and hands
// each result and state to visit.
func resumeSwaps(tb testing.TB, cases []resumeCase, visit func(*Result, *WarmState)) {
	tb.Helper()
	for _, c := range cases {
		for _, d := range c.deltas {
			ws := c.ws
			for _, e := range []Delta{d, d.reverse()} {
				res, nws, err := ResumeExact(ws, e, Options{})
				if err != nil {
					tb.Fatalf("%s: resume %+v: %v", c.name, e, err)
				}
				visit(res, nws)
				ws = nws
			}
		}
	}
}

// digestResume writes a resume's form, its BuildStats without
// BuildTime, its candidate keys in order, every warm entry (group
// path, key, point signature, discard count and candidate bit, in
// level, group and entry order) and the state's Bytes().
func digestResume(h hash.Hash, res *Result, ws *WarmState) {
	digestForm(h, res.Form)
	b := res.Build
	fmt.Fprintf(h, "stats %d %d %d %d %d %v %v\n",
		b.Candidates, b.EPPP, b.Unions, b.Fresh, b.Comparisons, b.LevelSizes, b.Groups)
	var buf []byte
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(ws.cands)))
	for _, c := range ws.cands {
		buf = pcube.AppendKey(buf, c.Factors)
	}
	h.Write(buf)
	for li, l := range ws.levels {
		for _, g := range l.groups {
			buf = fmt.Appendf(buf[:0], "level %d group %x %d\n", li, g.path, len(g.entries))
			for _, e := range g.entries {
				buf = pcube.AppendKey(buf, e.cex.Factors)
				buf = binary.LittleEndian.AppendUint64(buf, e.sig)
				buf = binary.LittleEndian.AppendUint32(buf, uint32(e.markCnt))
				if e.prevCand {
					buf = append(buf, 1)
				} else {
					buf = append(buf, 0)
				}
			}
			h.Write(buf)
		}
	}
	fmt.Fprintf(h, "bytes %d\n", ws.Bytes())
}

// TestResumeDigestsPinned holds ResumeExact byte-identical to the
// resumer that built every union as a CEX, by SHA-256 over 40 seeded
// single swaps of each of the eight edit-loop bases, each resumed from
// the base and then reversed by a second resume chained on the first
// (640 resumes): digestResume of every result and state. Any change to
// a form, a BuildStats field, a candidate's order or bytes, a warm
// entry or the charged bytes fails the test.
func TestResumeDigestsPinned(t *testing.T) {
	const want = "b7f41fac765240b25a43f63771fe6d5a57a85ca2eb6b1b168a107a3ca676a27c"
	h := sha256.New()
	resumeSwaps(t, editLoopResumes(t, 40), func(res *Result, ws *WarmState) {
		digestResume(h, res, ws)
	})
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("resume digest %s, want %s", got, want)
	}
}
