package core

import (
	"slices"
	"testing"

	"repro/internal/bfunc"
)

// FuzzParseForm checks the SPP expression parser never panics and that
// accepted expressions round-trip through String and re-parse to an
// equivalent form.
func FuzzParseForm(f *testing.F) {
	f.Add(4, "x1·(x0⊕x̄2) + x̄0·x2")
	f.Add(4, "x1*(x0^!x2) + !x0*x2")
	f.Add(3, "0")
	f.Add(3, "1")
	f.Add(5, "(x0⊕x1⊕x2⊕x3⊕x4)")
	f.Add(2, "x0·x̄0")
	f.Add(6, "x0 | x1 & x2")
	f.Fuzz(func(t *testing.T, n int, src string) {
		if n < 1 || n > 16 {
			return
		}
		form, err := ParseForm(n, src)
		if err != nil {
			return
		}
		rendered := form.String()
		again, err := ParseForm(n, rendered)
		if err != nil {
			t.Fatalf("rendered form %q failed to re-parse: %v", rendered, err)
		}
		if again.String() != rendered {
			t.Fatalf("render not stable: %q -> %q", rendered, again.String())
		}
		for p := uint64(0); p < 1<<uint(n) && p < 256; p++ {
			if form.Eval(p) != again.Eval(p) {
				t.Fatalf("round trip changed semantics at %b", p)
			}
		}
	})
}

// FuzzBuildEPPP holds the three EPPP builders to one another on fuzzed
// functions: n in [1, 7], the ON and DC sets as 128-bit point masks
// (a point in both is ON). The trie build, the hash-grouped ablation
// and the naive baseline must return the same candidate set, and the
// trie and hash-grouped builds, which run the same pair loop over
// different grouping indexes, the same Unions, Fresh, LevelSizes and
// Groups.
func FuzzBuildEPPP(f *testing.F) {
	f.Add(uint8(2), uint64(0x5a), uint64(0), uint64(0x21), uint64(0))
	f.Add(uint8(3), uint64(0x96696996), uint64(0), uint64(0x1008), uint64(0))
	f.Add(uint8(6), uint64(0x0123456789abcdef), uint64(0xfedcba9876543210), uint64(0x1111), uint64(0x8000))
	f.Add(uint8(0), uint64(1), uint64(0), uint64(0), uint64(0))
	f.Add(uint8(5), uint64(0), uint64(0), uint64(0xffffffff), uint64(0))
	f.Fuzz(func(t *testing.T, nb uint8, on0, on1, dc0, dc1 uint64) {
		n := 1 + int(nb%7)
		var on, dc []uint64
		for p := uint64(0); p < 1<<uint(n); p++ {
			w, b := on0, p
			if p >= 64 {
				w, b = on1, p-64
			}
			if w>>b&1 != 0 {
				on = append(on, p)
				continue
			}
			if w, b = dc0, p; p >= 64 {
				w, b = dc1, p-64
			}
			if w>>b&1 != 0 {
				dc = append(dc, p)
			}
		}
		fn := bfunc.NewDC(n, on, dc)
		trie, err := BuildEPPP(fn, Options{})
		if err != nil {
			t.Fatal(err)
		}
		hash, err := BuildEPPPHashGrouped(fn, Options{})
		if err != nil {
			t.Fatal(err)
		}
		naive, err := BuildEPPPNaive(fn, Options{})
		if err != nil {
			t.Fatal(err)
		}
		keys := func(set *EPPPSet) []string {
			ks := make([]string, len(set.Candidates))
			for i, c := range set.Candidates {
				ks[i] = c.Key()
			}
			slices.Sort(ks)
			return ks
		}
		kt := keys(trie)
		if len(slices.Compact(slices.Clone(kt))) != len(kt) {
			t.Fatal("trie build returned a candidate twice")
		}
		if !slices.Equal(kt, keys(hash)) || !slices.Equal(kt, keys(naive)) {
			t.Fatalf("candidate sets differ: trie %d, hash-grouped %d, naive %d",
				len(trie.Candidates), len(hash.Candidates), len(naive.Candidates))
		}
		ts, hs := trie.Stats, hash.Stats
		if ts.Unions != hs.Unions || ts.Fresh != hs.Fresh ||
			!slices.Equal(ts.LevelSizes, hs.LevelSizes) || !slices.Equal(ts.Groups, hs.Groups) {
			t.Fatalf("trie and hash-grouped builds differ: unions %d/%d fresh %d/%d levels %v/%v groups %v/%v",
				ts.Unions, hs.Unions, ts.Fresh, hs.Fresh, ts.LevelSizes, hs.LevelSizes, ts.Groups, hs.Groups)
		}
	})
}
