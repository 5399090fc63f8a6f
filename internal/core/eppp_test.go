package core

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/bench"
	"repro/internal/bfunc"
	"repro/internal/pcube"
	"repro/internal/ptrie"
)

// perUnionBuild is BuildEPPP with the pair loop that unions every pair
// of CEXs and walks the next trie for every union: pcube.UnionInto, the
// discard rule on the scratch, then ptrie.InsertFactors. It is the
// reference the δ-memo kernel, which derives a union's structure from δ
// (pcube.UnionMasks), must match in candidate order and in every
// BuildStats count.
func perUnionBuild(f *bfunc.Func) ([]*pcube.CEX, BuildStats) {
	n := f.N()
	cur := ptrie.New(n)
	for _, p := range f.Care() {
		cur.Insert(pcube.FromPoint(n, p))
	}
	var bst BuildStats
	var cands []*pcube.CEX
	var buf []pcube.Factor
	for cur.Len() > 0 {
		bst.LevelSizes = append(bst.LevelSizes, cur.Len())
		bst.Groups = append(bst.Groups, cur.NumGroups())
		next := ptrie.New(n)
		cur.Groups(func(g ptrie.Group) bool {
			var es []*pcube.CEX
			for _, cv := range g.CompVectors(nil) {
				es = append(es, pcube.NewCEX(n, g.Canon(), pcube.AppendFactors(nil, g.Masks(), cv)))
			}
			mark := make([]bool, len(es))
			for i := range es {
				for j := i + 1; j < len(es); j++ {
					fs, canon, _ := pcube.UnionInto(buf, es[i], es[j])
					buf = fs
					bst.Unions++
					h := pcube.FactorLiterals(fs)
					if h <= es[i].Literals() {
						mark[i] = true
					}
					if h <= es[j].Literals() {
						mark[j] = true
					}
					if next.InsertFactors(canon, fs) {
						bst.Fresh++
					}
				}
			}
			for i, c := range es {
				if !mark[i] {
					cands = append(cands, c)
				}
			}
			return true
		})
		bst.Candidates += cur.Len()
		cur = next
	}
	bst.EPPP = len(cands)
	return cands, bst
}

// TestBuildEPPPMatchesPerUnionInsert holds BuildEPPP, which walks the
// next trie once per group and δ and builds factors only for fresh
// unions, to the per-union reference: the same candidates in the same
// order, and the same Candidates, EPPP, Unions, Fresh, LevelSizes and
// Groups, on random functions with and without don't-cares and on
// m3(3).
func TestBuildEPPPMatchesPerUnionInsert(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	fs := []*bfunc.Func{bench.MustLoad("m3").Output(3)}
	for trial := 0; trial < 40; trial++ {
		fs = append(fs, randomFunc(rng, 3+rng.Intn(5), 0.2+0.4*rng.Float64(), trial%2 == 0))
	}
	for k, f := range fs {
		set, err := BuildEPPP(f, Options{})
		if err != nil {
			t.Fatal(err)
		}
		want, ws := perUnionBuild(f)
		if !slices.EqualFunc(set.Candidates, want, (*pcube.CEX).Equal) {
			t.Fatalf("function %d: candidates differ from the per-union build (%d vs %d)", k, len(set.Candidates), len(want))
		}
		gs := set.Stats
		if gs.Candidates != ws.Candidates || gs.EPPP != ws.EPPP || gs.Unions != ws.Unions || gs.Fresh != ws.Fresh ||
			!slices.Equal(gs.LevelSizes, ws.LevelSizes) || !slices.Equal(gs.Groups, ws.Groups) {
			t.Fatalf("function %d: stats %+v, per-union build %+v", k, gs, ws)
		}
	}
}
