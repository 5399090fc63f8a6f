package ptrie

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/bitvec"
	"repro/internal/pcube"
)

func randomCEX(rng *rand.Rand, n, degree int) *pcube.CEX {
	c := pcube.FromPoint(n, rng.Uint64()&bitvec.SpaceMask(n))
	for c.Degree() < degree {
		nc := bitvec.SpaceMask(n) &^ c.Canon
		var alpha uint64
		for alpha == 0 {
			alpha = rng.Uint64() & nc
		}
		c = pcube.Union(c, c.Transform(alpha))
	}
	return c
}

func TestInsertDedup(t *testing.T) {
	tr := New(6)
	c := pcube.FromPoint(6, 0b010101)
	e1, fresh1 := tr.Insert(c)
	if !fresh1 || tr.Len() != 1 {
		t.Fatalf("first insert: fresh=%v len=%d", fresh1, tr.Len())
	}
	e2, fresh2 := tr.Insert(pcube.FromPoint(6, 0b010101))
	if fresh2 || e1 != e2 || tr.Len() != 1 {
		t.Fatalf("duplicate insert must dedup")
	}
	// Same structure, different complement vector: same group.
	e3, fresh3 := tr.Insert(pcube.FromPoint(6, 0b111111))
	if !fresh3 || e3 == e1 {
		t.Fatal("distinct comp vector must create a new leaf")
	}
	if tr.NumGroups() != 1 {
		t.Fatalf("groups = %d, want 1 (all points share the structure x0·…·x5)", tr.NumGroups())
	}
	if tr.Len() != 2 {
		t.Fatalf("len = %d", tr.Len())
	}
}

func TestProperty1GroupsEqualStructures(t *testing.T) {
	// Paper Property 1: two leaves share a parent iff same structure.
	rng := rand.New(rand.NewSource(3))
	n := 7
	tr := New(n)
	var all []*pcube.CEX
	for i := 0; i < 400; i++ {
		c := randomCEX(rng, n, rng.Intn(n))
		if _, fresh := tr.Insert(c); fresh {
			all = append(all, c)
		}
	}
	if tr.Len() != len(all) {
		t.Fatalf("len=%d inserted=%d", tr.Len(), len(all))
	}
	// Count structures independently.
	structs := map[string]int{}
	for _, c := range all {
		structs[c.StructureKey()]++
	}
	if tr.NumGroups() != len(structs) {
		t.Fatalf("groups=%d, distinct structures=%d", tr.NumGroups(), len(structs))
	}
	seen := 0
	tr.Groups(func(es []*Entry) bool {
		seen++
		key := es[0].CEX.StructureKey()
		if len(es) != structs[key] {
			t.Fatalf("group size %d, want %d", len(es), structs[key])
		}
		for _, e := range es {
			if e.CEX.StructureKey() != key {
				t.Fatal("mixed structures in one group")
			}
		}
		return true
	})
	if seen != tr.NumGroups() {
		t.Fatalf("visited %d groups, NumGroups=%d", seen, tr.NumGroups())
	}
}

func TestSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	n := 6
	tr := New(n)
	var members []*pcube.CEX
	for i := 0; i < 100; i++ {
		c := randomCEX(rng, n, rng.Intn(n))
		tr.Insert(c)
		members = append(members, c)
	}
	for _, c := range members {
		if tr.Search(c) == nil {
			t.Fatalf("Search missed inserted CEX %v", c)
		}
	}
	// A CEX not inserted (fresh structure) must not be found.
	missing := pcube.FromPoint(n, 0)
	missing = pcube.Union(missing, missing.Transform(bitvec.MaskOf(n, 0, 5)))
	if tr.Search(missing) != nil {
		// It might coincidentally be there; verify by checking equality.
		found := false
		for _, c := range members {
			if c.Equal(missing) {
				found = true
			}
		}
		if !found {
			t.Fatal("Search found a CEX that was never inserted")
		}
	}
}

func TestEntriesVisitAndEarlyStop(t *testing.T) {
	tr := New(4)
	for p := uint64(0); p < 8; p++ {
		tr.Insert(pcube.FromPoint(4, p))
	}
	count := 0
	tr.Entries(func(*Entry) bool {
		count++
		return true
	})
	if count != 8 {
		t.Fatalf("visited %d entries", count)
	}
	count = 0
	tr.Entries(func(*Entry) bool {
		count++
		return count < 3
	})
	if count != 3 {
		t.Fatalf("early stop ignored: %d", count)
	}
}

func TestChildOrderingNCBeforeC(t *testing.T) {
	// The paper's figure-2 path: CEX (x0⊕x̄1)·x4·(x0⊕x2⊕x̄5)·(x3⊕x6)·
	// (x2⊕x3⊕x8) in B^9 — insert it and a few same-structure variants
	// and check trie accounting.
	n := 9
	c := &pcube.CEX{N: n, Canon: bitvec.MaskOf(n, 0, 2, 3, 7), Factors: []pcube.Factor{
		{Vars: bitvec.MaskOf(n, 0, 1), Comp: 1},
		{Vars: bitvec.MaskOf(n, 4), Comp: 0},
		{Vars: bitvec.MaskOf(n, 0, 2, 5), Comp: 1},
		{Vars: bitvec.MaskOf(n, 3, 6), Comp: 0},
		{Vars: bitvec.MaskOf(n, 2, 3, 8), Comp: 0},
	}}
	if err := c.Verify(); err != nil {
		t.Fatal(err)
	}
	tr := New(n)
	tr.Insert(c)
	// Path nodes: NC1,C0 | NC4 | NC5,C0,C2 | NC6,C3 | NC8,C2,C3 = 11.
	if tr.NumInternalNodes() != 11 {
		t.Fatalf("internal nodes = %d, want 11", tr.NumInternalNodes())
	}
	if tr.NumNCNodes() != 5 {
		t.Fatalf("NC nodes = %d, want 5", tr.NumNCNodes())
	}
	// A same-structure variant shares the whole path.
	tr.Insert(c.Transform(bitvec.MaskOf(n, 1, 4)))
	if tr.NumInternalNodes() != 11 || tr.NumGroups() != 1 || tr.Len() != 2 {
		t.Fatalf("same-structure insert must reuse path: nodes=%d groups=%d len=%d",
			tr.NumInternalNodes(), tr.NumGroups(), tr.Len())
	}
	// A different structure sharing the first factor shares its prefix.
	d := &pcube.CEX{N: n, Canon: bitvec.MaskOf(n, 0, 2, 3, 4, 5, 6, 7), Factors: []pcube.Factor{
		{Vars: bitvec.MaskOf(n, 0, 1), Comp: 0},
		{Vars: bitvec.MaskOf(n, 2, 8), Comp: 1},
	}}
	if err := d.Verify(); err != nil {
		t.Fatal(err)
	}
	tr.Insert(d)
	// New nodes: NC8,C2 under the existing NC1→C0 prefix = +2.
	if tr.NumInternalNodes() != 13 {
		t.Fatalf("prefix sharing failed: nodes=%d, want 13", tr.NumInternalNodes())
	}
	if tr.NumGroups() != 2 {
		t.Fatalf("groups = %d", tr.NumGroups())
	}
}

func TestDimensionMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(4).Insert(pcube.FromPoint(5, 0))
}

// pathGroupsDump renders a trie's PathGroups output — path keys and the
// member keys in stored order — for byte comparison.
func pathGroupsDump(tr *Trie) string {
	var sb strings.Builder
	tr.PathGroups(func(path []byte, es []*Entry) bool {
		sb.Write(path)
		sb.WriteByte('|')
		for _, e := range es {
			sb.WriteString(e.CEX.Key())
			sb.WriteByte(';')
		}
		sb.WriteByte('\n')
		return true
	})
	return sb.String()
}

func TestInsertFactorsMatchesInsert(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	n := 7
	viaCEX, viaFactors := New(n), New(n)
	scratch := make([]pcube.Factor, 0, n)
	for i := 0; i < 600; i++ {
		c := randomCEX(rng, n, rng.Intn(n))
		e1, fresh1 := viaCEX.Insert(c)
		scratch = append(scratch[:0], c.Factors...)
		e2, fresh2 := viaFactors.InsertFactors(c.Canon, scratch)
		// The trie must have copied the scratch on a fresh insert.
		for j := range scratch {
			scratch[j] = pcube.Factor{Vars: ^uint64(0), Comp: 1}
		}
		if fresh1 != fresh2 {
			t.Fatalf("insert %d: Insert fresh=%v, InsertFactors fresh=%v", i, fresh1, fresh2)
		}
		if !e1.CEX.Equal(e2.CEX) || e2.CEX.Literals() != c.Literals() || e2.CEX.CompVector() != c.CompVector() {
			t.Fatalf("insert %d: entries differ: %v vs %v", i, e1.CEX, e2.CEX)
		}
	}
	if viaCEX.Len() != viaFactors.Len() || viaCEX.NumGroups() != viaFactors.NumGroups() ||
		viaCEX.NumInternalNodes() != viaFactors.NumInternalNodes() {
		t.Fatalf("trie shapes differ: len %d/%d groups %d/%d nodes %d/%d",
			viaCEX.Len(), viaFactors.Len(), viaCEX.NumGroups(), viaFactors.NumGroups(),
			viaCEX.NumInternalNodes(), viaFactors.NumInternalNodes())
	}
	if a, b := pathGroupsDump(viaCEX), pathGroupsDump(viaFactors); a != b {
		t.Fatal("PathGroups output differs between Insert and InsertFactors")
	}
}

func TestPathKeyMatchesPathGroups(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	n := 8
	tr := New(n)
	for i := 0; i < 300; i++ {
		tr.Insert(randomCEX(rng, n, rng.Intn(n)))
	}
	tr.PathGroups(func(path []byte, es []*Entry) bool {
		for _, e := range es {
			if got := PathKey(e.CEX, nil); string(got) != string(path) {
				t.Fatalf("PathKey(%v) = %v, group path %v", e.CEX, got, path)
			}
		}
		return true
	})
}

// TestDuplicateUnionAllocFree pins the kernel's contract: a union that
// the next-level trie has already seen — two thirds of all unions on
// the Table 1 functions — allocates nothing.
func TestDuplicateUnionAllocFree(t *testing.T) {
	n := 8
	a := randomCEX(rand.New(rand.NewSource(23)), n, 3)
	b := a.Transform(bitvec.SpaceMask(n) &^ a.Canon)
	tr := New(n)
	buf := make([]pcube.Factor, 0, n)
	fs, canon, ok := pcube.UnionInto(buf, a, b)
	if !ok {
		t.Fatal("no union")
	}
	if _, fresh := tr.InsertFactors(canon, fs); !fresh {
		t.Fatal("first insert must be fresh")
	}
	allocs := testing.AllocsPerRun(100, func() {
		fs, canon, _ := pcube.UnionInto(buf, a, b)
		if _, fresh := tr.InsertFactors(canon, fs); fresh {
			t.Fatal("duplicate reported fresh")
		}
	})
	if allocs != 0 {
		t.Fatalf("duplicate UnionInto+InsertFactors allocates %.1f times, want 0", allocs)
	}
}

// unionLevel is a level of Algorithm 2 with many duplicate unions: the
// degree-1 pseudocubes of B^n (every pair of points), so each
// degree-2 union below arises from three same-structure pairs.
func unionLevel(n int) *Trie {
	pts := New(n)
	for p := uint64(0); p < 1<<uint(n); p++ {
		pts.Insert(pcube.FromPoint(n, p))
	}
	lvl := New(n)
	var buf []pcube.Factor
	pts.Groups(func(es []*Entry) bool {
		for i := range es {
			for j := i + 1; j < len(es); j++ {
				var canon uint64
				buf, canon, _ = pcube.UnionInto(buf, es[i].CEX, es[j].CEX)
				lvl.InsertFactors(canon, buf)
			}
		}
		return true
	})
	return lvl
}

// BenchmarkUnionInsert measures one Algorithm 2 level step on the
// kernel: UnionInto into scratch plus InsertFactors into a fresh trie,
// over the 2016 degree-1 pseudocubes of B^6 (31248 unions, 10416
// fresh). allocs/op counts only the fresh pseudoproducts and the trie
// nodes and slices they need.
func BenchmarkUnionInsert(b *testing.B) {
	n := 6
	lvl := unionLevel(n)
	b.ReportAllocs()
	b.ResetTimer()
	var buf []pcube.Factor
	for i := 0; i < b.N; i++ {
		next := New(n)
		lvl.Groups(func(es []*Entry) bool {
			for x := range es {
				for y := x + 1; y < len(es); y++ {
					var canon uint64
					buf, canon, _ = pcube.UnionInto(buf, es[x].CEX, es[y].CEX)
					next.InsertFactors(canon, buf)
				}
			}
			return true
		})
		if next.Len() != 10416 {
			b.Fatalf("next level has %d pseudoproducts, want 10416", next.Len())
		}
	}
}
