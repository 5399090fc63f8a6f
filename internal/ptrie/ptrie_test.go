package ptrie

import (
	"bytes"
	"math/rand"
	"slices"
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

// memberCEX returns the CEX of the member of g with complement vector cv.
func memberCEX(g Group, n int, cv uint64) *pcube.CEX {
	return pcube.NewCEX(n, g.Canon(), pcube.AppendFactors(nil, g.Masks(), cv))
}

// masksOf returns the factor masks of c.
func masksOf(c *pcube.CEX) []uint64 {
	var ms []uint64
	for _, f := range c.Factors {
		ms = append(ms, f.Vars)
	}
	return ms
}

func TestInsertDedup(t *testing.T) {
	tr := New(6)
	c := pcube.FromPoint(6, 0b010101)
	if fresh := tr.Insert(c); !fresh || tr.Len() != 1 {
		t.Fatalf("first insert: fresh=%v len=%d", fresh, tr.Len())
	}
	if fresh := tr.Insert(pcube.FromPoint(6, 0b010101)); fresh || tr.Len() != 1 {
		t.Fatalf("duplicate insert must dedup")
	}
	// Same structure, different complement vector: same group.
	if fresh := tr.Insert(pcube.FromPoint(6, 0b111111)); !fresh {
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
		if tr.Insert(c) {
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
	tr.Groups(func(g Group) bool {
		seen++
		cvs := g.CompVectors(nil)
		key := memberCEX(g, n, cvs[0]).StructureKey()
		if len(cvs) != structs[key] {
			t.Fatalf("group size %d, want %d", len(cvs), structs[key])
		}
		for _, cv := range cvs {
			if memberCEX(g, n, cv).StructureKey() != key {
				t.Fatal("mixed structures in one group")
			}
		}
		return true
	})
	if seen != tr.NumGroups() {
		t.Fatalf("visited %d groups, NumGroups=%d", seen, tr.NumGroups())
	}
}

// TestSearch finds inserted pseudoproducts through their group handle:
// Group.Find holds every member, and no CEX that was never inserted.
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
	find := func(c *pcube.CEX) bool { return tr.Group(c.Canon, masksOf(c)).Find(c.CompVector()) }
	for _, c := range members {
		if !find(c) {
			t.Fatalf("Find missed inserted CEX %v", c)
		}
	}
	// A CEX not inserted (fresh structure) must not be found.
	missing := pcube.FromPoint(n, 0)
	missing = pcube.Union(missing, missing.Transform(bitvec.MaskOf(n, 0, 5)))
	if find(missing) {
		// It might coincidentally be there; verify by checking equality.
		found := false
		for _, c := range members {
			if c.Equal(missing) {
				found = true
			}
		}
		if !found {
			t.Fatal("Find found a CEX that was never inserted")
		}
	}
}

func TestEntriesVisitAndEarlyStop(t *testing.T) {
	tr := New(4)
	for p := uint64(0); p < 8; p++ {
		tr.Insert(pcube.FromPoint(4, p))
	}
	count := 0
	tr.Entries(func(c *pcube.CEX) bool {
		if !c.Equal(pcube.FromPoint(4, uint64(count))) {
			t.Fatalf("entry %d is %v", count, c)
		}
		count++
		return true
	})
	if count != 8 {
		t.Fatalf("visited %d entries", count)
	}
	count = 0
	tr.Entries(func(*pcube.CEX) bool {
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
	tr.PathGroups(func(path []byte, g Group) bool {
		sb.Write(path)
		sb.WriteByte('|')
		for _, cv := range g.CompVectors(nil) {
			sb.WriteString(memberCEX(g, tr.n, cv).Key())
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
		fresh1 := viaCEX.Insert(c)
		scratch = append(scratch[:0], c.Factors...)
		fresh2 := viaFactors.InsertFactors(c.Canon, scratch)
		// The trie must not keep the scratch.
		for j := range scratch {
			scratch[j] = pcube.Factor{Vars: ^uint64(0), Comp: 1}
		}
		if fresh1 != fresh2 {
			t.Fatalf("insert %d: Insert fresh=%v, InsertFactors fresh=%v", i, fresh1, fresh2)
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

// TestChildIndexProperty drives the bitmap child index with random
// (kind, label) paths over the full label range of n = 64, labels 0
// and 63 included, and checks it against the definitions it replaces:
// findChild finds every child created and no other (kind, label), at
// every node, after child blocks have moved to larger ones; and
// PathGroups visits groups in sorted path-key order — children sorted
// NC before C, then by label.
func TestChildIndexProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	tr := New(64)
	// created holds every path from the root, as (kind, label) bytes.
	created := map[string]bool{"": true}
	want := map[string]bool{}
	for i := 0; i < 2000; i++ {
		x := int32(0)
		var path []byte
		for d := 1 + rng.Intn(6); d > 0; d-- {
			k := kind(rng.Intn(2))
			label := rng.Intn(64)
			switch rng.Intn(8) {
			case 0:
				label = 0
			case 1:
				label = 63
			}
			x = tr.child(x, k, label)
			path = append(path, byte(k), byte(label))
			created[string(path)] = true
		}
		if tr.nodes[x].group == 0 {
			tr.groups = append(tr.groups, group{head: -1, tail: -1})
			tr.nodes[x].group = int32(len(tr.groups))
			Group{tr, int32(len(tr.groups) - 1)}.Add(0)
		}
		want[string(path)] = true
	}
	if tr.NumInternalNodes() != len(created)-1 {
		t.Fatalf("%d nodes for %d distinct paths", tr.NumInternalNodes(), len(created)-1)
	}
	for p := range created {
		x := int32(0)
		for j := 0; j < len(p); j += 2 {
			if x = tr.findChild(x, kind(p[j]), int(p[j+1])); x < 0 {
				t.Fatalf("findChild lost path %v at byte %d", []byte(p), j)
			}
		}
		for _, k := range []kind{ncNode, cNode} {
			for label := 0; label < 64; label++ {
				_, present := created[p+string([]byte{byte(k), byte(label)})]
				if got := tr.findChild(x, k, label); (got >= 0) != present {
					t.Fatalf("findChild(%v + (%d, %d)) = %d, created %v", []byte(p), k, label, got, present)
				}
			}
		}
	}

	var paths []string
	tr.PathGroups(func(path []byte, g Group) bool {
		if n := len(paths); n > 0 && bytes.Compare([]byte(paths[n-1]), path) >= 0 {
			t.Fatalf("PathGroups visits %v after %v", path, []byte(paths[n-1]))
		}
		paths = append(paths, string(path))
		return true
	})
	wantPaths := make([]string, 0, len(want))
	for p := range want {
		wantPaths = append(wantPaths, p)
	}
	slices.Sort(wantPaths)
	if !slices.Equal(paths, wantPaths) {
		t.Fatalf("PathGroups visited %d groups, inserted %d distinct paths", len(paths), len(wantPaths))
	}
}

// TestResetReusesArrays holds Reset to its contract: a reset trie
// fills exactly like a new one, and a refill that fits the arrays the
// trie already grew allocates nothing.
func TestResetReusesArrays(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	n := 7
	var cs []*pcube.CEX
	for i := 0; i < 300; i++ {
		cs = append(cs, randomCEX(rng, n, rng.Intn(n)))
	}
	reused := New(n)
	for _, c := range cs[:200] {
		reused.Insert(randomCEX(rng, n, rng.Intn(n)))
		reused.Insert(c)
	}
	fill := func(tr *Trie) {
		tr.Reset(n)
		for _, c := range cs {
			tr.InsertFactors(c.Canon, c.Factors)
		}
	}
	fill(reused)
	fresh := New(n)
	fill(fresh)
	if a, b := pathGroupsDump(reused), pathGroupsDump(fresh); a != b {
		t.Fatal("a reset trie files pseudoproducts differently from a new one")
	}
	if reused.Len() != fresh.Len() || reused.NumGroups() != fresh.NumGroups() ||
		reused.NumInternalNodes() != fresh.NumInternalNodes() {
		t.Fatalf("reset trie shape %d/%d/%d, new trie %d/%d/%d",
			reused.Len(), reused.NumGroups(), reused.NumInternalNodes(),
			fresh.Len(), fresh.NumGroups(), fresh.NumInternalNodes())
	}
	if allocs := testing.AllocsPerRun(10, func() { fill(reused) }); allocs != 0 {
		t.Fatalf("refilling a reset trie allocates %.1f times, want 0", allocs)
	}
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
	if !tr.InsertFactors(canon, fs) {
		t.Fatal("first insert must be fresh")
	}
	allocs := testing.AllocsPerRun(100, func() {
		fs, canon, _ := pcube.UnionInto(buf, a, b)
		if tr.InsertFactors(canon, fs) {
			t.Fatal("duplicate reported fresh")
		}
	})
	if allocs != 0 {
		t.Fatalf("duplicate UnionInto+InsertFactors allocates %.1f times, want 0", allocs)
	}
}

// unionLevel is a level of Algorithm 2 with many duplicate unions: the
// degree-1 pseudocubes of B^n (every pair of points), by structure
// group, so each degree-2 union below arises from three same-structure
// pairs.
func unionLevel(n int) [][]*pcube.CEX {
	pts := New(n)
	for p := uint64(0); p < 1<<uint(n); p++ {
		pts.Insert(pcube.FromPoint(n, p))
	}
	lvl := New(n)
	var buf []pcube.Factor
	pts.Groups(func(g Group) bool {
		cvs := g.CompVectors(nil)
		for i := range cvs {
			for j := i + 1; j < len(cvs); j++ {
				var canon uint64
				buf, canon, _ = pcube.UnionInto(buf, memberCEX(g, n, cvs[i]), memberCEX(g, n, cvs[j]))
				lvl.InsertFactors(canon, buf)
			}
		}
		return true
	})
	var groups [][]*pcube.CEX
	lvl.Groups(func(g Group) bool {
		var es []*pcube.CEX
		for _, cv := range g.CompVectors(nil) {
			es = append(es, memberCEX(g, n, cv))
		}
		groups = append(groups, es)
		return true
	})
	return groups
}

// BenchmarkUnionInsert measures one Algorithm 2 level step on the
// kernel: UnionInto into scratch plus InsertFactors into a reset trie,
// over the 2016 degree-1 pseudocubes of B^6 (31248 unions, 10416
// fresh). Once the trie's arrays have grown, a step allocates nothing.
func BenchmarkUnionInsert(b *testing.B) {
	n := 6
	lvl := unionLevel(n)
	b.ReportAllocs()
	b.ResetTimer()
	var buf []pcube.Factor
	next := New(n)
	for i := 0; i < b.N; i++ {
		next.Reset(n)
		for _, es := range lvl {
			for x := range es {
				for y := x + 1; y < len(es); y++ {
					var canon uint64
					buf, canon, _ = pcube.UnionInto(buf, es[x], es[y])
					next.InsertFactors(canon, buf)
				}
			}
		}
		if next.Len() != 10416 {
			b.Fatalf("next level has %d pseudoproducts, want 10416", next.Len())
		}
	}
}
