// Package ptrie implements the partition trie of the DAC'01 paper
// (§3.2): a labeled rooted tree storing the CEX expressions of a set of
// pseudoproducts so that expressions with the same structure share a
// path. Internal nodes are C-nodes (canonical variable) or NC-nodes
// (non-canonical variable); every root-to-group path spells a structure,
// with each EXOR factor contributed as its NC-node followed by its
// C-nodes in increasing order, factors ordered by non-canonical
// variable. The leaves under a group node are the complement vectors of
// the member pseudoproducts (paper Property 1: leaves with the same
// parent have the same structure).
package ptrie

import (
	"math/bits"
	"slices"

	"repro/internal/bitvec"
	"repro/internal/pcube"
)

// kind distinguishes the two internal node types.
type kind uint8

const (
	ncNode kind = iota // non-canonical variable (double-circled in fig. 2)
	cNode              // canonical variable
)

// node is an internal trie node. Children are kept sorted: NC-nodes
// first by label, then C-nodes by label (the paper's child ordering;
// leaves are stored separately in the entries map of the group node).
// Labels are variable indices below n ≤ 64, so the nc and c bitmaps
// (bit l set = a child labeled l) index the children: a child's slot is
// the number of children sorted before it, a popcount.
type node struct {
	kind     kind
	label    int
	nc, c    uint64
	children []*node
	entries  []*Entry // leaves: one per complement vector
}

// Entry is a stored pseudoproduct: a leaf of the partition trie.
type Entry struct {
	CEX *pcube.CEX
	// Mark is caller-owned scratch state; the minimization algorithms
	// use it for the "discarded by a cheaper union" flag of Algorithm 2
	// step 2.
	Mark bool
	// MarkCnt is caller-owned scratch like Mark, but counting: the warm
	// engine stores how many same-group partners discard this entry
	// (Mark ⇔ MarkCnt > 0), so a later delta can retract exactly the
	// contributions of partners that died with removed care points.
	MarkCnt int32
}

// Trie is a partition trie over B^n.
type Trie struct {
	n       int
	root    node
	size    int // number of stored entries (leaves)
	groups  int // number of non-empty group nodes
	inodes  int // number of internal nodes created (C + NC)
	ncCount int
}

// New returns an empty partition trie for n-variable CEX expressions.
func New(n int) *Trie { return &Trie{n: n} }

// Len returns the number of stored pseudoproducts.
func (t *Trie) Len() int { return t.size }

// NumGroups returns the number of distinct structures stored.
func (t *Trie) NumGroups() int { return t.groups }

// NumInternalNodes returns the number of C- and NC-nodes allocated.
func (t *Trie) NumInternalNodes() int { return t.inodes }

// NumNCNodes returns the number of NC-nodes allocated.
func (t *Trie) NumNCNodes() int { return t.ncCount }

// slot returns the index the (k, label) child has, or would take, in
// nd.children, and whether it is present.
func (nd *node) slot(k kind, label int) (int, bool) {
	bit := uint64(1) << uint(label)
	if k == ncNode {
		return bits.OnesCount64(nd.nc & (bit - 1)), nd.nc&bit != 0
	}
	return bits.OnesCount64(nd.nc) + bits.OnesCount64(nd.c&(bit-1)), nd.c&bit != 0
}

// child finds or creates the child of nd with the given kind and label,
// maintaining the sorted order (NC-nodes before C-nodes, then by label).
func (t *Trie) child(nd *node, k kind, label int) *node {
	i, ok := nd.slot(k, label)
	if ok {
		return nd.children[i]
	}
	nc := &node{kind: k, label: label}
	nd.children = append(nd.children, nil)
	copy(nd.children[i+1:], nd.children[i:])
	nd.children[i] = nc
	t.inodes++
	if k == ncNode {
		nd.nc |= 1 << uint(label)
		t.ncCount++
	} else {
		nd.c |= 1 << uint(label)
	}
	return nc
}

// findChild returns the child or nil without creating it.
func (nd *node) findChild(k kind, label int) *node {
	if i, ok := nd.slot(k, label); ok {
		return nd.children[i]
	}
	return nil
}

// walk descends the structure path of the product fs with canonical
// mask canon, creating nodes if create is set; it returns the group
// node, or nil when absent and !create. Each factor contributes its
// NC-node, then its canonical variables in increasing index order —
// under the bitvec packing (x_0 most significant) the lowest variable
// of a mask is its highest set bit, so the loop peels bits from the top
// instead of materializing a variable list.
func (t *Trie) walk(canon uint64, fs []pcube.Factor, create bool) *node {
	nd := &t.root
	for _, f := range fs {
		if nd = t.step(nd, ncNode, bitvec.LowestVar(f.Vars&^canon, t.n), create); nd == nil {
			return nil
		}
		for m := f.Vars & canon; m != 0; {
			v := bitvec.LowestVar(m, t.n)
			m &^= bitvec.VarMask(t.n, v)
			if nd = t.step(nd, cNode, v, create); nd == nil {
				return nil
			}
		}
	}
	return nd
}

// step moves from nd to its (k, label) child, creating it if create is
// set; it returns nil when the child is absent and !create.
func (t *Trie) step(nd *node, k kind, label int, create bool) *node {
	if create {
		return t.child(nd, k, label)
	}
	return nd.findChild(k, label)
}

// Group is a handle on one structure group of a trie: the group node
// that every pseudoproduct of one structure is filed under. Members
// share the structure (paper Property 1), so the complement vector
// alone tells them apart: it is the paper's leaf vector L, stored as
// the complement bits (bit i set = factor i complemented) rather than
// L's "not complemented" bits. A handle holds its trie reachable.
type Group struct {
	t  *Trie
	nd *node
}

// Group finds or creates the structure group of the product fs with
// canonical mask canon, walking the structure path once; only the
// factor masks of fs are read. Algorithm 2's pair loop takes one
// handle per source group and complement difference, and probes it for
// every pair with that difference.
func (t *Trie) Group(canon uint64, fs []pcube.Factor) Group {
	return Group{t, t.walk(canon, fs, true)}
}

// Find returns the member with complement vector cv, or nil.
func (g Group) Find(cv uint64) *Entry {
	for _, e := range g.nd.entries {
		if e.CEX.CompVector() == cv {
			return e
		}
	}
	return nil
}

// Add stores c, which must have the group's structure and a complement
// vector Find does not hold, as a new member and returns its entry.
func (g Group) Add(c *pcube.CEX) *Entry {
	e := &Entry{CEX: c}
	if len(g.nd.entries) == 0 {
		g.t.groups++
	}
	g.nd.entries = append(g.nd.entries, e)
	g.t.size++
	return e
}

// Insert adds the pseudoproduct to the trie. If an identical CEX is
// already present it returns the existing entry and false; otherwise it
// stores c itself and returns the new entry and true.
func (t *Trie) Insert(c *pcube.CEX) (*Entry, bool) {
	if c.N != t.n {
		panic("ptrie: CEX dimension mismatch")
	}
	g := t.Group(c.Canon, c.Factors)
	if e := g.Find(c.CompVector()); e != nil {
		return e, false
	}
	return g.Add(c), true
}

// InsertFactors is Insert for a pseudoproduct given as its canonical
// mask and CEX-ordered factors, typically pcube.UnionInto's scratch
// output: the group handle's walk, probe and add. The walk and the
// duplicate test read fs in place; only a fresh insert copies it into
// a new sealed CEX, so a duplicate costs no allocation and the caller
// may reuse fs as soon as the call returns.
func (t *Trie) InsertFactors(canon uint64, fs []pcube.Factor) (*Entry, bool) {
	g := t.Group(canon, fs)
	if e := g.Find(pcube.CompVectorOf(fs)); e != nil {
		return e, false
	}
	return g.Add(pcube.NewCEX(t.n, canon, slices.Clone(fs))), true
}

// Search returns the entry with CEX equal to c, or nil.
func (t *Trie) Search(c *pcube.CEX) *Entry {
	grp := t.walk(c.Canon, c.Factors, false)
	if grp == nil {
		return nil
	}
	return Group{t, grp}.Find(c.CompVector())
}

// Groups visits every structure group (the entries sharing a parent),
// in depth-first child order. Iteration stops if visit returns false.
// The entries slice is shared; callers may flip Mark but must not
// append or reorder.
func (t *Trie) Groups(visit func(entries []*Entry) bool) {
	t.visitGroups(&t.root, visit)
}

func (t *Trie) visitGroups(nd *node, visit func([]*Entry) bool) bool {
	if len(nd.entries) > 0 {
		if !visit(nd.entries) {
			return false
		}
	}
	for _, c := range nd.children {
		if !t.visitGroups(c, visit) {
			return false
		}
	}
	return true
}

// PathGroups visits every structure group in DFS order together with
// the group node's path key: the (kind, label) byte sequence from the
// root. Children are sorted NC-before-C then by label and a parent's
// key is a proper prefix of its descendants', so lexicographic byte
// order of path keys equals DFS order; equal structures stored in
// different tries get equal path keys. The path slice is reused between
// visits — callers that retain it must copy.
func (t *Trie) PathGroups(visit func(path []byte, entries []*Entry) bool) {
	t.visitPathGroups(&t.root, make([]byte, 0, 2*t.n), visit)
}

func (t *Trie) visitPathGroups(nd *node, path []byte, visit func([]byte, []*Entry) bool) bool {
	if len(nd.entries) > 0 {
		if !visit(path, nd.entries) {
			return false
		}
	}
	for _, c := range nd.children {
		if !t.visitPathGroups(c, append(path, byte(c.kind), byte(c.label)), visit) {
			return false
		}
	}
	return true
}

// PathKey computes, without a trie, the path key a trie would file c
// under: the (kind, label) byte sequence PathGroups reports for c's
// structure group. Two CEX have equal path keys iff they have equal
// structure, and string comparison of path keys orders structures the
// way PathGroups visits them — which is what lets the warm delta
// engine splice groups that appear only after an edit into the DFS
// position a cold build would have given them.
func PathKey(c *pcube.CEX, dst []byte) []byte {
	n := c.N
	for _, f := range c.Factors {
		dst = append(dst, byte(ncNode), byte(bitvec.LowestVar(f.Vars&^c.Canon, n)))
		for m := f.Vars & c.Canon; m != 0; {
			v := bitvec.LowestVar(m, n)
			m &^= bitvec.VarMask(n, v)
			dst = append(dst, byte(cNode), byte(v))
		}
	}
	return dst
}

// Entries visits every stored entry.
func (t *Trie) Entries(visit func(*Entry) bool) {
	t.Groups(func(es []*Entry) bool {
		for _, e := range es {
			if !visit(e) {
				return false
			}
		}
		return true
	})
}
