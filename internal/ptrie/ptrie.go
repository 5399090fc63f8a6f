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
//
// A trie holds everything in a few arrays addressed by int32: nodes,
// structure groups with their factor masks, and members. A member is
// its complement vector alone, because the structure it shares with
// its group fixes every factor's variables; so filing a pseudoproduct
// allocates nothing once the arrays have grown, and a CEX exists only
// where a caller materializes one (pcube.AppendFactors and
// pcube.CEX.Init). Reset empties a trie and keeps its arrays, so
// Algorithm 2 can run every level of a build, and build after build, on
// two tries.
package ptrie

import (
	"math/bits"
	"slices"
	"unsafe"

	"repro/internal/bitvec"
	"repro/internal/pcube"
)

// kind distinguishes the two internal node types.
type kind uint8

const (
	ncNode kind = iota // non-canonical variable (double-circled in fig. 2)
	cNode              // canonical variable
)

// node is a trie node. Its children are kept sorted, NC-nodes first by
// label, then C-nodes by label (the paper's child ordering), as one
// block of consecutive records of Trie.nodes. Labels are variable
// indices below n ≤ 64, so the nc and c bitmaps (bit l set = a child
// labeled l) rank the children: a child's slot in the block is the
// number of children sorted before it, a popcount. A child's own kind
// and label are the bit that ranks it, so nodes do not store them.
type node struct {
	nc, c uint64
	kids  int32 // offset of the child block in Trie.nodes
	group int32 // index+1 of the node's group in Trie.groups, 0 if none
}

// group is the record of a group node: its structure (canonical mask
// and factor masks) and its members in insertion order, as a chain of
// runs of complement vectors.
type group struct {
	canon      uint64
	mask, w    int32 // factor masks are Trie.masks[mask : mask+w]
	head, tail int32 // first and last run, -1 when empty
}

// run is a stretch of one group's complement vectors in Trie.cvs. A
// group's first run holds 2 vectors and each later one twice as many
// as the one before, so a membership probe scans contiguous words and
// follows O(log n) links however large the group grows.
type run struct {
	off, len, cap int32
	next          int32 // the group's next run, -1 at the tail
}

// Trie is a partition trie over B^n.
type Trie struct {
	n      int
	nodes  []node         // the root, then child blocks of capacity a power of two
	inodes int            // internal nodes created
	groups []group        // group records, in creation order
	masks  []uint64       // factor masks of every group
	runs   []run          // member runs, in creation order
	cvs    []uint64       // the runs' complement vectors
	size   int            // number of members
	ngroup int            // number of non-empty groups
	buf    []uint64       // InsertFactors' mask scratch
	fbuf   []pcube.Factor // Entries' factor scratch
}

// New returns an empty partition trie for n-variable CEX expressions.
func New(n int) *Trie {
	t := new(Trie)
	t.Reset(n)
	return t
}

// Reset empties the trie, makes it a trie for n-variable CEX
// expressions, and keeps its arrays for the next fill. Group handles
// and Masks slices taken before a Reset are invalid after it.
func (t *Trie) Reset(n int) {
	t.n = n
	t.nodes = append(t.nodes[:0], node{})
	t.groups, t.masks, t.runs, t.cvs = t.groups[:0], t.masks[:0], t.runs[:0], t.cvs[:0]
	t.inodes, t.size, t.ngroup = 0, 0, 0
}

// Bytes returns the capacity of the trie's arrays in bytes, which a
// trie kept for reuse holds.
func (t *Trie) Bytes() int {
	return cap(t.nodes)*int(unsafe.Sizeof(node{})) + cap(t.groups)*int(unsafe.Sizeof(group{})) +
		cap(t.masks)*8 + cap(t.runs)*int(unsafe.Sizeof(run{})) + cap(t.cvs)*8
}

// Len returns the number of stored pseudoproducts.
func (t *Trie) Len() int { return t.size }

// NumGroups returns the number of distinct structures stored.
func (t *Trie) NumGroups() int { return t.ngroup }

// NumInternalNodes returns the number of C- and NC-nodes created.
func (t *Trie) NumInternalNodes() int { return t.inodes }

// slot returns the index the (k, label) child has, or would take, in
// nd's child block, and whether it is present.
func (nd *node) slot(k kind, label int) (int, bool) {
	bit := uint64(1) << uint(label)
	if k == ncNode {
		return bits.OnesCount64(nd.nc & (bit - 1)), nd.nc&bit != 0
	}
	return bits.OnesCount64(nd.nc) + bits.OnesCount64(nd.c&(bit-1)), nd.c&bit != 0
}

// numKids returns the number of children of nd.
func (nd *node) numKids() int { return bits.OnesCount64(nd.nc) + bits.OnesCount64(nd.c) }

// child finds or creates the child of node x with the given kind and
// label, keeping the child block sorted, and returns its index. A
// block holds as many records as the power of two at or above its child
// count; a full block moves to the end of Trie.nodes at twice the size,
// leaving its old records unused until the next Reset. Only a node's
// parent refers to it, by the block offset, so moving a block moves its
// nodes; their own child blocks stay where they are.
func (t *Trie) child(x int32, k kind, label int) int32 {
	nd := &t.nodes[x]
	i, ok := nd.slot(k, label)
	if ok {
		return nd.kids + int32(i)
	}
	cnt, kids := nd.numKids(), nd.kids
	if cnt&(cnt-1) == 0 { // 0 or a power of two: the block is full
		off, size := len(t.nodes), max(2*cnt, 1)
		t.nodes = slices.Grow(t.nodes, size)[:off+size]
		copy(t.nodes[off:], t.nodes[kids:int(kids)+cnt])
		clear(t.nodes[off+cnt:])
		kids = int32(off)
		nd = &t.nodes[x]
		nd.kids = kids
	}
	blk := t.nodes[kids : int(kids)+cnt+1]
	copy(blk[i+1:], blk[i:cnt])
	blk[i] = node{}
	if k == ncNode {
		nd.nc |= 1 << uint(label)
	} else {
		nd.c |= 1 << uint(label)
	}
	t.inodes++
	return kids + int32(i)
}

// findChild returns the (k, label) child of node x, or -1.
func (t *Trie) findChild(x int32, k kind, label int) int32 {
	nd := &t.nodes[x]
	if i, ok := nd.slot(k, label); ok {
		return nd.kids + int32(i)
	}
	return -1
}

// Group is a handle on one structure group of a trie: the group node
// that every pseudoproduct of one structure is filed under. Members
// share the structure (paper Property 1), so the complement vector
// alone tells them apart: it is the paper's leaf vector L, stored as
// the complement bits (bit i set = factor i complemented) rather than
// L's "not complemented" bits. A handle is valid until the trie's next
// Reset.
type Group struct {
	t  *Trie
	id int32
}

// Group finds or creates the structure group of the pseudoproducts
// with canonical mask canon and factor masks masks (in CEX order),
// walking the structure path once. Each factor contributes its NC-node,
// then its canonical variables in increasing index order — under the
// bitvec packing (x_0 most significant) the lowest variable of a mask
// is its highest set bit, so the loop peels bits from the top instead
// of materializing a variable list. Algorithm 2's pair loop takes one
// handle per source group and complement difference, and probes it for
// every pair with that difference.
func (t *Trie) Group(canon uint64, masks []uint64) Group {
	x := int32(0)
	for _, m := range masks {
		x = t.child(x, ncNode, bitvec.LowestVar(m&^canon, t.n))
		for c := m & canon; c != 0; {
			v := bitvec.LowestVar(c, t.n)
			c &^= bitvec.VarMask(t.n, v)
			x = t.child(x, cNode, v)
		}
	}
	if g := t.nodes[x].group; g != 0 {
		return Group{t, g - 1}
	}
	id := int32(len(t.groups))
	t.groups = append(t.groups, group{canon: canon, mask: int32(len(t.masks)), w: int32(len(masks)), head: -1, tail: -1})
	t.masks = append(t.masks, masks...)
	t.nodes[x].group = id + 1
	return Group{t, id}
}

// Canon returns the canonical mask the group's members share.
func (g Group) Canon() uint64 { return g.t.groups[g.id].canon }

// Masks returns the factor masks the group's members share, in CEX
// order. The slice is the trie's; callers must not modify it.
func (g Group) Masks() []uint64 {
	r := &g.t.groups[g.id]
	return g.t.masks[r.mask : r.mask+r.w : r.mask+r.w]
}

// Find reports whether the group holds the member with complement
// vector cv.
func (g Group) Find(cv uint64) bool {
	t := g.t
	for r := t.groups[g.id].head; r >= 0; r = t.runs[r].next {
		rr := &t.runs[r]
		for _, v := range t.cvs[rr.off : rr.off+rr.len] {
			if v == cv {
				return true
			}
		}
	}
	return false
}

// Add stores the member with complement vector cv, which Find must not
// hold, at the end of the group.
func (g Group) Add(cv uint64) {
	t := g.t
	gr := &t.groups[g.id]
	if gr.tail < 0 || t.runs[gr.tail].len == t.runs[gr.tail].cap {
		size := 2
		if gr.tail >= 0 {
			size = 2 * int(t.runs[gr.tail].cap)
		}
		r := int32(len(t.runs))
		off := len(t.cvs)
		t.runs = append(t.runs, run{off: int32(off), cap: int32(size), next: -1})
		t.cvs = slices.Grow(t.cvs, size)[:off+size]
		if gr.tail < 0 {
			gr.head = r
			t.ngroup++
		} else {
			t.runs[gr.tail].next = r
		}
		gr.tail = r
	}
	rr := &t.runs[gr.tail]
	t.cvs[rr.off+rr.len] = cv
	rr.len++
	t.size++
}

// CompVectors appends the complement vectors of the group's members to
// dst, in insertion order.
func (g Group) CompVectors(dst []uint64) []uint64 {
	t := g.t
	for r := t.groups[g.id].head; r >= 0; r = t.runs[r].next {
		rr := &t.runs[r]
		dst = append(dst, t.cvs[rr.off:rr.off+rr.len]...)
	}
	return dst
}

// Insert adds the pseudoproduct to the trie and reports whether it was
// fresh; an identical CEX already present leaves the trie unchanged.
func (t *Trie) Insert(c *pcube.CEX) bool {
	if c.N != t.n {
		panic("ptrie: CEX dimension mismatch")
	}
	return t.InsertFactors(c.Canon, c.Factors)
}

// InsertFactors is Insert for a pseudoproduct given as its canonical
// mask and CEX-ordered factors, typically pcube.UnionInto's scratch
// output: the group handle's walk, probe and add. fs is read in place
// and never retained, so a duplicate costs no allocation and the
// caller may reuse fs as soon as the call returns.
func (t *Trie) InsertFactors(canon uint64, fs []pcube.Factor) bool {
	t.buf = t.buf[:0]
	for _, f := range fs {
		t.buf = append(t.buf, f.Vars)
	}
	g := t.Group(canon, t.buf)
	cv := pcube.CompVectorOf(fs)
	if g.Find(cv) {
		return false
	}
	g.Add(cv)
	return true
}

// Groups visits every non-empty structure group in depth-first child
// order. Iteration stops if visit returns false. visit may fill other
// tries, but not this one.
func (t *Trie) Groups(visit func(Group) bool) {
	t.visitGroups(0, visit)
}

func (t *Trie) visitGroups(x int32, visit func(Group) bool) bool {
	nd := &t.nodes[x]
	if g := nd.group; g != 0 && t.groups[g-1].head >= 0 {
		if !visit(Group{t, g - 1}) {
			return false
		}
	}
	for y, end := nd.kids, nd.kids+int32(nd.numKids()); y < end; y++ {
		if !t.visitGroups(y, visit) {
			return false
		}
	}
	return true
}

// PathGroups visits every non-empty structure group in DFS order
// together with the group node's path key: the (kind, label) byte
// sequence from the root. Children are sorted NC-before-C then by label
// and a parent's key is a proper prefix of its descendants', so
// lexicographic byte order of path keys equals DFS order; equal
// structures stored in different tries get equal path keys. So the
// warm resume can merge the groups an edit creates, read from a trie of
// its own, into the path order of the groups it keeps. The path slice
// is reused between visits — callers that retain it must copy.
func (t *Trie) PathGroups(visit func(path []byte, g Group) bool) {
	// A degree-k structure's path has a node per factor and per
	// canonical variable of each factor, at most (n−k)(k+1) ≤ ((n+1)/2)²
	// nodes of two bytes each, so the walk never regrows its path.
	t.visitPathGroups(0, make([]byte, 0, (t.n+1)*(t.n+1)/2+2), visit)
}

func (t *Trie) visitPathGroups(x int32, path []byte, visit func([]byte, Group) bool) bool {
	nd := &t.nodes[x]
	if g := nd.group; g != 0 && t.groups[g-1].head >= 0 {
		if !visit(path, Group{t, g - 1}) {
			return false
		}
	}
	y := nd.kids
	for _, lb := range [2]struct {
		k    kind
		bits uint64
	}{{ncNode, nd.nc}, {cNode, nd.c}} {
		for m := lb.bits; m != 0; m &= m - 1 {
			label := bits.TrailingZeros64(m)
			if !t.visitPathGroups(y, append(path, byte(lb.k), byte(label)), visit) {
				return false
			}
			y++
		}
	}
	return true
}

// Entries visits every stored pseudoproduct, groups in DFS order and
// members in insertion order, as a CEX the trie materializes in
// scratch: it is valid only until visit returns. Iteration stops if
// visit returns false. visit may fill other tries, but not this one.
func (t *Trie) Entries(visit func(*pcube.CEX) bool) {
	var c pcube.CEX
	var cvs []uint64
	t.Groups(func(g Group) bool {
		cvs = g.CompVectors(cvs[:0])
		for _, cv := range cvs {
			t.fbuf = pcube.AppendFactors(t.fbuf[:0], g.Masks(), cv)
			c.Init(t.n, g.Canon(), t.fbuf)
			if !visit(&c) {
				return false
			}
		}
		return true
	})
}
