package core

// unionMemo is the per-group memo of Algorithm 2's pair loop. By
// Algorithm 1, a union of two members of one structure group owes its
// structure, canonical mask and cost to δ = cv_a ⊕ cv_b alone, the XOR
// of their complement vectors: α is the non-canonical variables of the
// factors δ marks, and x_k that of its lowest.
// So the loop computes one union structure per distinct δ and keeps,
// under δ, the next-level group the union files under (of handle type
// H) and its cost; every later pair with that δ needs only its own
// complement vector (pcube.UnionCompVector).
//
// The table is open-addressed and its slots carry the epoch they were
// written in, so reset empties it in O(1) however far it grew: level 0
// is one group holding every care point, and a Go map cleared per
// group would pay for that capacity at every later group. It grows with
// the distinct δ of a group, not its pairs. reset also drops the
// handles, so a memo kept across levels does not hold earlier tries.
type unionMemo[H any] struct {
	slots []memoSlot
	epoch uint32
	vals  []memoVal[H]
}

type memoSlot struct {
	delta uint64
	epoch uint32
	val   int32
}

// memoVal is what every pair with one δ shares.
type memoVal[H any] struct {
	next H
	cost int
}

// reset empties the memo for the next group.
func (m *unionMemo[H]) reset() {
	clear(m.vals)
	m.vals = m.vals[:0]
	if m.epoch++; m.epoch == 0 {
		clear(m.slots)
		m.epoch = 1
	}
}

// home returns δ's first probe slot (Fibonacci hashing; len(slots) is
// a power of two).
func (m *unionMemo[H]) home(d uint64) int {
	return int((d * 0x9e3779b97f4a7c15) >> 32 & uint64(len(m.slots)-1))
}

// get returns the index of δ's value, or −1.
func (m *unionMemo[H]) get(d uint64) int {
	if len(m.slots) == 0 {
		return -1
	}
	mask := len(m.slots) - 1
	for i := m.home(d); ; i = (i + 1) & mask {
		s := &m.slots[i]
		if s.epoch != m.epoch {
			return -1
		}
		if s.delta == d {
			return int(s.val)
		}
	}
}

// put stores the value of δ, which get reported absent: the next-level
// group and the cost of the union. It returns the value's index.
func (m *unionMemo[H]) put(d uint64, next H, cost int) int {
	if 2*(len(m.vals)+1) > len(m.slots) {
		m.grow()
	}
	x := len(m.vals)
	m.vals = append(m.vals, memoVal[H]{next: next, cost: cost})
	m.insert(d, int32(x))
	return x
}

// insert files δ → val in its first free slot of this epoch.
func (m *unionMemo[H]) insert(d uint64, val int32) {
	mask := len(m.slots) - 1
	i := m.home(d)
	for m.slots[i].epoch == m.epoch {
		i = (i + 1) & mask
	}
	m.slots[i] = memoSlot{delta: d, epoch: m.epoch, val: val}
}

// grow doubles the table, rehashing this epoch's slots.
func (m *unionMemo[H]) grow() {
	old := m.slots
	m.slots = make([]memoSlot, max(64, 2*len(old)))
	for _, s := range old {
		if s.epoch == m.epoch {
			m.insert(s.delta, s.val)
		}
	}
}
