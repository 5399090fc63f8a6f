package cover

import (
	"errors"
	"sort"
	"sync"
)

// This file is the bucket-queue engine behind LazyGreedy: an exact
// drop-in for the lazy heap on the instances that dominate practice,
// where column costs and column sizes are small integers.
//
// The observation is that a lazy-heap key is a (cost, new-count) pair
// drawn from a tiny grid — cost bounded by the worst column cost, count
// by the largest column — and that keys are monotone: coverage only
// grows, so a column's true key only moves later in the Better order.
// That makes Dial's trick apply. Rank every (cost, nw) pair of the grid
// once in the Better order (cost-per-row ascending, then more rows
// first), keep one bucket of column indices per rank, and walk a
// never-retreating finger over the ranks. A popped column is verified
// exactly like the heap top: a stale count re-files the column in its
// true — strictly later — bucket, so the finger never has to back up.
// Ties inside a bucket are identical keys, which Better breaks by
// column index: the bucket is sorted once when the finger arrives
// (after which nothing can enter it) and consumed in order.
//
// Every operation is O(1) plus amortized sorting of ints, against the
// heap's O(log ncols) Key sift per re-evaluation — and the engine
// choice is invisible: both maintain the same stored-key multiset and
// always verify its exact minimum, so picks and re-evaluation counts
// are bit-identical.

// keyPair is one (cost, new-count) grid point.
type keyPair struct{ cost, nw int32 }

// ratioTable is the Better-order ranking of a (cost, nw) grid:
// rank[(cost-1)*nwCap+(nw-1)] is the pair's position, pairs the
// inverse. Tables are immutable and memoized per power-of-two grid
// shape, so the sort is paid once per process, not per cover.
type ratioTable struct {
	nwCap int32
	rank  []int32
	pairs []keyPair
}

func (t *ratioTable) rankOf(cost, nw int32) int32 {
	return t.rank[(cost-1)*t.nwCap+(nw-1)]
}

// maxBucketRanks caps the grid a bucket queue will rank: past it the
// per-cover bucket array and the memoized table stop being cheap, and
// LazyGreedy keeps the heap. 2^14 ranks is a 384 KiB bucket array.
const maxBucketRanks = 1 << 14

var (
	ratioTablesMu sync.Mutex
	ratioTables   = map[int64]*ratioTable{}
)

// bucketEnabled gates the bucket engine. Only tests flip it, to drive
// the same instance through both engines and assert bit-identity.
var bucketEnabled = true

func pow2AtLeast(x int) int {
	p := 1
	for p < x {
		p <<= 1
	}
	return p
}

func ratioTableFor(costCap, nwCap int) *ratioTable {
	key := int64(costCap)<<32 | int64(nwCap)
	ratioTablesMu.Lock()
	defer ratioTablesMu.Unlock()
	if t, ok := ratioTables[key]; ok {
		return t
	}
	pairs := make([]keyPair, 0, costCap*nwCap)
	for c := 1; c <= costCap; c++ {
		for w := 1; w <= nwCap; w++ {
			pairs = append(pairs, keyPair{int32(c), int32(w)})
		}
	}
	sort.Slice(pairs, func(a, b int) bool {
		pa, pb := pairs[a], pairs[b]
		l := int64(pa.cost) * int64(pb.nw)
		r := int64(pb.cost) * int64(pa.nw)
		if l != r {
			return l < r
		}
		return pa.nw > pb.nw
	})
	t := &ratioTable{nwCap: int32(nwCap), rank: make([]int32, costCap*nwCap), pairs: pairs}
	for i, p := range pairs {
		t.rank[(p.cost-1)*t.nwCap+(p.nw-1)] = int32(i)
	}
	ratioTables[key] = t
	return t
}

// bucketGreedy is the bucket-queue selection loop. Callers have already
// established that every live column's (cost, size) fits t's grid.
func bucketGreedy(t *ratioTable, live []int32, sizes []int32, remaining int, cost, countNew func(int) int, commit func(int)) ([]int, int64, error) {
	buckets := make([][]int32, len(t.pairs))
	for k, j := range live {
		r := t.rankOf(int32(cost(int(j))), sizes[k])
		buckets[r] = append(buckets[r], j)
	}
	picks := make([]int, 0, 8)
	var reevals int64
	cur, sorted := 0, -1
	for remaining > 0 {
		for cur < len(buckets) && len(buckets[cur]) == 0 {
			cur++
		}
		if cur == len(buckets) {
			return nil, reevals, errors.New("cover: columns do not cover all rows")
		}
		if sorted != cur {
			// First pop from this rank: order the ties by column index.
			// Nothing can be filed here afterwards — re-files from this
			// bucket are strictly staler, hence strictly later ranks.
			b := buckets[cur]
			sort.Slice(b, func(x, y int) bool { return b[x] < b[y] })
			sorted = cur
		}
		col := int(buckets[cur][0])
		pair := t.pairs[cur]
		nw := countNew(col)
		switch {
		case nw == 0:
			buckets[cur] = buckets[cur][1:]
			reevals++
		case int32(nw) != pair.nw:
			buckets[cur] = buckets[cur][1:]
			buckets[t.rankOf(pair.cost, int32(nw))] = append(buckets[t.rankOf(pair.cost, int32(nw))], int32(col))
			reevals++
		default:
			buckets[cur] = buckets[cur][1:]
			picks = append(picks, col)
			commit(col)
			remaining -= nw
		}
	}
	return picks, reevals, nil
}
