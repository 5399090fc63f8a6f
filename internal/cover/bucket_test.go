package cover

import (
	"math/rand"
	"testing"
)

// TestBucketHeapEquivalence drives random instances through LazyGreedy
// with the bucket engine on and off and asserts the two engines are
// bit-identical observably: same picks in the same order and the same
// re-evaluation count. Every greedy cover, cold or warm, depends on
// this — the engine a cover runs on must never change what it selects.
func TestBucketHeapEquivalence(t *testing.T) {
	type trace struct {
		picks   []int
		reevals int64
	}
	run := func(in *Instance, bucket bool) trace {
		old := bucketEnabled
		bucketEnabled = bucket
		defer func() { bucketEnabled = old }()
		bs := in.colBitsets()
		covered := newBitset(in.NRows)
		var tr trace
		picks, reevals, err := LazyGreedy(len(in.Cols), in.NRows,
			func(j int) int { return in.Cols[j].Cost },
			func(j int) int { return len(in.Cols[j].Rows) },
			func(j int) int { return covered.countNew(bs[j]) },
			func(j int) { covered.orWith(bs[j]) })
		if err != nil {
			t.Fatalf("LazyGreedy(bucket=%v): %v", bucket, err)
		}
		tr.picks, tr.reevals = picks, reevals
		return tr
	}
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		nrows := 1 + rng.Intn(60)
		ncols := 1 + rng.Intn(80)
		in := &Instance{NRows: nrows}
		for j := 0; j < ncols; j++ {
			var rows []int
			for r := 0; r < nrows; r++ {
				if rng.Intn(3) == 0 {
					rows = append(rows, r)
				}
			}
			in.Cols = append(in.Cols, Column{Cost: 1 + rng.Intn(9), Rows: rows})
		}
		// Guarantee coverability with unit columns for a few rows, plus
		// one catch-all so every instance is solvable.
		all := make([]int, nrows)
		for r := range all {
			all[r] = r
		}
		in.Cols = append(in.Cols, Column{Cost: 2 + rng.Intn(6), Rows: all})
		b := run(in, true)
		h := run(in, false)
		if len(b.picks) != len(h.picks) || b.reevals != h.reevals {
			t.Fatalf("trial %d: bucket %v/%d reevals vs heap %v/%d reevals",
				trial, b.picks, b.reevals, h.picks, h.reevals)
		}
		for i := range b.picks {
			if b.picks[i] != h.picks[i] {
				t.Fatalf("trial %d pick %d: bucket col %d vs heap col %d", trial, i, b.picks[i], h.picks[i])
			}
		}
	}
}

// TestBucketGateFallsBack forces a grid past maxBucketRanks and checks
// the heap path still solves it (and that both engines agree there,
// trivially, since the gate routes to the heap either way).
func TestBucketGateFallsBack(t *testing.T) {
	nrows := 20000
	rows := make([]int, nrows)
	for r := range rows {
		rows[r] = r
	}
	in := &Instance{NRows: nrows, Cols: []Column{{Cost: 1, Rows: rows}}}
	res := Greedy(in)
	if len(res.Picked) != 1 || res.Picked[0] != 0 {
		t.Fatalf("fallback greedy picked %v", res.Picked)
	}
}
