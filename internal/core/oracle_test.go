package core

import (
	"math/bits"
	"slices"
	"testing"

	"repro/internal/bfunc"
	"repro/internal/pcube"
)

// smallPC is a pseudocube of B^n, n ≤ 4, found without Algorithm 1: an
// affine subspace enumerated as a coset of a linear subspace. pts is
// its point mask (bit p = point p), dirs the point mask of its linear
// part, which fixes its structure, and cost its literal count, read
// from the RREF path (pcube.FromPoints).
type smallPC struct {
	pts, dirs uint16
	deg, cost int
}

// smallOracle is the brute-force ground truth of Algorithm 2 over
// B^n: every pseudocube, indexed by point mask, and for each one the
// point masks of the parallel pseudocubes whose union with it costs no
// more than it does (its discarders under the step-2 rule).
type smallOracle struct {
	n      int
	pcs    []smallPC
	byMask []int16 // point mask → index in pcs, or −1
	disc   [][]uint16
}

func newSmallOracle(t *testing.T, n int) *smallOracle {
	size := 1 << n
	// Linear subspaces as point masks: close {0} under adding one vector
	// at a time.
	subspaces := []uint16{1}
	seen := map[uint16]bool{1: true}
	for i := 0; i < len(subspaces); i++ {
		l := subspaces[i]
		for v := 1; v < size; v++ {
			if l&(1<<v) != 0 {
				continue
			}
			m := l
			for p := 0; p < size; p++ {
				if l&(1<<p) != 0 {
					m |= 1 << (p ^ v)
				}
			}
			if !seen[m] {
				seen[m] = true
				subspaces = append(subspaces, m)
			}
		}
	}
	o := &smallOracle{n: n, byMask: make([]int16, 1<<size)}
	for i := range o.byMask {
		o.byMask[i] = -1
	}
	for _, l := range subspaces {
		for off := 0; off < size; off++ {
			var m uint16
			var pts []uint64
			for p := 0; p < size; p++ {
				if l&(1<<p) != 0 {
					m |= 1 << (p ^ off)
					pts = append(pts, uint64(p^off))
				}
			}
			if o.byMask[m] >= 0 {
				continue
			}
			c, ok := pcube.FromPoints(n, pts)
			if !ok {
				t.Fatalf("coset %#x of %#x is not a pseudocube", m, l)
			}
			o.byMask[m] = int16(len(o.pcs))
			o.pcs = append(o.pcs, smallPC{pts: m, dirs: l, deg: c.Degree(), cost: c.Literals()})
		}
	}
	o.disc = make([][]uint16, len(o.pcs))
	for i, p := range o.pcs {
		for _, q := range o.pcs {
			if q.dirs != p.dirs || q.pts == p.pts {
				continue
			}
			u := o.byMask[p.pts|q.pts]
			if u < 0 {
				t.Fatalf("union of parallel %#x and %#x is not a pseudocube", p.pts, q.pts)
			}
			if o.pcs[u].cost <= p.cost {
				o.disc[i] = append(o.disc[i], q.pts)
			}
		}
	}
	return o
}

// check holds BuildEPPP on f, whose ON∪DC point mask is care, to the
// oracle: LevelSizes[d] is the number of degree-d pseudocubes inside
// care, and the candidates are exactly those pseudocubes P inside care
// with no parallel Q inside care whose union costs at most cost(P).
func (o *smallOracle) check(t *testing.T, f *bfunc.Func, care uint16) {
	set, err := BuildEPPP(f, Options{})
	if err != nil {
		t.Fatal(err)
	}
	levels := make([]int, o.n+1)
	want := make([]bool, len(o.pcs))
	for i, p := range o.pcs {
		if p.pts&^care != 0 {
			continue
		}
		levels[p.deg]++
		want[i] = !slices.ContainsFunc(o.disc[i], func(q uint16) bool { return q&^care == 0 })
	}
	for len(levels) > 0 && levels[len(levels)-1] == 0 {
		levels = levels[:len(levels)-1]
	}
	if !slices.Equal(set.Stats.LevelSizes, levels) {
		t.Fatalf("care %#x: LevelSizes %v, brute force %v", care, set.Stats.LevelSizes, levels)
	}
	got := make([]bool, len(o.pcs))
	for _, c := range set.Candidates {
		var m uint16
		for p := 0; p < 1<<o.n; p++ {
			if c.Contains(uint64(p)) {
				m |= 1 << p
			}
		}
		i := o.byMask[m]
		if i < 0 || got[i] {
			t.Fatalf("care %#x: candidate %v is not a new pseudocube", care, c)
		}
		got[i] = true
	}
	if !slices.Equal(got, want) {
		t.Fatalf("care %#x: candidates differ from the brute-force discard rule", care)
	}
}

// TestBuildEPPPExhaustive checks Algorithm 2 against brute force on
// every function at n = 3 (all 3^8 ON/DC/OFF assignments) and n = 4
// (all 2^16 ON sets): BuildEPPP's level sizes count the pseudocubes
// inside ON∪DC, and its candidates are exactly the ones the discard
// rule keeps.
func TestBuildEPPPExhaustive(t *testing.T) {
	o3 := newSmallOracle(t, 3)
	if len(o3.pcs) != 51 {
		t.Fatalf("B^3 has %d pseudocubes, want 51", len(o3.pcs))
	}
	for a := 0; a < 6561; a++ {
		var on, dc []uint64
		var care uint16
		for p, r := uint64(0), a; p < 8; p, r = p+1, r/3 {
			switch r % 3 {
			case 1:
				on = append(on, p)
			case 2:
				dc = append(dc, p)
			}
			if r%3 != 0 {
				care |= 1 << p
			}
		}
		o3.check(t, bfunc.NewDC(3, on, dc), care)
	}

	o4 := newSmallOracle(t, 4)
	if len(o4.pcs) != 307 {
		t.Fatalf("B^4 has %d pseudocubes, want 307", len(o4.pcs))
	}
	on := make([]uint64, 0, 16)
	for m := 0; m < 1<<16; m++ {
		on = on[:0]
		for r := uint(m); r != 0; r &= r - 1 {
			on = append(on, uint64(bits.TrailingZeros(r)))
		}
		o4.check(t, bfunc.New(4, on), uint16(m))
	}
}
