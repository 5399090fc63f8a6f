package core

import (
	"testing"

	"repro/internal/bench"
)

// TestBuildEPPPAllocCeiling is a load-independent gate on the union
// kernel: allocations, unlike wall time, do not move with host load.
// m3 output 3 (a Table 1 function, and a Table 2 row) measured 40,713
// allocations per serial build once duplicate unions stopped
// allocating, against 223,183 when every union built a CEX; the ceiling
// sits about 10% above the new count.
func TestBuildEPPPAllocCeiling(t *testing.T) {
	const ceiling = 45000
	f := bench.MustLoad("m3").Output(3)
	var set *EPPPSet
	allocs := testing.AllocsPerRun(2, func() {
		var err error
		if set, err = BuildEPPP(f, Options{Workers: 1}); err != nil {
			t.Fatal(err)
		}
	})
	if s := set.Stats; s.Unions != 24527 || s.Fresh != 7371 || s.EPPP != 1556 {
		t.Fatalf("m3(3) build changed shape: unions=%d fresh=%d eppp=%d, want 24527/7371/1556",
			s.Unions, s.Fresh, s.EPPP)
	}
	if allocs > ceiling {
		t.Fatalf("BuildEPPP(m3(3), Workers: 1) allocates %.0f times, ceiling %d", allocs, ceiling)
	}
}
