package core

import (
	"runtime"
	"testing"

	"repro/internal/bench"
)

// retainedBytes returns how many heap bytes the value hold keeps alive:
// HeapAlloc after collecting with the value held, less HeapAlloc after
// collecting with it dropped. hold returns a release function that
// drops the value. Each reading follows two collections, which empty
// the sync.Pool caches a build leaves behind.
func retainedBytes(hold func() (release func())) int64 {
	var held, dropped runtime.MemStats
	release := hold()
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&held)
	release()
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&dropped)
	return int64(held.HeapAlloc) - int64(dropped.HeapAlloc)
}

// TestRetainedMemory holds what a build hands out to the storage it
// owns. On max512(5) (7 levels, 30,717 pseudoproducts, 1,623
// candidates) an EPPPSet may retain at most 1.5× what its candidates
// own — a 56-byte CEX header, 16 bytes per factor and an 8-byte pointer
// each — so a set that pins a level's arrays fails; a form of
// SelectCover, or a Result of Heuristic, may retain at most 64 KiB, so
// one that pins its candidates' storage fails.
func TestRetainedMemory(t *testing.T) {
	f := bench.MustLoad("max512").Output(5)
	var own int64
	setBytes := retainedBytes(func() func() {
		set, err := BuildEPPP(f, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if set.Stats.Candidates != 30717 || len(set.Candidates) != 1623 {
			t.Fatalf("max512(5) build changed shape: %d pseudoproducts, %d candidates, want 30717/1623",
				set.Stats.Candidates, len(set.Candidates))
		}
		for _, c := range set.Candidates {
			own += 56 + 16*int64(len(c.Factors)) + 8
		}
		return func() { runtime.KeepAlive(set) }
	})
	if limit := own * 3 / 2; setBytes > limit {
		t.Errorf("EPPPSet retains %d B; its candidates own %d B, limit %d", setBytes, own, limit)
	}

	const formLimit = 64 << 10
	formBytes := retainedBytes(func() func() {
		set, err := BuildEPPP(f, Options{})
		if err != nil {
			t.Fatal(err)
		}
		form, _, _, err := SelectCover(f, set, Options{})
		if err != nil {
			t.Fatal(err)
		}
		return func() { runtime.KeepAlive(form) }
	})
	if formBytes > formLimit {
		t.Errorf("SelectCover's form retains %d B, limit %d", formBytes, formLimit)
	}
	resBytes := retainedBytes(func() func() {
		res, err := Heuristic(f, 0, Options{})
		if err != nil {
			t.Fatal(err)
		}
		return func() { runtime.KeepAlive(res) }
	})
	if resBytes > formLimit {
		t.Errorf("Heuristic(k = 0)'s Result retains %d B, limit %d", resBytes, formLimit)
	}
	t.Logf("retained: set %d B (candidates own %d B), form %d B, heuristic result %d B",
		setBytes, own, formBytes, resBytes)
}
