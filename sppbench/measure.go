package main

import (
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"
)

// phaseResult is what one timed phase measured from the process as a
// whole; per-op latencies come from the workload.
type phaseResult struct {
	wall     time.Duration
	cpu      time.Duration // user+sys of the whole process
	mallocs  uint64
	peakHeap uint64 // bytes of live+unswept heap objects, sampled
	lat      []time.Duration
}

// heapObjects is the runtime metric for in-use heap: bytes occupied by
// heap objects (live or not yet swept), i.e. MemStats.HeapAlloc, read
// without stopping the world.
const heapObjects = "/memory/classes/heap/objects:bytes"

// heapSampler tracks the peak of heapObjects until stopped.
type heapSampler struct {
	stop chan struct{}
	done chan uint64
}

func startHeapSampler(every time.Duration) *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan uint64, 1)}
	go func() {
		sample := []metrics.Sample{{Name: heapObjects}}
		var peak uint64
		read := func() {
			metrics.Read(sample)
			peak = max(peak, sample[0].Value.Uint64())
		}
		tick := time.NewTicker(every)
		defer tick.Stop()
		read()
		for {
			select {
			case <-tick.C:
				read()
			case <-h.stop:
				read()
				h.done <- peak
				return
			}
		}
	}()
	return h
}

// peak stops the sampler and returns the highest reading.
func (h *heapSampler) peak() uint64 {
	close(h.stop)
	return <-h.done
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// timed runs fn as one timed phase. fn runs the op sequence and returns
// the per-op latencies. A GC before the phase starts every phase from
// the same heap state.
func timed(fn func() []time.Duration) phaseResult {
	runtime.GC()
	m0 := mallocs()
	heap := startHeapSampler(2 * time.Millisecond)
	c0 := processCPU()
	t0 := time.Now()
	lat := fn()
	wall := time.Since(t0)
	cpu := processCPU() - c0
	peak := heap.peak()
	return phaseResult{wall: wall, cpu: cpu, mallocs: mallocs() - m0, peakHeap: peak, lat: lat}
}

// positions lists the op positions start, start+step, ... below n: the
// share of an op sequence that one of step callers takes.
func positions(n, start, step int) []int {
	var out []int
	for i := start; i < n; i += step {
		out = append(out, i)
	}
	return out
}

// runClients runs one closed-loop caller per list of op positions,
// concurrently, and returns every op's latency, sorted. call performs
// the op at position i for client c and returns its latency.
func runClients(perClient [][]int, call func(c, i int) time.Duration) []time.Duration {
	lats := make([][]time.Duration, len(perClient))
	var wg sync.WaitGroup
	for c := range perClient {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			out := make([]time.Duration, 0, len(perClient[c]))
			for _, i := range perClient[c] {
				out = append(out, call(c, i))
			}
			lats[c] = out
		}(c)
	}
	wg.Wait()
	var all []time.Duration
	for _, l := range lats {
		all = append(all, l...)
	}
	sort.Slice(all, func(a, b int) bool { return all[a] < all[b] })
	return all
}
