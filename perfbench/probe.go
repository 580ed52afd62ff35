package main

import (
	"container/heap"
	"time"
)

// The host this benchmark runs on is a VM that shares its cores, caches
// and memory with other tenants, and its speed drifts by 20% and more
// over minutes as their load comes and goes. The probe measures that
// speed: a fixed kernel of the benchmark's own, independent of the
// simulator's code, shaped like the simulator's hot loop. It keeps a
// binary heap of event keys, allocates a small object per step, so that
// allocation, page faults on a heap returned to the OS and a garbage
// collection are part of what it times, as they are of a cell, and
// reads and writes a 16 MiB table at random. It runs on a collected
// heap right before every timed cell. A run's wall times are scaled by
// probeRef over the median of the run's probe wall times, and its CPU
// times by probeRef over the median of the probe CPU times, which leave
// out the time the VM's CPU was taken away (steal): the end-to-end
// metrics are host time on a host whose probe takes probeRef.
//
// STEADINESS.md gives the evidence for the probe: how much steadier it
// makes the metrics, and how kernels without the allocations or without
// the table did.

// probeRef is the probe time the end-to-end metrics are scaled to: about
// its median on the 2-vCPU Xeon VM the benchmark was tuned on, so that
// the scaled times there are near the raw ones.
const probeRef = 80 * time.Millisecond

const (
	probeKeys  = 1 << 16 // event keys in the heap
	probeTable = 2 << 20 // 16 MiB of state, beyond a core's share of cache
	probeSteps = 150_000 // pop-and-push steps
)

// probeSink keeps the probe's result alive.
var probeSink uint64

// probeHeap is a min-heap of boxed keys: every push allocates.
type probeHeap []any

func (h probeHeap) Len() int           { return len(h) }
func (h probeHeap) Less(i, j int) bool { return h[i].(uint64) < h[j].(uint64) }
func (h probeHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *probeHeap) Push(x any)        { *h = append(*h, x) }
func (h *probeHeap) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

// probe runs the kernel once and returns its wall and CPU time. Its work
// depends on nothing but constants. Its table is faulted in before the
// clocks start; the table and the heap are garbage once it returns.
func probe() (wall, cpu time.Duration) {
	table := make([]uint64, probeTable)
	for i := 0; i < len(table); i += 512 {
		table[i] = 1
	}
	cpu0 := cpuTime()
	t := time.Now()
	x := uint64(0x9E3779B97F4A7C15)
	next := func() uint64 { // xorshift64
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	h := &probeHeap{}
	for range probeKeys {
		heap.Push(h, next())
	}
	var acc uint64
	for range probeSteps {
		k := heap.Pop(h).(uint64)
		acc += table[k%probeTable]
		table[next()%probeTable] = acc
		heap.Push(h, k+next()%1000)
	}
	wall, cpu = time.Since(t), cpuTime()-cpu0
	probeSink = acc
	return wall, cpu
}
