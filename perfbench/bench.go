package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"strconv"
	"strings"
	"syscall"
	"time"

	"ppt/internal/stats"
	"ppt/internal/transport"
)

// cellResult is one run of one cell, measured from outside the layers.
type cellResult struct {
	sum          stats.Summary
	input        int // the index of the cell's input in bench.seeds
	offered      int
	offeredBytes int64
	// delivered is Env.Eff.UsefulDelivered: the bytes of completed flows.
	delivered int64
	// wall runs from the first layer call to RunSource's return; setup
	// is its part before the first pulled flow, when no event has run.
	wall, setup, cpu time.Duration
	k                counters
	// probe and probeCPU are the wall and CPU time of the probe
	// (probe.go) right before an untraced cell.
	probe, probeCPU time.Duration
	// peakRSS is the process's resident-set high-water mark in MiB
	// over the cell, from its start.
	peakRSS float64

	// Filled only for a traced run.
	topoBuild, runSource, next, summarize time.Duration
	allocBytes, mallocs                   uint64
	gcs                                   uint32
	samples                               map[string]int64 // CPU profile samples per layer
}

// runCell builds and runs one cell. A traced run also records spans
// around each layer call, profiles the CPU, reads the allocator's
// counters, and times a second Summarize.
func runCell(spec cellSpec, tr *tracer) (r cellResult, err error) {
	// Every cell starts from a collected heap, returned to the OS, and
	// from a reset resident-set high-water mark, so neither the garbage
	// nor the retained pages of the cell or probe before are charged to
	// it. An untraced cell is probed (probe.go) on a collected heap.
	debug.FreeOSMemory()
	if tr == nil {
		r.probe, r.probeCPU = probe()
		debug.FreeOSMemory()
	}
	if err := resetPeakRSS(); err != nil {
		return r, err
	}
	var m0 runtime.MemStats
	var prof bytes.Buffer
	if tr != nil {
		runtime.ReadMemStats(&m0)
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return r, fmt.Errorf("start CPU profile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	cpu0 := cpuTime()
	root := tr.open("cell "+spec.sc.name, 0, time.Now())
	c, err := newCell(spec, tr, root)
	if err != nil {
		return r, err
	}
	defer c.env.Collector.Close()
	t := time.Now()
	r.sum = transport.RunSource(c.env, c.proto, c.src, transport.RunConfig{})
	end := time.Now()
	r.cpu = cpuTime() - cpu0
	r.wall = end.Sub(c.start)
	r.setup = c.src.firstPull.Sub(c.start)
	r.input = spec.input
	r.offered, r.offeredBytes = c.src.offered, c.src.offeredBytes
	r.delivered = c.env.Eff.UsefulDelivered
	r.k = readCounters(c)
	if r.peakRSS, err = peakRSSMB(); err != nil {
		return r, err
	}
	if tr == nil {
		return r, nil
	}

	pprof.StopCPUProfile()
	var m1 runtime.MemStats
	runtime.ReadMemStats(&m1)
	r.allocBytes, r.mallocs, r.gcs = m1.TotalAlloc-m0.TotalAlloc, m1.Mallocs-m0.Mallocs, m1.NumGC-m0.NumGC
	r.topoBuild, r.next = c.topoBuild, c.src.nextTime
	r.runSource = end.Sub(t) - r.next // self time: pulls are the workload layer's
	tr.closeSpan(tr.open("transport.RunSource", root, t), end)
	t = time.Now()
	again := c.env.Collector.Summarize()
	r.summarize = time.Since(t)
	tr.closeSpan(root, tr.add("stats.Summarize", root, t))
	// RunSource sets the truncation fields after summarizing.
	again.Truncated, again.Unfinished = r.sum.Truncated, r.sum.Unfinished
	if again != r.sum {
		return r, fmt.Errorf("a second Summarize gave %v, the run %v", again, r.sum)
	}
	r.samples, err = foldProfile(prof.Bytes())
	return r, err
}

// errFirstPull ends a set-up trial at its first pulled flow.
var errFirstPull = errors.New("set-up trial reached its first pull")

// setupTrial measures one cell's set-up alone: it builds the cell and
// enters RunSource, which stops at the first pulled flow, before any
// simulated event. The first pull happens before either run driver
// starts a goroutine or an event, so unwinding there leaves nothing
// running.
func setupTrial(spec cellSpec) (d time.Duration, err error) {
	c, err := newCell(spec, nil, 0)
	if err != nil {
		return 0, err
	}
	defer c.env.Collector.Close()
	c.src.stopAtFirstPull = true
	defer func() {
		switch p := recover(); {
		case p == errFirstPull:
			d = c.src.firstPull.Sub(c.start)
		case p != nil:
			err = fmt.Errorf("set-up trial: panic: %v", p)
		default:
			err = errors.New("set-up trial ran past its first pull")
		}
	}()
	transport.RunSource(c.env, c.proto, c.src, transport.RunConfig{})
	return 0, nil
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// resetPeakRSS resets the process's resident-set high-water mark to its
// current resident set (Linux's clear_refs, value 5).
func resetPeakRSS() error {
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("reset peak RSS: %w", err)
	}
	return nil
}

// peakRSSMB is the process's resident-set high-water mark in MiB since
// the last resetPeakRSS (VmHWM in /proc/self/status).
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("read peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("read peak RSS: %q: %w", line, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("read peak RSS: no VmHWM in /proc/self/status")
}

// bench runs one workload's cells and checks every result.
type bench struct {
	w *workloadDef
	// seeds are the workload seeds of the run's inputs; pass p runs
	// input p mod len(seeds).
	seeds []int64
	flows int

	// ref holds, per scheme and input, the digest of the input's first
	// run, which every later run of it must reproduce: for input 0 that
	// is the warm-up, at the reference engine setting. events holds the
	// first timed event count.
	ref    [][]string
	events [][]uint64

	attempted, failed int
	problems          []string
}

func newBench(w *workloadDef, seeds []int64, flows int) *bench {
	b := &bench{w: w, seeds: seeds, flows: flows}
	for range schemes {
		b.ref = append(b.ref, make([]string, len(seeds)))
		b.events = append(b.events, make([]uint64, len(seeds)))
	}
	return b
}

func (b *bench) spec(i, input, shards int) cellSpec {
	return cellSpec{w: b.w, sc: schemes[i], input: input, seed: b.seeds[input], flows: b.flows, shards: shards}
}

// warmUp runs each scheme once on input 0 at the workload's reference
// engine setting, which makes its digest the input's reference, and
// returns the results of the cells that passed their checks.
func (b *bench) warmUp() []cellResult {
	var out []cellResult
	for i := range schemes {
		if r, ok := b.run(i, b.spec(i, 0, b.w.refShards), nil); ok {
			out = append(out, r)
		}
	}
	return out
}

// pass runs every scheme once on input p mod len(b.seeds) at the
// workload's own engine setting. It returns the results of the cells
// that passed their checks.
func (b *bench) pass(p int, tr *tracer) [][]cellResult {
	out := make([][]cellResult, len(schemes))
	for i := range schemes {
		if r, ok := b.run(i, b.spec(i, p%len(b.seeds), b.w.shards), tr); ok {
			out[i] = append(out[i], r)
		}
	}
	return out
}

// run runs one cell and accounts its flows: a cell that fails any check
// fails every flow it was offered.
func (b *bench) run(i int, spec cellSpec, tr *tracer) (cellResult, bool) {
	r, err := runCell(spec, tr)
	if err == nil {
		err = b.check(i, spec, r)
	}
	b.attempted += spec.flows
	if err != nil {
		b.failed += spec.flows
		b.problems = append(b.problems, fmt.Sprintf("%s shards=%d: %v", spec.sc.name, spec.shards, err))
		return r, false
	}
	return r, true
}

func (b *bench) check(i int, spec cellSpec, r cellResult) error {
	s := r.sum
	switch {
	case s.Truncated || s.Unfinished > 0:
		return fmt.Errorf("%d flows unfinished", s.Unfinished)
	case r.offered != spec.flows:
		return fmt.Errorf("source offered %d of %d flows", r.offered, spec.flows)
	case s.Flows != r.offered:
		return fmt.Errorf("%d of %d offered flows completed", s.Flows, r.offered)
	case r.delivered != r.offeredBytes:
		return fmt.Errorf("completed flows hold %d bytes, the offered flows %d", r.delivered, r.offeredBytes)
	}
	ref := &b.ref[i][spec.input]
	if d := digest(s); *ref == "" {
		*ref = d
	} else if d != *ref {
		return fmt.Errorf("seed %d: summary digest %s differs from the reference %s (warm-up shards=%d)", spec.seed, d, *ref, b.w.refShards)
	}
	if events := &b.events[i][spec.input]; spec.shards == b.w.shards && r.k.events > 0 {
		if *events == 0 {
			*events = r.k.events
		} else if r.k.events != *events {
			return fmt.Errorf("seed %d: executed %d events, an earlier run of the same cell %d", spec.seed, r.k.events, *events)
		}
	}
	return nil
}
