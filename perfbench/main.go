// Command perfbench is the repository's benchmark. It runs one workload
// — the ppt and dctcp cells of a registered experiment, serially — in
// this process, for a given time, from a seed given on its command line,
// and prints the workload's host-cost metrics as one JSON line:
//
//	perfbench --workload ls-websearch --seed 1 --seconds 20 --trace 0
//
// It assembles each cell from the layers' public functions, times those
// calls from outside, and reads the layers' own counters. With --trace 1
// it prints per-layer metrics instead, from extra runs under the CPU
// profiler. README.md says why each workload exists and which metrics
// each layer should move.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"

	"ppt/internal/transport"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// metricDef is one metric the benchmark reports, in BENCHMARK.json's
// order.
type metricDef struct{ name, unit string }

var endToEndMetrics = []metricDef{
	{"wall_s", "s"},
	{"cpu_s", "s"},
	{"setup_s", "s"},
	{"flows_per_s", "1/s"},
	{"peak_rss_mb", "MB"},
}

var perLayerMetrics = []metricDef{
	{"workload.next_s", "s"},
	{"workload.flows", "count"},
	{"topo.build_s", "s"},
	{"topo.ports", "count"},
	{"sim.events", "count"},
	{"sim.events_per_pkt", "events/pkt"},
	{"sim.events_per_flow", "events/flow"},
	{"sim.ns_per_event", "ns"},
	{"sim.cpu_share", "frac"},
	{"netsim.pkts", "count"},
	{"netsim.drops", "count"},
	{"netsim.marks", "count"},
	{"netsim.retx_frac", "frac"},
	{"netsim.pool_miss_frac", "frac"},
	{"netsim.ns_per_pkt", "ns"},
	{"netsim.cpu_share", "frac"},
	{"transport.run_s", "s"},
	{"transport.ppt.run_s", "s"},
	{"transport.dctcp.run_s", "s"},
	{"transport.cpu_share", "frac"},
	{"transport.ppt.cpu_share", "frac"},
	{"transport.dctcp.cpu_share", "frac"},
	{"transport.shard.rounds", "count"},
	{"transport.shard.barrier_frac", "frac"},
	{"transport.shard.cross_pkts", "count"},
	{"transport.shard.skip_frac", "frac"},
	{"transport.shard.event_max_share", "frac"},
	{"transport.shard.worker_spread", "frac"},
	{"transport.shard.rebalances", "count"},
	{"stats.summarize_s", "s"},
	{"stats.resident_peak", "count"},
	{"stats.spilled_records", "count"},
	{"stats.cpu_share", "frac"},
	{"runtime.alloc_mb", "MB"},
	{"runtime.allocs_per_flow", "allocs/flow"},
	{"runtime.gc_cycles", "count"},
	{"runtime.cpu_share", "frac"},
	{"trace.overhead_frac", "frac"},
	{"trace.samples", "count"},
}

// setupTrials is how many set-up trials each scheme gets after every
// untraced pass: set-up takes a millisecond or less, so its median needs
// more samples than the passes give.
const setupTrials = 10

// inputsPerRun is how many inputs an untraced run times, cycling
// through them one per pass; a traced run times input 0 alone. The
// inputs are the workload at seeds seed, seed+inputStride, ...: on web
// search the seed moves the work of 1000 flows by about 9%
// (interquartile), and a run that averages over more distinct flows is
// steadier than one that repeats the same ones (STEADINESS.md).
const (
	inputsPerRun = 4
	inputStride  = 1 << 20
)

// minPasses is the fewest timed passes an untraced run makes, so that
// every input runs at least once.
const minPasses = inputsPerRun

// inputSeeds are the workload seeds of a run's n inputs.
func inputSeeds(seed int64, n int) []int64 {
	seeds := make([]int64, n)
	for j := range seeds {
		seeds[j] = seed + int64(j)*inputStride
	}
	return seeds
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+workloadNames())
	seed := fs.Int64("seed", 1, "workload seed (>= 1)")
	seconds := fs.Float64("seconds", 30, "how long to measure, in seconds")
	trace := fs.Int("trace", 0, "0 prints end-to-end metrics; 1 prints per-layer metrics from a traced run")
	spansDir := fs.String("spans-dir", "", "directory to write a traced run's spans to (empty: do not write)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w := findWorkload(*name)
	switch {
	case w == nil:
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want one of %s)\n", *name, workloadNames())
		return 2
	case *seed < 1:
		fmt.Fprintln(stderr, "perfbench: --seed must be >= 1")
		return 2
	case *trace != 0 && *trace != 1:
		fmt.Fprintln(stderr, "perfbench: --trace must be 0 or 1")
		return 2
	case *seconds <= 0:
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive")
		return 2
	}
	out := bufio.NewWriter(stdout)
	defer out.Flush()

	inputs := inputsPerRun
	if *trace == 1 {
		inputs = 1
	}
	seeds := inputSeeds(*seed, inputs)
	prov := provenance(w, seeds, *trace)
	pj, _ := json.Marshal(prov) // a map of strings and numbers always marshals
	fmt.Fprintf(out, "provenance %s\n", pj)

	b := newBench(w, seeds, w.flows)
	warm := b.warmUp()
	budget := time.Duration(*seconds * float64(time.Second))
	untracedBudget := budget
	if *trace == 1 {
		untracedBudget = budget / 2
	}
	untraced := make([][]cellResult, len(schemes))
	setups := make([][]time.Duration, len(schemes))
	start := time.Now()
	for p := 0; p < minPasses && *trace == 0 || time.Since(start) < untracedBudget || p == 0; p++ {
		for i, rs := range b.pass(p, nil) {
			untraced[i] = append(untraced[i], rs...)
		}
		for i := range schemes {
			for t := 0; t < setupTrials; t++ {
				d, err := setupTrial(b.spec(i, 0, w.shards))
				if err != nil {
					b.problems = append(b.problems, err.Error())
					continue
				}
				setups[i] = append(setups[i], d)
			}
		}
	}
	var metrics map[string]float64
	var defs []metricDef
	if *trace == 0 {
		defs = endToEndMetrics
		metrics = endToEnd(untraced, setups)
	} else {
		defs = perLayerMetrics
		tr := newTracer()
		traced := make([][]cellResult, len(schemes))
		for p := 0; p == 0 || time.Since(start) < budget; p++ {
			for i, rs := range b.pass(p, tr) {
				traced[i] = append(traced[i], rs...)
			}
		}
		metrics = perLayer(warm, untraced, traced)
		if *spansDir != "" {
			path := filepath.Join(*spansDir, fmt.Sprintf("%s-seed%d.json", w.name, *seed))
			if err := tr.write(path); err != nil {
				fmt.Fprintf(stderr, "perfbench: %v\n", err)
				return 1
			}
			fmt.Fprintf(out, "spans %s\n", path)
		}
	}

	for i, sc := range schemes {
		walls := make([]string, len(untraced[i]))
		probes := make([]string, len(untraced[i]))
		probesCPU := make([]string, len(untraced[i]))
		rss := make([]string, len(untraced[i]))
		for j, r := range untraced[i] {
			walls[j] = fmt.Sprintf("%.4f", r.wall.Seconds())
			probes[j] = fmt.Sprintf("%.1f", r.probe.Seconds()*1e3)
			probesCPU[j] = fmt.Sprintf("%.1f", r.probeCPU.Seconds()*1e3)
			rss[j] = fmt.Sprintf("%.1f", r.peakRSS)
		}
		fmt.Fprintf(out, "cell %-5s digests [%s]  passes %d  raw wall_s [%s]  probe_ms [%s]  probe_cpu_ms [%s]  peak_rss_mb [%s]\n",
			sc.name, strings.Join(b.ref[i], " "), len(walls), strings.Join(walls, " "),
			strings.Join(probes, " "), strings.Join(probesCPU, " "), strings.Join(rss, " "))
	}
	for _, p := range b.problems {
		fmt.Fprintf(out, "FAILED %s\n", p)
	}
	res := result{
		Correct:   b.failed == 0 && len(b.problems) == 0,
		Attempted: b.attempted,
		Failed:    b.failed,
		Metrics:   map[string]metricValue{},
	}
	fmt.Fprintf(out, "metric %-34s %.6g frac\n", "failed_frac", ratio(float64(b.failed), float64(b.attempted)))
	for _, d := range defs {
		v, ok := metrics[d.name]
		if !ok {
			panic("perfbench: no value for metric " + d.name)
		}
		res.Metrics[d.name] = metricValue{v, d.unit}
		fmt.Fprintf(out, "metric %-34s %.6g %s\n", d.name, v, d.unit)
	}
	rj, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err) // a NaN metric
		return 1
	}
	fmt.Fprintf(out, "%s\n", rj)
	return 0
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// provenance records what a result was measured on, so that results from
// different machines and toolchains are not compared by mistake.
func provenance(w *workloadDef, seeds []int64, trace int) map[string]any {
	return map[string]any{
		"workload":       w.name,
		"seed":           seeds[0],
		"input_seeds":    seeds,
		"trace":          trace,
		"flows_per_cell": w.flows,
		"nproc":          runtime.NumCPU(),
		"gomaxprocs":     runtime.GOMAXPROCS(0),
		"go":             runtime.Version(),
		"goos_goarch":    runtime.GOOS + "/" + runtime.GOARCH,
		"cpu":            cpuModel(),
	}
}

// cpuModel reads the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// medianOf is the median of f over a scheme's results.
func medianOf(rs []cellResult, f func(cellResult) float64) float64 {
	xs := make([]float64, len(rs))
	for i, r := range rs {
		xs[i] = f(r)
	}
	return median(xs)
}

// inputMean is the mean over a scheme's inputs of f's median over each
// input's results.
func inputMean(rs []cellResult, f func(cellResult) float64) float64 {
	byInput := map[int][]float64{}
	for _, r := range rs {
		byInput[r.input] = append(byInput[r.input], f(r))
	}
	var sum float64
	for _, xs := range byInput {
		sum += median(xs)
	}
	return ratio(sum, float64(len(byInput)))
}

// endToEnd computes the end-to-end metrics from the timed passes: each
// is a sum over the schemes of the cells' inputMean, but peak_rss_mb,
// the largest over the schemes of that mean, since the cells run one
// after another. Wall times are multiplied by probeRef over the median
// of the run's probe wall times, CPU times by probeRef over the median
// of its probe CPU times: they are host times on the reference host
// (probe.go).
func endToEnd(untraced [][]cellResult, setups [][]time.Duration) map[string]float64 {
	var probes, probesCPU []float64
	for _, r := range slices.Concat(untraced...) {
		probes = append(probes, r.probe.Seconds())
		probesCPU = append(probesCPU, r.probeCPU.Seconds())
	}
	scale := ratio(probeRef.Seconds(), median(probes))
	scaleCPU := ratio(probeRef.Seconds(), median(probesCPU))
	var wall, cpu, setup, runPhase, rss float64
	flows := 0
	for i, rs := range untraced {
		wall += inputMean(rs, func(r cellResult) float64 { return r.wall.Seconds() })
		cpu += inputMean(rs, func(r cellResult) float64 { return r.cpu.Seconds() })
		runPhase += inputMean(rs, func(r cellResult) float64 { return (r.wall - r.setup).Seconds() })
		rss = max(rss, inputMean(rs, func(r cellResult) float64 { return r.peakRSS }))
		var xs []float64
		for _, r := range rs {
			xs = append(xs, r.setup.Seconds())
		}
		for _, d := range setups[i] {
			xs = append(xs, d.Seconds())
		}
		setup += median(xs)
		if len(rs) > 0 {
			flows += rs[0].offered
		}
	}
	return map[string]float64{
		"wall_s":      wall * scale,
		"cpu_s":       cpu * scaleCPU,
		"setup_s":     setup * scale,
		"flows_per_s": ratio(float64(flows), runPhase*scale),
		"peak_rss_mb": rss,
	}
}

// perLayer computes the per-layer metrics. Counts and times are per
// pass (the traced runs' totals over the number of traced passes);
// ratios are of totals; CPU shares are of the traced runs' profile
// samples. The per-event and per-packet costs use the untraced runs,
// whose event and packet counts equal the traced ones. The shard
// workers' spread and rebalances are deterministic counts, so they are
// the largest over every cell, warm-up included: on ls-websearch the
// warm-up is the run with 2 workers.
func perLayer(warm []cellResult, untraced, traced [][]cellResult) map[string]float64 {
	var (
		passes                                float64
		flows, events, pkts, poolAllocs       float64
		drops, marks, txData, txFresh         float64
		next, build, summarize, run           float64
		allocBytes, mallocs, gcs, spilled     float64
		resident, ports                       float64
		tracedWall, untracedWall, untracedRun float64
		untracedEvents, untracedPkts          float64
		shard                                 transport.ShardStats
		samples                               = map[string]float64{}
		schemeRun                             = map[string]float64{}
	)
	for i, rs := range traced {
		passes = max(passes, float64(len(rs)))
		for _, r := range rs {
			k := r.k
			flows += float64(r.offered)
			events += float64(k.events)
			pkts += float64(k.pkts)
			poolAllocs += float64(k.poolAllocs)
			drops += float64(k.drops)
			marks += float64(k.marks)
			txData += float64(k.txData)
			txFresh += float64(k.txFresh)
			next += r.next.Seconds()
			build += r.topoBuild.Seconds()
			summarize += r.summarize.Seconds()
			run += r.runSource.Seconds()
			schemeRun[schemes[i].name] += r.runSource.Seconds()
			allocBytes += float64(r.allocBytes)
			mallocs += float64(r.mallocs)
			gcs += float64(r.gcs)
			spilled += float64(k.spilled)
			resident = max(resident, float64(k.residentPeak))
			ports = float64(k.ports)
			shard.Merge(k.shard)
			for layer, n := range r.samples {
				samples[layer] += float64(n)
			}
		}
		tracedWall += medianOf(rs, func(r cellResult) float64 { return r.wall.Seconds() })
	}
	for _, rs := range untraced {
		untracedWall += medianOf(rs, func(r cellResult) float64 { return r.wall.Seconds() })
		untracedRun += medianOf(rs, func(r cellResult) float64 { return (r.wall - r.setup).Seconds() })
		if len(rs) > 0 {
			untracedEvents += float64(rs[0].k.events)
			untracedPkts += float64(rs[0].k.pkts)
		}
	}
	var totalSamples float64
	for _, n := range samples {
		totalSamples += n
	}
	share := func(layer string) float64 { return ratio(samples[layer], totalSamples) }
	m := map[string]float64{
		"workload.next_s":           next / passes,
		"workload.flows":            flows / passes,
		"topo.build_s":              build / passes,
		"topo.ports":                ports,
		"sim.events":                events / passes,
		"sim.events_per_pkt":        ratio(events, pkts),
		"sim.events_per_flow":       ratio(events, flows),
		"sim.ns_per_event":          ratio(untracedRun*1e9, untracedEvents),
		"sim.cpu_share":             share("sim"),
		"netsim.pkts":               pkts / passes,
		"netsim.drops":              drops / passes,
		"netsim.marks":              marks / passes,
		"netsim.retx_frac":          1 - ratio(txFresh, txData),
		"netsim.pool_miss_frac":     ratio(poolAllocs, pkts),
		"netsim.ns_per_pkt":         ratio(untracedRun*1e9, untracedPkts),
		"netsim.cpu_share":          share("netsim"),
		"transport.run_s":           run / passes,
		"transport.ppt.run_s":       schemeRun["ppt"] / passes,
		"transport.dctcp.run_s":     schemeRun["dctcp"] / passes,
		"transport.cpu_share":       share("transport"),
		"transport.ppt.cpu_share":   share("transport.ppt"),
		"transport.dctcp.cpu_share": share("transport.dctcp"),
		"stats.summarize_s":         summarize / passes,
		"stats.resident_peak":       resident,
		"stats.spilled_records":     spilled / passes,
		"stats.cpu_share":           share("stats"),
		"runtime.alloc_mb":          allocBytes / passes / (1 << 20),
		"runtime.allocs_per_flow":   ratio(mallocs, flows),
		"runtime.gc_cycles":         gcs / passes,
		"runtime.cpu_share":         share("runtime"),
		"trace.overhead_frac":       ratio(tracedWall, untracedWall) - 1,
		"trace.samples":             totalSamples,
	}
	_, maxShare := shard.EventShareBounds()
	m["transport.shard.rounds"] = float64(shard.Rounds) / passes
	m["transport.shard.barrier_frac"] = shard.BarrierFrac()
	m["transport.shard.cross_pkts"] = float64(shard.CrossPackets) / passes
	m["transport.shard.skip_frac"] = ratio(float64(shard.WindowsSkipped), float64(shard.WindowsRun+shard.WindowsSkipped))
	m["transport.shard.event_max_share"] = maxShare
	var spread, rebalances float64
	for _, r := range append(slices.Concat(traced...), warm...) {
		if st := r.k.shard; st != nil {
			spread = max(spread, st.WorkerSpread)
			rebalances = max(rebalances, float64(st.Rebalances))
		}
	}
	m["transport.shard.worker_spread"] = spread
	m["transport.shard.rebalances"] = rebalances
	return m
}

// ratio is a/b, or 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
