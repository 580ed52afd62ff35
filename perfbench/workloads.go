package main

import "ppt/internal/workload"

// workloadDef is one benchmark workload: the inputs of a registered
// experiment cell, run under both schemes. Why each exists, and which
// layer metrics it is expected to move, is recorded in README.md.
type workloadDef struct {
	name    string
	fab     fabric
	dist    *workload.Dist
	pattern workload.Pattern
	load    float64
	// flows is the workload's flow count per cell.
	flows int
	// shards is topo.Config.Shards: 0 builds the monolithic fabric
	// (the only choice on a star), k >= 1 the partitioned leaf-spine
	// driven by the windowed engine with k worker goroutines.
	shards int
	// refShards is the engine setting of the warm-up pass whose Summary
	// digests every timed pass must reproduce; it differs from shards
	// where a second engine setting must give the same outcome.
	refShards int
	// spill bounds the FCT collector to this many resident records
	// (stats.Collector.SetSpill); 0 keeps every record in memory.
	spill int
}

var workloads = []*workloadDef{
	{
		// The fig12 cell.
		name: "ls-websearch", fab: leafSpine, dist: workload.WebSearch,
		pattern: workload.AllToAll{N: leafSpine.hosts}, load: 0.5,
		flows: 1000, shards: 1, refShards: 2,
	},
	{
		// The fig12 cell with 2 shard workers. Not in BENCHMARK.json: on a
		// 2-vCPU machine shared with other tenants its spread over seeds
		// came too close to the bounds (README.md, STEADINESS.md). It
		// stays runnable by hand for studying the 2-worker slowdown.
		name: "ls-websearch-2w", fab: leafSpine, dist: workload.WebSearch,
		pattern: workload.AllToAll{N: leafSpine.hosts}, load: 0.5,
		flows: 1000, shards: 2, refShards: 1,
	},
	{
		// The scale1M cell at its default size, with its spill chunk.
		name: "ls-memcached-spill", fab: leafSpine, dist: workload.MemcachedW1,
		pattern: workload.AllToAll{N: leafSpine.hosts}, load: 0.5,
		flows: 100_000, shards: 1, refShards: 1, spill: 1 << 16,
	},
	{
		// The fig10 cell.
		name: "star-incast", fab: testbedStar, dist: workload.WebSearch,
		pattern: workload.Incast{N: testbedStar.hosts, Target: 0}, load: 0.5,
		flows: 2000,
	},
}

func findWorkload(name string) *workloadDef {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}
