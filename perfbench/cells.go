package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"time"

	"ppt/internal/bufaware"
	"ppt/internal/netsim"
	"ppt/internal/sim"
	"ppt/internal/stats"
	"ppt/internal/topo"
	"ppt/internal/transport"
	"ppt/internal/transport/dctcp"
	"ppt/internal/transport/ppt"
	"ppt/internal/workload"
)

// fabric is one network a workload runs on. The two values below
// duplicate the unexported profiles simFabric(3, 2, 8) and
// testbedFabric() of internal/exp; TestDriftGuard fails when they drift
// apart.
type fabric struct {
	build  func(topo.Config) *topo.Network
	cfg    topo.Config
	rtoMin sim.Time
	hosts  int
}

// leafSpine is the §6.2 simulation fabric at the 3-leaf, 2-spine,
// 8-hosts-per-leaf slice the fig12/fig21/scale1M cells use.
var leafSpine = fabric{
	build: func(cfg topo.Config) *topo.Network { return topo.LeafSpine(3, 2, 8, cfg) },
	cfg: topo.Config{
		HostRate:      40 * netsim.Gbps,
		CoreRate:      100 * netsim.Gbps,
		PerPortBuffer: 120_000,
		ECNHighK:      96_000,
		ECNLowK:       86_000,
	},
	rtoMin: 1 * sim.Millisecond,
	hosts:  24,
}

// testbedStar is the Table 3 testbed: 15 hosts on one 10G switch with a
// 50MB shared buffer.
var testbedStar = fabric{
	build: func(cfg topo.Config) *topo.Network { return topo.Star(15, cfg) },
	cfg: topo.Config{
		HostRate:            10 * netsim.Gbps,
		LinkDelay:           20 * sim.Microsecond,
		SharedBuffer:        50 << 20,
		ECNHighK:            100_000,
		ECNLowK:             80_000,
		DynamicLowThreshold: true,
	},
	rtoMin: 10 * sim.Millisecond,
	hosts:  15,
}

// scheme is one transport a workload runs, as internal/exp's
// baseSchemes builds it.
type scheme struct {
	name string
	make func() transport.Protocol
}

// schemes are the two cells of every workload, run serially in this
// order, as pptsim -schemes ppt,dctcp -parallel 1 does.
var schemes = []scheme{
	{"ppt", func() transport.Protocol { return ppt.Proto{} }},
	{"dctcp", func() transport.Protocol { return dctcp.Proto{} }},
}

// source feeds a cell's flows to the transport layer exactly as
// internal/exp's streamSource does: one generator flow per call, its
// first-syscall size drawn from the classifier RNG in generation order.
// It also timestamps the end of the first pull, which ends a cell's
// set-up, and when timed it sums the host time spent inside Next.
type source struct {
	gen   *workload.Generator
	rng   *rand.Rand
	timed bool
	// stopAtFirstPull makes the first pull panic with errFirstPull once
	// timestamped, ending a set-up trial before any event runs.
	stopAtFirstPull bool

	offered      int
	offeredBytes int64
	firstPull    time.Time
	nextTime     time.Duration
}

func (s *source) Next() (transport.SimpleFlow, bool) {
	if !s.timed && !s.firstPull.IsZero() {
		return s.pull()
	}
	t0 := time.Now()
	f, ok := s.pull()
	t1 := time.Now()
	s.nextTime += t1.Sub(t0)
	if s.firstPull.IsZero() {
		s.firstPull = t1
		if s.stopAtFirstPull {
			panic(errFirstPull)
		}
	}
	return f, ok
}

func (s *source) pull() (transport.SimpleFlow, bool) {
	f, ok := s.gen.Next()
	if !ok {
		return transport.SimpleFlow{}, false
	}
	s.offered++
	s.offeredBytes += f.Size
	return transport.SimpleFlow{
		ID: f.ID, Src: f.Src, Dst: f.Dst, Size: f.Size, Arrive: f.Arrive,
		FirstCall: bufaware.Bulk.FirstCall(s.rng, f.Size, 0),
	}, true
}

// cellSpec names one simulation cell: a workload's inputs under one
// scheme, seed and engine setting.
type cellSpec struct {
	w      *workloadDef
	sc     scheme
	input  int // the index of seed in bench.seeds
	seed   int64
	flows  int
	shards int
}

// cell is a built, not yet run, simulation cell.
type cell struct {
	start     time.Time
	topoBuild time.Duration
	net       *topo.Network
	env       *transport.Env
	proto     transport.Protocol
	src       *source
}

// newCell builds a cell through each layer's public constructor, in the
// order internal/exp's execute does, recording a span per layer call
// when tr is non-nil.
func newCell(spec cellSpec, tr *tracer, parent int) (*cell, error) {
	c := &cell{start: time.Now()}
	cfg := spec.w.fab.cfg
	cfg.Shards = spec.shards
	c.net = spec.w.fab.build(cfg)
	c.topoBuild = time.Since(c.start)
	t := tr.add("topo.build", parent, c.start)
	c.env = transport.NewEnv(c.net)
	c.env.RTOMin = spec.w.fab.rtoMin
	c.proto = spec.sc.make()
	t = tr.add("transport.NewEnv", parent, t)
	if spec.w.spill > 0 {
		if err := c.env.Collector.SetSpill(spec.w.spill); err != nil {
			return nil, fmt.Errorf("set spill: %w", err)
		}
		t = tr.add("stats.SetSpill", parent, t)
	}
	c.src = &source{
		gen: workload.NewGenerator(workload.GenConfig{
			Dist:     spec.w.dist,
			Pattern:  spec.w.pattern,
			Load:     spec.w.load,
			HostRate: cfg.HostRate,
			NumFlows: spec.flows,
			Seed:     spec.seed,
		}),
		rng:   rand.New(rand.NewSource(spec.seed + 7)),
		timed: tr != nil,
	}
	tr.add("workload.NewGenerator", parent, t)
	return c, nil
}

// counters are the layers' own counters read after a cell has run.
type counters struct {
	events           uint64
	pkts, poolAllocs int64 // packets drawn from the packet pools; of those, heap-allocated
	drops, marks     int64
	txData, txFresh  int64 // payload bytes sent by host NICs; of those, not retransmitted
	ports            int
	shard            *transport.ShardStats // nil for a monolithic run
	residentPeak     int
	spilled          int64
}

func readCounters(c *cell) counters {
	net := c.net
	k := counters{
		events:       net.Executed(),
		shard:        c.env.ShardStats,
		residentPeak: c.env.Collector.ResidentPeak(),
		spilled:      c.env.Collector.SpilledRecords(),
	}
	pools := []*netsim.PacketPool{net.Pool}
	if net.Part != nil {
		pools = net.Part.Pools
	}
	for _, p := range pools {
		if p != nil {
			k.pkts += p.Allocs + p.Reuses
			k.poolAllocs += p.Allocs
		}
	}
	ports := net.SwitchPorts()
	for _, h := range net.Hosts {
		nic := h.NIC()
		ports = append(ports, nic)
		k.txData += nic.Stats.TxDataBytes
		k.txFresh += nic.Stats.TxFreshBytes
	}
	for _, p := range ports {
		k.drops += p.Stats.Drops
		k.marks += p.Stats.MarksHigh + p.Stats.MarksLow
	}
	k.ports = len(ports)
	return k
}

// digest fingerprints every field of a Summary; equal inputs under any
// engine setting must give equal digests.
func digest(s stats.Summary) string {
	h := sha256.New()
	fmt.Fprintf(h, "%d %d %d %d %d %d %d %t %d", s.Flows, int64(s.OverallAvg),
		s.SmallCount, int64(s.SmallAvg), int64(s.SmallP99),
		s.LargeCount, int64(s.LargeAvg), s.Truncated, s.Unfinished)
	return hex.EncodeToString(h.Sum(nil)[:8])
}
