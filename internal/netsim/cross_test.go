package netsim

import (
	"math/rand"
	"testing"

	"ppt/internal/sim"
)

// Randomized barrier rounds: several outboxes deposit at random due
// times at or past the current horizon, the inbox runs up to the next
// horizon, and the whole delivery sequence must come out in canonical
// (At, Src, Seq) order — exercising the head-index fire, compaction at
// merge and the overlap-only mergeRuns on interleaving batches. Every
// merge must leave the delivered prefix compacted away.
func TestInboxMergeRandomized(t *testing.T) {
	const srcs = 3
	rng := rand.New(rand.NewSource(5))
	ds := sim.NewScheduler()
	k := &sink{s: ds}
	p := NewPort("x", sim.NewScheduler(), PortConfig{Rate: 10 * Gbps}, k, nil)
	in := NewInbox(ds)
	outs := make([]*Outbox, srcs)
	for i := range outs {
		outs[i] = NewOutbox(i)
	}
	sent := 0
	horizon := sim.Time(0)
	for round := 0; round < 200; round++ {
		for i, o := range outs {
			for n := rng.Intn(6); n > 0; n-- {
				at := horizon + sim.Time(rng.Intn(40))
				o.deposit(at, DataPacket(uint32(i)<<20|uint32(o.seq), 0, 1, 0, 100, 0), p, 0)
				sent++
			}
		}
		if MergeWindows(outs, []*Inbox{in}) > 0 && in.head != 0 {
			t.Fatalf("round %d: merge left head at %d", round, in.head)
		}
		horizon += sim.Time(1 + rng.Intn(15))
		ds.RunUntil(horizon - 1)
	}
	ds.Run()
	if len(k.pkts) != sent || len(in.pending) != 0 || in.head != 0 {
		t.Fatalf("delivered %d of %d; drained inbox kept pending=%d head=%d", len(k.pkts), sent, len(in.pending), in.head)
	}
	for i := 1; i < len(k.pkts); i++ {
		a, b := k.pkts[i-1].FlowID, k.pkts[i].FlowID
		if k.at[i] < k.at[i-1] || (k.at[i] == k.at[i-1] && (a>>20 > b>>20 || (a>>20 == b>>20 && a > b))) {
			t.Fatalf("delivery %d out of canonical order: (%v, %#x) after (%v, %#x)", i, k.at[i], b, k.at[i-1], a)
		}
	}
}
