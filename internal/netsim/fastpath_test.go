package netsim

import (
	"testing"

	"ppt/internal/sim"
)

// The fast-path tests pit a fused port against an identically configured
// -fastpath=off port driven by the same packet script and assert the two
// are observationally identical: same deliveries at the same times in the
// same order, same counters, same pool behaviour. The only permitted
// difference is the event count (DESIGN.md §7.6).

// pairRun drives the same script through a fused and a classic port and
// returns both ports, their sinks, their pools (nil when poolCap == 0)
// and the events each scheduler executed.
func pairRun(t *testing.T, cfg PortConfig, poolCap int64, script func(s *sim.Scheduler, p *Port)) (pf, pc *Port, kf, kc *sink, bf, bc *BufferPool, ef, ec uint64) {
	t.Helper()
	run := func(noFast bool) (*Port, *sink, *BufferPool, uint64) {
		s := sim.NewScheduler()
		var pool *BufferPool
		if poolCap > 0 {
			pool = NewBufferPool(poolCap)
		}
		c := cfg
		c.NoFastPath = noFast
		p, k := newTestPort(s, c, pool)
		script(s, p)
		s.Run()
		// Mirror the run drivers: settle deferred accounting at the final
		// executed horizon, inclusively.
		p.SettleTx(s.Now())
		return p, k, pool, s.Executed
	}
	pf, kf, bf, ef = run(false)
	pc, kc, bc, ec = run(true)
	return
}

// assertSameOutcome fails unless both runs delivered the same packets at
// the same times with the same markings, and the ports (and pools) ended
// with identical counters.
func assertSameOutcome(t *testing.T, pf, pc *Port, kf, kc *sink, bf, bc *BufferPool) {
	t.Helper()
	if len(kf.pkts) != len(kc.pkts) {
		t.Fatalf("fused delivered %d packets, classic %d", len(kf.pkts), len(kc.pkts))
	}
	for i := range kf.pkts {
		a, b := kf.pkts[i], kc.pkts[i]
		if kf.at[i] != kc.at[i] {
			t.Fatalf("delivery %d: fused at %v, classic at %v", i, kf.at[i], kc.at[i])
		}
		if a.FlowID != b.FlowID || a.Seq != b.Seq || a.WireLen != b.WireLen ||
			a.Prio != b.Prio || a.CE != b.CE || a.Trimmed != b.Trimmed {
			t.Fatalf("delivery %d differs: fused %+v, classic %+v", i, a, b)
		}
	}
	if pf.Stats != pc.Stats {
		t.Fatalf("stats differ:\nfused   %+v\nclassic %+v", pf.Stats, pc.Stats)
	}
	if (bf == nil) != (bc == nil) {
		t.Fatalf("pool presence differs")
	}
	if bf != nil {
		if bf.Drops != bc.Drops {
			t.Fatalf("pool drops: fused %d, classic %d", bf.Drops, bc.Drops)
		}
		if u1, u2 := bf.Used(), bc.Used(); u1 != u2 {
			t.Fatalf("pool used: fused %d, classic %d", u1, u2)
		}
	}
}

// An uncongested hop costs one event per packet fused (the delivery)
// versus two classic (serialize-complete + delivery) — the tentpole's
// whole point.
func TestFastPathSingleEventPerHop(t *testing.T) {
	cfg := PortConfig{Delay: 1 * sim.Microsecond}
	script := func(s *sim.Scheduler, p *Port) {
		p.Enqueue(DataPacket(1, 0, 1, 0, 1000, 0))
	}
	pf, pc, kf, kc, bf, bc, ef, ec := pairRun(t, cfg, 0, script)
	assertSameOutcome(t, pf, pc, kf, kc, bf, bc)
	if ef != 1 || ec != 2 {
		t.Fatalf("events: fused %d (want 1), classic %d (want 2)", ef, ec)
	}
}

// A back-to-back burst still saves one event per packet: both modes pay
// the resume pops, only classic pays serialize-complete events on top.
func TestFastPathBurstEventSavings(t *testing.T) {
	const n = 8
	cfg := PortConfig{Delay: 500 * sim.Nanosecond}
	script := func(s *sim.Scheduler, p *Port) {
		for i := 0; i < n; i++ {
			p.Enqueue(DataPacket(uint32(i), 0, 1, 0, 1200, 0))
		}
	}
	pf, pc, kf, kc, bf, bc, ef, ec := pairRun(t, cfg, 0, script)
	assertSameOutcome(t, pf, pc, kf, kc, bf, bc)
	if len(kf.pkts) != n {
		t.Fatalf("delivered %d, want %d", len(kf.pkts), n)
	}
	if ec-ef != n {
		t.Fatalf("classic executed %d events, fused %d; want exactly %d fewer fused", ec, ef, n)
	}
}

// Packets enqueued while a fused transmission is in flight must wait for
// the resume timer and pop in strict-priority order — the arrival cannot
// jump onto the wire mid-serialization just because no serialize-complete
// event exists on the fast path.
func TestFastPathEnqueueDuringSerialization(t *testing.T) {
	cfg := PortConfig{Delay: 1 * sim.Microsecond}
	script := func(s *sim.Scheduler, p *Port) {
		p.Enqueue(DataPacket(1, 0, 1, 0, 1400, 3)) // occupies the link
		// Mid-serialization: low prio first, then high. High must pop
		// first at serialize-complete.
		s.At(200*sim.Nanosecond, func() { p.Enqueue(DataPacket(2, 0, 1, 0, 1000, 6)) })
		s.At(300*sim.Nanosecond, func() { p.Enqueue(DataPacket(3, 0, 1, 0, 1000, 1)) })
	}
	pf, pc, kf, kc, bf, bc, _, _ := pairRun(t, cfg, 0, script)
	assertSameOutcome(t, pf, pc, kf, kc, bf, bc)
	want := []uint32{1, 3, 2}
	for i, w := range want {
		if kf.pkts[i].FlowID != w {
			t.Fatalf("fused pop order: got flow %d at %d, want %d", kf.pkts[i].FlowID, i, w)
		}
	}
	// The second packet starts exactly when the first finishes
	// serializing, not earlier and not at its own enqueue time.
	txFirst := (10 * Gbps).TxTime(1464)
	wantAt := txFirst + (10 * Gbps).TxTime(1064) + cfg.Delay
	if kf.at[1] != wantAt {
		t.Fatalf("second delivery at %v, want %v", kf.at[1], wantAt)
	}
}

// ECN marking consults queue occupancy at enqueue time; with the resume
// pop keeping occupancy trajectories identical, marks must match.
func TestFastPathECNMarking(t *testing.T) {
	cfg := PortConfig{ECNHighK: 2000, ECNLowK: 4000, Delay: 1 * sim.Microsecond}
	script := func(s *sim.Scheduler, p *Port) {
		for i := 0; i < 6; i++ {
			pkt := DataPacket(uint32(i), 0, 1, 0, 1400, 0)
			pkt.ECT = true
			p.Enqueue(pkt)
		}
		for i := 6; i < 10; i++ {
			pkt := DataPacket(uint32(i), 0, 1, 0, 1400, 6)
			pkt.ECT = true
			p.Enqueue(pkt)
		}
	}
	pf, pc, kf, kc, bf, bc, _, _ := pairRun(t, cfg, 0, script)
	assertSameOutcome(t, pf, pc, kf, kc, bf, bc)
	if pf.Stats.MarksHigh == 0 || pf.Stats.MarksLow == 0 {
		t.Fatalf("expected marks in both classes, got %+v", pf.Stats)
	}
}

// NDP trimming on the fast path: the trimmed header is what serializes
// (64B), so the fused delivery time must reflect the post-trim wire
// length.
func TestFastPathTrimToHeader(t *testing.T) {
	cfg := PortConfig{QueueCap: 3100, TrimToHeader: true, Delay: 1 * sim.Microsecond}
	script := func(s *sim.Scheduler, p *Port) {
		for i := 0; i < 5; i++ {
			p.Enqueue(DataPacket(uint32(i), 0, 1, 0, 1400, 3))
		}
	}
	pf, pc, kf, kc, bf, bc, _, _ := pairRun(t, cfg, 0, script)
	assertSameOutcome(t, pf, pc, kf, kc, bf, bc)
	if pf.Stats.Trims != 2 {
		t.Fatalf("trims = %d, want 2", pf.Stats.Trims)
	}
}

// Aeolus selective drop and injected random loss both decide at Enqueue;
// the per-port PRNG must advance identically in both modes.
func TestFastPathDroppableAndLoss(t *testing.T) {
	cfg := PortConfig{DroppableThresh: 2000, LossProb: 0.3, LossSeed: 7, Delay: 1 * sim.Microsecond}
	script := func(s *sim.Scheduler, p *Port) {
		for i := 0; i < 12; i++ {
			pkt := DataPacket(uint32(i), 0, 1, 0, 1400, 6)
			pkt.Droppable = i%2 == 0
			p.Enqueue(pkt)
		}
	}
	pf, pc, kf, kc, bf, bc, _, _ := pairRun(t, cfg, 0, script)
	assertSameOutcome(t, pf, pc, kf, kc, bf, bc)
	if pf.Stats.RandomDrops == 0 {
		t.Fatalf("expected injected losses at LossProb=0.3, got %+v", pf.Stats)
	}
}

// Lazy pool release visibility: a fused transmit's buffer bytes are
// released strictly after its serialize-complete instant. An observer AT
// txDone still sees them reserved (strict now-1 settle); one picosecond
// later they are gone, and a tryReserve needing the full pool succeeds.
func TestFastPathLazyPoolRelease(t *testing.T) {
	s := sim.NewScheduler()
	pool := NewBufferPool(964)
	p, _ := newTestPort(s, PortConfig{Delay: 2 * sim.Microsecond}, pool)
	kq := &sink{s: s}
	q := NewPort("p1", s, PortConfig{Rate: 10 * Gbps, Delay: 2 * sim.Microsecond}, kq, pool)

	txDone := (10 * Gbps).TxTime(964)
	var atDone, afterDone int64
	// Observers are armed before the Enqueue so their same-instant seqs
	// precede the transmit bookkeeping — the delivery-driven-admission
	// shape every pooled fabric has (DESIGN.md §7.6).
	s.At(txDone, func() { atDone = pool.Used() })
	// Same instant: a reservation needing the full pool must NOT see the
	// release yet, exactly like the eager engine where finishTx at txDone
	// ordered after events armed earlier.
	s.At(txDone, func() { q.Enqueue(DataPacket(2, 0, 1, 0, 900, 0)) })
	s.At(txDone+1, func() { afterDone = pool.Used() })
	s.At(txDone+1, func() { q.Enqueue(DataPacket(3, 0, 1, 0, 900, 0)) })
	p.Enqueue(DataPacket(1, 0, 1, 0, 900, 0))
	s.Run()

	if atDone != 964 {
		t.Fatalf("pool at txDone = %d, want 964 (release must stay invisible at the tied instant)", atDone)
	}
	if pool.Drops != 1 || q.Stats.Drops != 1 {
		t.Fatalf("same-instant reservation should have failed: poolDrops=%d qDrops=%d", pool.Drops, q.Stats.Drops)
	}
	if afterDone != 0 {
		// This observer runs before flow 3's enqueue at the same instant:
		// flow 1's release is settled (txDone <= now-1) and nothing has
		// re-reserved yet.
		t.Fatalf("pool after txDone = %d, want 0 (release settled)", afterDone)
	}
	// Flow 3's reservation one picosecond after txDone needed the whole
	// pool — only the lazy release makes it fit.
	if len(kq.pkts) != 1 || kq.pkts[0].FlowID != 3 {
		t.Fatalf("q delivered %d packets, want exactly flow 3", len(kq.pkts))
	}
	if pool.Used() != 0 {
		t.Fatalf("pool not drained at end of run: %d", pool.Used())
	}
}

// INT-enabled ports must stay on the classic chain: INTHop samples queue
// state at serialize-complete, which the fused path has no event for.
func TestFastPathINTStaysClassic(t *testing.T) {
	s := sim.NewScheduler()
	p, k := newTestPort(s, PortConfig{EnableINT: true, Delay: 1 * sim.Microsecond}, nil)
	if p.fast {
		t.Fatal("INT-enabled port took the fast path")
	}
	pkt := DataPacket(1, 0, 1, 0, 1000, 0)
	pkt.INT = make([]INTHop, 0, 4)
	p.Enqueue(pkt)
	s.Run()
	if s.Executed != 2 {
		t.Fatalf("executed %d events, want the classic 2 (finishTx + deliver)", s.Executed)
	}
	if len(k.pkts) != 1 || len(k.pkts[0].INT) != 1 {
		t.Fatalf("INT record missing: %d pkts", len(k.pkts))
	}
	if rec := k.pkts[0].INT[0]; rec.TxBytes != 1064 || rec.Rate != 10*Gbps {
		t.Fatalf("INT record = %+v", rec)
	}
}

// A fused cross-shard port deposits at transmit start and runs no
// local event: the outbox entry is due at txDone+Delay, the deferred
// accounting settles through SettleTx like any fused port, and the
// destination inbox delivers the packet at the due time. An INT cross
// port keeps the classic chain and deposits from finishTx.
func TestFastPathCrossPortDepositsAtStart(t *testing.T) {
	const delay = 1 * sim.Microsecond
	txDone := (10 * Gbps).TxTime(1064)
	s := sim.NewScheduler()
	p, k := newTestPort(s, PortConfig{Delay: delay}, nil)
	out := NewOutbox(0)
	p.SetCross(out, 1)
	pkt := DataPacket(1, 0, 1, 0, 1000, 0)
	p.Enqueue(pkt)
	s.Run()
	if s.Executed != 0 {
		t.Fatalf("uncongested fused cross port ran %d local events, want 0", s.Executed)
	}
	if len(out.entries) != 1 {
		t.Fatalf("outbox holds %d entries, want 1", len(out.entries))
	}
	if e := out.entries[0]; e.At != txDone+delay || e.Pkt != pkt || e.Port != p || e.Dst != 1 {
		t.Fatalf("deposit = %+v, want At=%v Dst=1 for the sent packet", e, txDone+delay)
	}
	p.SettleTx(txDone - 1)
	if p.Stats.TxBytes != 0 {
		t.Fatalf("TxBytes settled before serialize-complete: %+v", p.Stats)
	}
	p.SettleTx(txDone)
	if p.Stats.TxBytes != 1064 || p.Stats.TxPackets != 1 || p.Stats.TxDataBytes != 1000 {
		t.Fatalf("after SettleTx(txDone) stats = %+v", p.Stats)
	}

	// The destination shard's inbox delivers at the stamped time.
	ds := sim.NewScheduler()
	k.s = ds
	in := NewInbox(ds)
	if moved := MergeWindows([]*Outbox{out}, []*Inbox{NewInbox(s), in}); moved != 1 {
		t.Fatalf("merged %d entries, want 1", moved)
	}
	ds.Run()
	if len(k.pkts) != 1 || k.at[0] != txDone+delay {
		t.Fatalf("inbox delivered %d packets at %v, want 1 at %v", len(k.pkts), k.at, txDone+delay)
	}

	s2 := sim.NewScheduler()
	q, _ := newTestPort(s2, PortConfig{EnableINT: true, Delay: delay}, nil)
	out2 := NewOutbox(0)
	q.SetCross(out2, 1)
	ipkt := DataPacket(2, 0, 1, 0, 1000, 0)
	ipkt.INT = make([]INTHop, 0, 4)
	q.Enqueue(ipkt)
	if len(out2.entries) != 0 {
		t.Fatal("INT cross port deposited at transmit start")
	}
	s2.Run()
	if s2.Executed != 1 || len(out2.entries) != 1 || out2.entries[0].At != txDone+delay {
		t.Fatalf("INT cross port: %d events, entries %+v; want finishTx alone depositing at %v", s2.Executed, out2.entries, txDone+delay)
	}
	if len(ipkt.INT) != 1 || q.Stats.TxBytes != 1064 {
		t.Fatalf("INT cross port: INT hops %d, stats %+v", len(ipkt.INT), q.Stats)
	}
}

// A saturated fused port never fully drains its deferred-accounting
// queue — every resume pop appends a new pendTx while at least the
// in-flight entry stays unsettled — so without the midstream compaction
// in SettleTx the slice would grow with every packet transmitted. This
// pins the bound: across thousands of back-to-back packets, the pend
// queue stays O(in flight) (compaction trips once the settled head
// reaches half the slice), never O(packets).
func TestFastPathPendCompactionUnderSaturation(t *testing.T) {
	s := sim.NewScheduler()
	p, k := newTestPort(s, PortConfig{Delay: 1 * sim.Microsecond}, nil)
	const n = 4096
	for i := 0; i < n; i++ {
		p.Enqueue(DataPacket(uint32(i), 0, 1, 0, 1000, 0))
	}
	// Sample the queue at every serialize-complete instant for the whole
	// saturated span; the samples interleave with the resume pops that
	// append (and settle) entries, catching any between-compaction peak.
	txTime := (10 * Gbps).TxTime(1064)
	maxLen := 0
	for i := 1; i <= n; i++ {
		s.At(sim.Time(i)*txTime, func() {
			if len(p.pend) > maxLen {
				maxLen = len(p.pend)
			}
		})
	}
	s.Run()
	if len(k.pkts) != n {
		t.Fatalf("delivered %d packets, want %d", len(k.pkts), n)
	}
	if maxLen == 0 {
		t.Fatal("pend queue never held an entry; the port did not take the fused path")
	}
	// The compaction threshold (settled head >= half the slice) bounds
	// the slice at ~2x the in-flight count (Delay/TxTime, about 1 here);
	// anything much larger means the compaction regressed.
	if maxLen > 8 {
		t.Fatalf("pend queue peaked at %d entries over %d packets; compaction is not holding the O(in flight) bound", maxLen, n)
	}
	p.SettleTx(s.Now())
	if len(p.pend) != 0 || p.pendHead != 0 {
		t.Fatalf("pend not drained after final settle: len=%d head=%d", len(p.pend), p.pendHead)
	}
}

// Randomized differential: a deterministic pseudo-random script of mixed
// sizes, priorities, classes, ECT/droppable flags and arrival times,
// under ECN + shared pool + selective drop + injected loss at once. The
// fused run must be observationally identical and strictly cheaper in
// events.
func TestFastPathRandomizedDifferential(t *testing.T) {
	cfg := PortConfig{
		Rate:            40 * Gbps,
		Delay:           1500 * sim.Nanosecond,
		ECNHighK:        3000,
		ECNLowK:         6000,
		DroppableThresh: 2500,
		LossProb:        0.05,
		LossSeed:        11,
	}
	script := func(s *sim.Scheduler, p *Port) {
		rng := uint64(42)
		next := func(n uint64) uint64 {
			rng ^= rng << 13
			rng ^= rng >> 7
			rng ^= rng << 17
			return rng % n
		}
		for i := 0; i < 300; i++ {
			pkt := DataPacket(uint32(i), 0, 1, int64(i), int32(1+next(MSS)), int8(next(NumPriorities)))
			pkt.ECT = next(2) == 0
			pkt.Droppable = next(4) == 0
			at := sim.Time(next(uint64(40 * sim.Microsecond)))
			s.At(at, func() { p.Enqueue(pkt) })
		}
	}
	pf, pc, kf, kc, bf, bc, ef, ec := pairRun(t, cfg, 30000, script)
	assertSameOutcome(t, pf, pc, kf, kc, bf, bc)
	if len(kf.pkts) == 0 {
		t.Fatal("differential delivered nothing")
	}
	if ef >= ec {
		t.Fatalf("fused executed %d events, classic %d; fused must be cheaper", ef, ec)
	}
}
