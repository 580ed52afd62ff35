package netsim

import (
	"fmt"
	"math/bits"

	"ppt/internal/sim"
)

// NumPriorities is the number of strict-priority queues per port, the
// eight classes commodity switches expose via DSCP.
const NumPriorities = 8

// Device is anything that can accept a packet from a wire: a switch or a
// host.
type Device interface {
	Name() string
	Receive(pkt *Packet)
}

// BufferPool models a switch's shared packet memory. Ports that share a
// pool drop (or trim) arrivals once the pool is exhausted, matching the
// shared-buffer architecture of the Dell S4048 used in the paper's
// testbed.
//
// With the cut-through fast path (see Port), member ports release their
// bytes lazily: the release is deferred in the port's pend queue and
// applied by settle() at every observation point — tryReserve, Used —
// so admission and dynamic-threshold decisions see the same occupancy
// the eager per-packet release gave them (DESIGN.md §7.6).
type BufferPool struct {
	Cap  int64
	used int64
	// Drops counts pool-exhaustion losses across all member ports.
	Drops int64
	// members are the ports drawing from this pool; settle() flushes
	// their deferred releases before any occupancy read. All members of
	// one pool share one scheduler (pools are per-switch), so the
	// strict now-1 settle bound is well defined.
	members []*Port
}

// NewBufferPool returns a pool of the given byte capacity.
func NewBufferPool(capBytes int64) *BufferPool {
	return &BufferPool{Cap: capBytes}
}

// settle applies every member port's deferred transmit accounting that
// is strictly in the past, so occupancy reads match the eager engine:
// an old-engine release at finishTx(T) was visible to any event after
// T, and events at exactly T ordered before finishTx (every admission
// is delivery-driven, armed one wire delay earlier — before the
// releasing packet even started serializing whenever Delay > TxTime)
// saw it unapplied, which is exactly the strict bound.
func (b *BufferPool) settle() {
	for _, p := range b.members {
		if p.pendHead < len(p.pend) {
			p.SettleTx(p.sched.Now() - 1)
		}
	}
}

// Used reports the bytes currently held.
func (b *BufferPool) Used() int64 {
	b.settle()
	return b.used
}

func (b *BufferPool) tryReserve(n int64) bool {
	b.settle()
	if b.used+n > b.Cap {
		return false
	}
	b.used += n
	return true
}

func (b *BufferPool) release(n int64) {
	b.used -= n
	if b.used < 0 {
		panic("netsim: buffer pool underflow")
	}
}

// PortConfig parameterizes one egress port.
type PortConfig struct {
	Rate  Rate
	Delay sim.Time // propagation delay of the attached wire

	// ECNHighK / ECNLowK are instantaneous marking thresholds in bytes
	// for the high class (priorities < LowClassStart) and low class.
	// Zero disables marking for that class. High-class marking compares
	// against high-class occupancy only (lower classes cannot delay it
	// under SP); low-class marking compares against total occupancy.
	ECNHighK int64
	ECNLowK  int64

	// LowClassStart is the first priority belonging to the low class
	// (default 4, the PPT split). Only used for marking decisions.
	LowClassStart int8

	// QueueCap bounds this port's total occupancy in bytes. Zero means
	// the port is limited only by its shared pool (if any).
	QueueCap int64

	// LowClassCap, when non-zero, bounds the bytes the low class may
	// occupy (the RC3 limited-buffer variant of Fig 24).
	LowClassCap int64

	// TrimToHeader enables NDP behaviour: a data packet that would be
	// dropped for lack of buffer is truncated to HeaderBytes and
	// enqueued at the highest priority instead.
	TrimToHeader bool

	// DroppableThresh, when non-zero, drops packets flagged Droppable
	// (Aeolus unscheduled) whenever the packet's own queue already
	// holds at least this many bytes.
	DroppableThresh int64

	// EnableINT makes the port append an INTHop record to packets that
	// carry a non-nil INT slice (HPCC).
	EnableINT bool

	// DynamicLowThreshold enables dynamic-threshold admission for the
	// low class (modern shared-buffer switches): a low-class packet is
	// admitted only while the class occupies less than the remaining
	// free buffer. The paper's evaluation models plain shared drop-tail
	// buffers, so this is off by default.
	DynamicLowThreshold bool

	// LossProb, when non-zero, drops each arriving data packet with
	// this probability (deterministic per-port PRNG seeded by LossSeed)
	// — failure injection for robustness testing, modeling corruption
	// or gray-failure loss rather than congestion.
	LossProb float64
	LossSeed uint64

	// NoFastPath disables the fused cut-through pipeline and keeps the
	// classic two-event (serialize-complete, propagation-end) chain per
	// hop. Outcomes are identical either way (the -fastpath=off escape
	// hatch and A/B baseline); INT-enabled ports always run the classic
	// path because INTHop samples queue state at tx-complete.
	NoFastPath bool
}

// PortStats are the monotonically increasing counters a port maintains;
// the stats package samples them.
type PortStats struct {
	TxBytes      int64 // bytes fully serialized out
	TxPackets    int64
	RxPackets    int64 // packets offered to Enqueue
	Drops        int64 // congestion/admission drops (excludes injected losses)
	DropsLow     int64 // of Drops, low-class packets
	Trims        int64
	RandomDrops  int64 // injected (non-congestion) losses; disjoint from Drops
	MarksHigh    int64
	MarksLow     int64
	TxDataBytes  int64 // payload bytes of Data packets sent
	TxFreshBytes int64 // payload bytes excluding retransmissions
}

// Port is one egress: eight FIFO queues drained in strict priority onto a
// wire of fixed rate and propagation delay.
type Port struct {
	name    string
	sched   *sim.Scheduler
	cfg     PortConfig
	peer    Device
	pool    *BufferPool
	pktPool *PacketPool
	queues  [NumPriorities]pktRing
	// nonEmpty has bit i set iff queues[i] holds a packet, so pop finds
	// the highest-priority backlog in one instruction.
	nonEmpty uint8

	bytesQueued [NumPriorities]int64
	totalQueued int64
	lowQueued   int64
	lossState   uint64

	// The transmit and delivery callbacks are bound once at construction
	// so the per-packet hot path schedules them without allocating a
	// closure. txPkt is the packet currently serializing (at most one,
	// classic path only); wire holds packets propagating toward the peer
	// — the delay is one constant per port, so deliveries are strictly
	// FIFO and the next delivery call always takes the head.
	txPkt  *Packet
	onTx   func()
	wire   pktRing
	onRecv func()

	// Cut-through fast path (DESIGN.md §7.6). When fast, starting a
	// packet schedules ONE delivery event at now+TxTime+Delay instead of
	// the onTx/onRecv pair, and the transmit-side accounting (TxBytes,
	// pool release, ...) is deferred in pend and applied lazily:
	// inclusively through the packet's own serialize-complete time by
	// its delivery event, strictly (now-1) at every observation point.
	// busyUntil is the serialize-complete cursor of the in-flight fused
	// packet; a packet queued behind it arms one resume timer at
	// busyUntil, which pops in exact slow-path (strict priority) order.
	fast        bool
	busyUntil   sim.Time
	resume      sim.Timer
	onResume    func()
	onFusedRecv func()
	pend        []pendTx
	pendHead    int

	// cross, when set, marks the wire as crossing a shard boundary in a
	// partitioned fabric: transmissions are deposited into the outbox
	// (due at txDone+Delay) instead of propagating through the local
	// scheduler, and the destination shard's Inbox calls deliverCross at
	// the due time. Fused ports deposit at transmit start, classic (INT)
	// ports at serialize-complete. crossDst is the peer device's shard.
	cross    *Outbox
	crossDst int32

	Stats PortStats
}

// pendTx is one deferred fused-transmit accounting record: the counter
// deltas of a packet whose serialization completes at txDone. Fields
// are captured at transmit start (never a *Packet — cross-shard
// deposits hand the packet to another shard's event loop immediately).
// Entries are appended in strictly increasing txDone order.
type pendTx struct {
	txDone sim.Time
	wire   int32 // WireLen: pool release + TxBytes delta
	data   int32 // PayloadLen when Kind == Data, else 0
	fresh  int32 // data excluding retransmissions
}

// NewPort builds a port; peer is the device at the far end of its wire,
// pool the (optional) shared buffer it draws from.
func NewPort(name string, s *sim.Scheduler, cfg PortConfig, peer Device, pool *BufferPool) *Port {
	if cfg.Rate <= 0 {
		panic("netsim: port needs a rate")
	}
	if cfg.LowClassStart == 0 {
		cfg.LowClassStart = 4
	}
	p := &Port{name: name, sched: s, cfg: cfg, peer: peer, pool: pool}
	// busyUntil == now means "the pop at this instant goes through a
	// same-instant resume event" (see kick); -1 marks a never-used link
	// so the very first packet starts inline.
	p.busyUntil = -1
	p.lossState = cfg.LossSeed*2654435761 + 0x9e3779b97f4a7c15
	p.onTx = p.finishTx
	p.onRecv = p.deliver
	p.fast = !cfg.NoFastPath && !cfg.EnableINT
	p.onResume = p.resumeTx
	p.onFusedRecv = p.deliverFused
	if pool != nil {
		pool.members = append(pool.members, p)
	}
	return p
}

// Name identifies the port in diagnostics.
func (p *Port) Name() string { return p.name }

// Config returns the port's configuration.
func (p *Port) Config() PortConfig { return p.cfg }

// Scheduler returns the event scheduler this port runs on. Sharded run
// drivers use it to settle each port at its own shard's horizon.
func (p *Port) Scheduler() *sim.Scheduler { return p.sched }

// SetPacketPool attaches the run's packet pool so dropped packets are
// recycled at the sink instead of leaking to the garbage collector.
// Optional: without a pool, drops simply become garbage.
func (p *Port) SetPacketPool(pp *PacketPool) { p.pktPool = pp }

// Peer returns the device at the far end of the wire.
func (p *Port) Peer() Device { return p.peer }

// Queued reports the bytes currently buffered at this port.
func (p *Port) Queued() int64 { return p.totalQueued }

// QueuedLow reports the buffered bytes in the low class.
func (p *Port) QueuedLow() int64 { return p.lowQueued }

// QueuedHigh reports the buffered bytes in the high class.
func (p *Port) QueuedHigh() int64 { return p.totalQueued - p.lowQueued }

// QueuedAt reports the buffered bytes of one priority queue.
func (p *Port) QueuedAt(prio int8) int64 { return p.bytesQueued[prio] }

func (p *Port) isLow(prio int8) bool { return prio >= p.cfg.LowClassStart }

// Enqueue offers pkt to the port, applying (in order) Aeolus selective
// drop, buffer admission with optional NDP trimming, and ECN marking,
// then kicks the transmitter.
func (p *Port) Enqueue(pkt *Packet) {
	p.Stats.RxPackets++
	prio := pkt.Prio
	if prio < 0 || prio >= NumPriorities {
		panic(fmt.Sprintf("netsim: priority %d out of range", prio))
	}

	if p.cfg.DroppableThresh > 0 && pkt.Droppable && p.bytesQueued[prio] >= p.cfg.DroppableThresh {
		p.drop(pkt)
		return
	}
	if p.cfg.LossProb > 0 && pkt.Kind == Data && p.randomLoss() {
		// Injected losses are counted on their own: folding them into
		// Drops/DropsLow via drop() would overstate congestion loss under
		// fault injection.
		p.Stats.RandomDrops++
		p.pktPool.Free(pkt)
		return
	}
	// Header-sized control packets (ACKs, grants, pulls, NACKs) are
	// never dropped: commodity switches keep headroom for them, and a
	// simulated control-plane loss would measure an artifact none of
	// the modeled protocols guards against. Their backlog is bounded by
	// the control-to-data ratio of the protocols themselves.
	if pkt.Kind != Data {
		p.forceAdmit(pkt)
		p.mark(pkt)
		p.push(pkt)
		return
	}
	if p.cfg.LowClassCap > 0 && p.isLow(prio) && p.lowQueued+int64(pkt.WireLen) > p.cfg.LowClassCap {
		p.drop(pkt)
		return
	}
	// Dynamic-threshold admission (optional): under pressure the
	// scavenger class's share collapses toward zero.
	if p.cfg.DynamicLowThreshold && p.isLow(prio) {
		free := p.freeBuffer()
		if free >= 0 && p.lowQueued+int64(pkt.WireLen) > free {
			p.drop(pkt)
			return
		}
	}

	if !p.admit(pkt) {
		if p.cfg.TrimToHeader && pkt.Kind == Data && !pkt.Trimmed {
			// NDP semantics: headers are (nearly) never lost. Trimmed
			// headers are admitted unconditionally — their backlog is
			// bounded by the trim ratio (64B per dropped MTU), which is
			// how NDP switches reserve header space.
			pkt.Trimmed = true
			pkt.WireLen = HeaderBytes
			pkt.Prio = 0
			p.Stats.Trims++
			p.forceAdmit(pkt)
			p.mark(pkt)
			p.push(pkt)
			return
		}
		p.drop(pkt)
		return
	}
	p.mark(pkt)
	p.push(pkt)
}

// admit reserves buffer space, returning false if the packet must be
// dropped (or trimmed).
func (p *Port) admit(pkt *Packet) bool {
	n := int64(pkt.WireLen)
	if p.cfg.QueueCap > 0 && p.totalQueued+n > p.cfg.QueueCap {
		return false
	}
	if p.pool != nil && !p.pool.tryReserve(n) {
		p.pool.Drops++
		return false
	}
	return true
}

// forceAdmit reserves buffer space unconditionally (trimmed headers),
// letting the pool overshoot its cap by the header backlog.
func (p *Port) forceAdmit(pkt *Packet) {
	if p.pool != nil {
		p.pool.used += int64(pkt.WireLen)
	}
}

// randomLoss advances the port's xorshift PRNG and reports whether the
// packet should be lost.
func (p *Port) randomLoss() bool {
	x := p.lossState
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	p.lossState = x
	return float64(x>>11)/float64(1<<53) < p.cfg.LossProb
}

// freeBuffer reports the remaining buffer headroom governing low-class
// admission, or -1 when the port is unbuffered (unlimited).
func (p *Port) freeBuffer() int64 {
	free := int64(-1)
	if p.cfg.QueueCap > 0 {
		free = p.cfg.QueueCap - p.totalQueued
	}
	if p.pool != nil {
		if pf := p.pool.Cap - p.pool.Used(); free < 0 || pf < free {
			free = pf
		}
	}
	if free < 0 && (p.cfg.QueueCap > 0 || p.pool != nil) {
		free = 0
	}
	return free
}

func (p *Port) mark(pkt *Packet) {
	if !pkt.ECT || pkt.CE {
		return
	}
	if p.isLow(pkt.Prio) {
		if p.cfg.ECNLowK > 0 && p.totalQueued >= p.cfg.ECNLowK {
			pkt.CE = true
			p.Stats.MarksLow++
		}
	} else {
		if p.cfg.ECNHighK > 0 && p.totalQueued-p.lowQueued >= p.cfg.ECNHighK {
			pkt.CE = true
			p.Stats.MarksHigh++
		}
	}
}

func (p *Port) push(pkt *Packet) {
	prio := pkt.Prio
	p.queues[prio].push(pkt)
	p.nonEmpty |= 1 << prio
	n := int64(pkt.WireLen)
	p.bytesQueued[prio] += n
	p.totalQueued += n
	if p.isLow(prio) {
		p.lowQueued += n
	}
	p.kick()
}

// drop is a packet sink: the packet is dead and recycled here.
func (p *Port) drop(pkt *Packet) {
	p.Stats.Drops++
	if p.isLow(pkt.Prio) {
		p.Stats.DropsLow++
	}
	p.pktPool.Free(pkt)
}

// kick starts the transmitter if it is idle and a packet is waiting.
// A serialization in flight is represented by the busyUntil cursor in
// BOTH modes: a packet that cannot start yet arms one resume timer at
// busyUntil, and the resume pops in exact strict-priority order. The
// >= now comparison is deliberate — at the serialize-complete instant
// itself the pop goes through a same-instant resume event (fresh seq,
// so it runs after every event already due at this instant) instead of
// happening inline, which makes the pop's position in the same-instant
// order a pure function of the physical schedule rather than of which
// mode armed which bookkeeping event (DESIGN.md §7.6).
func (p *Port) kick() {
	if p.resume.Pending() {
		return
	}
	if p.busyUntil >= p.sched.Now() {
		p.resume = p.sched.At(p.busyUntil, p.onResume)
		return
	}
	pkt := p.pop()
	if pkt == nil {
		return
	}
	p.startTx(pkt)
}

// startTx begins serializing pkt on an idle link. Both modes arm the
// delivery event here, at transmit start (the deterministic arrival
// tie-break of DESIGN.md §7.6: an arrival's position among same-instant
// events no longer depends on the mode's event chaining). The classic
// path additionally arms finishTx at serialize-complete for the
// transmit-side effects (accounting, INT, wire push / cross deposit);
// the fast path defers the accounting into pend (settled lazily — see
// SettleTx) and pushes/deposits immediately, so the delivery is the
// packet's only event — and a fused cross-shard port, whose delivery
// the destination shard's Inbox runs, schedules no local event at all.
func (p *Port) startTx(pkt *Packet) {
	now := p.sched.Now()
	txTime := p.cfg.Rate.TxTime(int(pkt.WireLen))
	txDone := now + txTime
	p.busyUntil = txDone
	if !p.fast {
		p.txPkt = pkt
		p.sched.After(txTime, p.onTx)
		if p.cross == nil {
			p.sched.At(txDone+p.cfg.Delay, p.onRecv)
		}
	} else {
		// Settle strictly behind now before appending: every earlier
		// entry has txDone <= now here (back-to-back starts happen at
		// the previous packet's serialize-complete), so pend stays O(1).
		// A cross-shard port has no local delivery event, so apart from
		// pool and sampler reads this is where its entries settle.
		if p.pendHead < len(p.pend) {
			p.SettleTx(now - 1)
		}
		var data, fresh int32
		if pkt.Kind == Data {
			data = pkt.PayloadLen
			if !pkt.Retrans {
				fresh = pkt.PayloadLen
			}
		}
		p.pend = append(p.pend, pendTx{txDone: txDone, wire: pkt.WireLen, data: data, fresh: fresh})
		if p.cross != nil {
			p.cross.deposit(txDone+p.cfg.Delay, pkt, p, p.crossDst)
		} else {
			p.wire.push(pkt)
			p.sched.At(txDone+p.cfg.Delay, p.onFusedRecv)
		}
	}
	if p.totalQueued > 0 && !p.resume.Pending() {
		p.resume = p.sched.At(txDone, p.onResume)
	}
}

// resumeTx fires at busyUntil: it pops the next packet in exact
// strict-priority order, identically in both modes. The queue can have
// drained meanwhile only through drops; a nil pop simply waits for the
// next Enqueue's kick.
func (p *Port) resumeTx() {
	if pkt := p.pop(); pkt != nil {
		p.startTx(pkt)
	}
}

// finishTx is the classic path's serialize-complete event: transmit
// accounting, INT append, and handing the packet to its wire (whose
// delivery event was already armed at transmit start) or, on a
// cross-shard port, to the outbox. Popping the next packet is not its job —
// that goes through the resume timer (see kick).
func (p *Port) finishTx() {
	pkt := p.txPkt
	p.txPkt = nil
	n := int64(pkt.WireLen)
	if p.pool != nil {
		p.pool.release(n)
	}
	p.Stats.TxBytes += n
	p.Stats.TxPackets++
	if pkt.Kind == Data {
		p.Stats.TxDataBytes += int64(pkt.PayloadLen)
		if !pkt.Retrans {
			p.Stats.TxFreshBytes += int64(pkt.PayloadLen)
		}
	}
	if p.cfg.EnableINT && pkt.INT != nil {
		pkt.INT = append(pkt.INT, INTHop{
			QLen:    p.totalQueued,
			TxBytes: p.Stats.TxBytes,
			TS:      p.sched.Now(),
			Rate:    p.cfg.Rate,
		})
	}
	if p.cross != nil {
		p.cross.deposit(p.sched.Now()+p.cfg.Delay, pkt, p, p.crossDst)
	} else {
		p.wire.push(pkt)
	}
}

// deliver hands the oldest in-flight packet to the peer.
func (p *Port) deliver() {
	p.peer.Receive(p.wire.pop())
}

// deliverFused is the fast path's single per-packet event: settle the
// transmit-side accounting through this packet's own serialize-complete
// time (now - Delay; pend txDone values are strictly increasing, so
// that is exactly the prefix ending at this packet's entry — correct
// even at Delay == 0), then hand the wire head to the peer.
func (p *Port) deliverFused() {
	if p.pendHead < len(p.pend) {
		p.SettleTx(p.sched.Now() - p.cfg.Delay)
	}
	p.peer.Receive(p.wire.pop())
}

// SettleTx applies every deferred fused-transmit accounting entry with
// txDone <= limit — shared-pool release, TxBytes/TxPackets and the
// payload counters — plus, at end of run, a classic-mode serialization
// that completed by limit but whose finishTx event was cut off by a
// same-instant Stop. Observation points (pool admission, samplers) call
// it with the strictly-past bound now-1, which reproduces the classic
// engine's visibility exactly on every pooled fabric (admissions are
// delivery-driven and armed at least one wire delay back, so at a tied
// instant the classic finishTx always had the larger seq); the run
// drivers call it once more at the final executed horizon, inclusively,
// so both modes count exactly the serializations that physically
// completed within the run (DESIGN.md §7.6).
func (p *Port) SettleTx(limit sim.Time) {
	i := p.pendHead
	for i < len(p.pend) && p.pend[i].txDone <= limit {
		e := &p.pend[i]
		n := int64(e.wire)
		if p.pool != nil {
			p.pool.release(n)
		}
		p.Stats.TxBytes += n
		p.Stats.TxPackets++
		p.Stats.TxDataBytes += int64(e.data)
		p.Stats.TxFreshBytes += int64(e.fresh)
		i++
	}
	p.pendHead = i
	if i == len(p.pend) {
		p.pend = p.pend[:0]
		p.pendHead = 0
	} else if 2*i >= len(p.pend) {
		// Compact once the settled prefix dominates: a port that stays
		// busy for a long stretch never fully drains pend (each delivery
		// settles through its own txDone while later packets keep
		// appending), and without this the slice would grow with every
		// packet sent — O(run length) memory on a saturated port instead
		// of O(Delay/TxTime) in-flight entries. The copy moves at most
		// as many entries as were settled since the last compaction, and
		// compacting this early keeps the slice at about twice the
		// in-flight count instead of letting it grow to a fixed floor.
		n := copy(p.pend, p.pend[i:])
		p.pend = p.pend[:n]
		p.pendHead = 0
	}
	if p.txPkt != nil && p.busyUntil <= limit {
		// Classic mode, end of run only: the serialization finished at
		// busyUntil <= limit but Stop cut off its finishTx event.
		// During a run this is unreachable: observers pass limit < now
		// and a pending finishTx implies busyUntil >= now.
		pkt := p.txPkt
		p.txPkt = nil
		n := int64(pkt.WireLen)
		if p.pool != nil {
			p.pool.release(n)
		}
		p.Stats.TxBytes += n
		p.Stats.TxPackets++
		if pkt.Kind == Data {
			p.Stats.TxDataBytes += int64(pkt.PayloadLen)
			if !pkt.Retrans {
				p.Stats.TxFreshBytes += int64(pkt.PayloadLen)
			}
		}
	}
}

// SetCross marks this port's wire as crossing into shard dstShard of a
// partitioned fabric, routing transmissions through the outbox (see
// cross.go). Called by topo builders only.
//
// A fused cross port deposits at transmit start, due at txDone+Delay,
// and defers its accounting in pend like any fused port, so an
// uncongested packet costs its shard no event. The deposit is still
// conservative: the due time is at least now+Delay, at or past the
// destination shard's horizon. An INT port keeps the classic chain and
// deposits from finishTx.
func (p *Port) SetCross(o *Outbox, dstShard int) {
	p.cross = o
	p.crossDst = int32(dstShard)
}

// deliverCross hands a cross-shard packet to the peer at its stamped
// delivery time (invoked by the destination shard's Inbox).
func (p *Port) deliverCross(pkt *Packet) {
	p.peer.Receive(pkt)
}

// pop removes and returns the head of the highest-priority nonempty
// queue, or nil.
func (p *Port) pop() *Packet {
	if p.nonEmpty == 0 {
		return nil
	}
	prio := bits.TrailingZeros8(p.nonEmpty)
	q := &p.queues[prio]
	pkt := q.pop()
	if q.len() == 0 {
		p.nonEmpty &^= 1 << prio
	}
	n := int64(pkt.WireLen)
	p.bytesQueued[prio] -= n
	p.totalQueued -= n
	if p.isLow(int8(prio)) {
		p.lowQueued -= n
	}
	return pkt
}
