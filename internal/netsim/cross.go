package netsim

import (
	"ppt/internal/sim"
)

// Cross-shard wires for the conservative time-windowed parallel engine
// (see DESIGN.md §7.3). A partitioned fabric gives every shard its own
// scheduler; a wire whose two ends live in different shards cannot use
// the normal Port wire/After propagation path, because the receiving
// device belongs to another shard's event loop. Instead the sending
// port deposits the packet into its shard's Outbox, stamped with the
// absolute delivery time now+Delay, and the run driver moves deposits
// into the destination shards' Inboxes at the next window barrier.
//
// Conservativeness: windows are at most min(Delay over cross-shard
// wires) wide, so a packet transmitted inside window k is always
// delivered at or after the k+1 barrier — the merge never has to insert
// an event into a shard's past.
//
// Determinism: delivery order within a shard is the canonical
// (At, Src, Seq) total order, where Src is the depositing shard and Seq
// a per-source deposit counter that never resets. The key is a total
// order (Seq never repeats within a Src), so the sorted merge result is
// independent of outbox iteration order and of how many worker threads
// executed the window.

// CrossEntry is one packet in flight across a shard boundary.
type CrossEntry struct {
	At   sim.Time // absolute delivery time at the far end of the wire
	Src  int32    // depositing shard
	Seq  uint64   // per-source deposit counter (merge tie-break)
	Dst  int32    // destination shard
	Pkt  *Packet
	Port *Port // the cross-shard port; its peer receives Pkt
}

// Outbox collects the packets one shard sent across its boundary during
// the current window. It is written only by that shard's event loop and
// drained only by the driver at the barrier, so it needs no locking.
type Outbox struct {
	shard   int32
	seq     uint64
	entries []CrossEntry
}

// NewOutbox returns the outbox for the given source shard.
func NewOutbox(shard int) *Outbox { return &Outbox{shard: int32(shard)} }

// deposit records a packet leaving the shard on port p, due at the
// far end at time at.
func (o *Outbox) deposit(at sim.Time, pkt *Packet, p *Port, dst int32) {
	o.entries = append(o.entries, CrossEntry{At: at, Src: o.shard, Seq: o.seq, Dst: dst, Pkt: pkt, Port: p})
	o.seq++
}

// Inbox holds the cross-shard packets due for delivery inside one
// shard, sorted by the canonical order. The driver appends and sorts at
// barriers (while the shard is quiescent); the shard's own event loop
// pops due entries via the armed timer, advancing head past them.
// pending[head:] is the live set; the delivered prefix is compacted
// away at the next barrier merge, not on every fire.
type Inbox struct {
	sched   *sim.Scheduler
	pending []CrossEntry
	head    int
	timer   sim.Timer
	armedAt sim.Time
	dirty   bool
	fireFn  func()
	// sorted is the length of the already-canonical prefix of pending
	// when a barrier merge begins (everything outside MergeWindows is
	// fully sorted, so this is just len(pending) at first append, after
	// compaction);
	// scratch is the reusable overlap buffer of the batched merge.
	sorted  int
	scratch []CrossEntry
}

// NewInbox returns an inbox delivering into the given shard scheduler.
func NewInbox(s *sim.Scheduler) *Inbox {
	in := &Inbox{sched: s}
	in.fireFn = in.fire
	return in
}

// fire delivers every pending entry due now (already in canonical
// order) and re-arms for the next one.
func (in *Inbox) fire() {
	now := in.sched.Now()
	i := in.head
	for i < len(in.pending) && in.pending[i].At == now {
		e := &in.pending[i]
		e.Port.deliverCross(e.Pkt)
		*e = CrossEntry{}
		i++
	}
	if i == len(in.pending) {
		in.pending, in.head = in.pending[:0], 0
		return
	}
	in.head = i
	in.armedAt = in.pending[i].At
	in.timer = in.sched.At(in.armedAt, in.fireFn)
}

// MergeWindows moves every outbox deposit into the destination inboxes,
// restores each touched inbox's canonical (At, Src, Seq) order, and
// (re-)arms delivery timers. It must run at a window barrier, when
// every shard's event loop is quiescent; every merged entry's At lies
// at or beyond the destination's next horizon, so arming is never in a
// shard's past. Returns the number of entries moved.
//
// The drain is batched: each inbox's pending set is a sorted prefix
// (everything that survived earlier barriers — the invariant outside
// this function) plus this barrier's appended suffix, which arrives as
// a few already-sorted runs. Each run is merged into the prefix in
// place, moving only the overlap through a reused per-inbox scratch
// buffer (mergeRuns) — usually nothing, since deposits tend to be later
// than everything still pending. That replaces the old full re-sort
// per dirty inbox per barrier, which was the dominant barrier cost at
// high shard counts.
func MergeWindows(outboxes []*Outbox, inboxes []*Inbox) int {
	moved := 0
	for _, o := range outboxes {
		moved += len(o.entries)
		for i := range o.entries {
			e := &o.entries[i]
			in := inboxes[e.Dst]
			if !in.dirty {
				in.dirty = true
				if in.head > 0 {
					n := copy(in.pending, in.pending[in.head:])
					clear(in.pending[n:])
					in.pending, in.head = in.pending[:n], 0
				}
				in.sorted = len(in.pending)
			}
			in.pending = append(in.pending, *e)
			*e = CrossEntry{}
		}
		o.entries = o.entries[:0]
	}
	for _, in := range inboxes {
		if !in.dirty {
			continue
		}
		in.dirty = false
		// Fold the suffix into the sorted prefix one natural run at a
		// time. Runs are long: a cross port's deposits strictly increase
		// in (At, Seq), and in a leaf-spine partition each destination
		// is fed by one port per source shard, so a barrier appends at
		// most one run per source. Cost is O(n) per run merged.
		p := in.pending
		for mid := in.sorted; mid < len(p); {
			end := mid + 1
			for end < len(p) && !crossLess(&p[end], &p[end-1]) {
				end++
			}
			if mid > 0 && crossLess(&p[mid], &p[mid-1]) {
				in.mergeRuns(p[:end], mid)
			}
			mid = end
		}
		head := p[0].At
		if !in.timer.Pending() || head < in.armedAt {
			in.timer.Stop()
			in.armedAt = head
			in.timer = in.sched.At(head, in.fireFn)
		}
	}
	return moved
}

// mergeRuns merges the sorted runs p[:s] and p[s:] in place. Only the
// tail of the first run that sorts after p[s] has to move: it is staged
// in the reusable scratch buffer and merged forward with the second
// run, so a merge pays for the overlap, not for everything before it;
// the rest of the second run is already in place once the staged tail
// is. The caller guarantees p[s] sorts before p[s-1].
func (in *Inbox) mergeRuns(p []CrossEntry, s int) {
	j := s - 1
	for j > 0 && crossLess(&p[s], &p[j-1]) {
		j--
	}
	in.scratch = append(in.scratch[:0], p[j:s]...)
	a, b := 0, s
	for k := j; a < len(in.scratch); k++ {
		if b < len(p) && crossLess(&p[b], &in.scratch[a]) {
			p[k] = p[b]
			b++
		} else {
			p[k] = in.scratch[a]
			a++
		}
	}
}

// crossLess is the canonical merge order. (At, Src, Seq) is a strict
// total order — Seq never repeats within a Src — so every comparison
// sort produces the same permutation and stability is irrelevant.
func crossLess(a, b *CrossEntry) bool {
	if a.At != b.At {
		return a.At < b.At
	}
	if a.Src != b.Src {
		return a.Src < b.Src
	}
	return a.Seq < b.Seq
}
