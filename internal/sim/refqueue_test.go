package sim

import "container/heap"

// refQueue is the test oracle for the Scheduler's event queue: a plain
// binary min-heap (container/heap) over (time, seq), sharing nothing
// with the wheel. The differentials drive it and a Scheduler in
// lockstep and require identical pops, clocks, Stop results and
// NextAtBound values.
type refQueue struct {
	now  Time
	seq  uint64
	heap refHeap
}

// refEvent is one pending entry; idx is its heap position, or -1 once
// it has fired or been stopped.
type refEvent struct {
	at    Time
	seq   uint64
	token uint64
	idx   int
}

type refHeap []*refEvent

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].idx, h[j].idx = i, j
}
func (h *refHeap) Push(x any) {
	e := x.(*refEvent)
	e.idx = len(*h)
	*h = append(*h, e)
}
func (h *refHeap) Pop() any {
	old := *h
	e := old[len(old)-1]
	*h = old[:len(old)-1]
	e.idx = -1
	return e
}

// at schedules token to pop at time t.
func (q *refQueue) at(t Time, token uint64) *refEvent {
	e := &refEvent{at: t, seq: q.seq, token: token}
	q.seq++
	heap.Push(&q.heap, e)
	return e
}

// stop cancels e, reporting whether it was still pending.
func (q *refQueue) stop(e *refEvent) bool {
	if e.idx < 0 {
		return false
	}
	heap.Remove(&q.heap, e.idx)
	return true
}

// runUntil pops every event due by deadline in (time, seq) order,
// appending their tokens to out, and places the clock the way
// Scheduler.RunUntil does.
func (q *refQueue) runUntil(deadline Time, out []uint64) []uint64 {
	for len(q.heap) > 0 && q.heap[0].at <= deadline {
		e := heap.Pop(&q.heap).(*refEvent)
		q.now = e.at
		out = append(out, e.token)
	}
	if deadline != MaxTime && q.now < deadline && len(q.heap) == 0 {
		q.now = deadline
	}
	return out
}

// nextAt mirrors Scheduler.NextAtBound.
func (q *refQueue) nextAt() (Time, bool) {
	if len(q.heap) == 0 {
		return 0, false
	}
	return q.heap[0].at, true
}
