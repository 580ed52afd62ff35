package stats

import (
	"slices"

	"ppt/internal/sim"
)

// WindowFold folds the per-shard completion logs of a windowed run into
// the caller's collector at every round barrier, whether that collector
// keeps its records resident or spills them (bounded-memory
// million-flow runs).
//
// The windowed driver calls Fold with the round's granted safe bound
// (the minimum of the new per-shard floors): every record whose End
// precedes the bound is final — future completions in shard d happen at
// or after floors[d] — while later records stay in their shard's log
// for a later fold. Each drained batch is sorted in the canonical
// (End, Start, FlowID) order and fed to the master record by record.
//
// Determinism argument (DESIGN.md §7.7): per-shard logs are
// nondecreasing in End (completions append in execution order), and the
// safe bounds strictly time-partition the batches — records with equal
// End always land in the same batch. The concatenation of canonically
// sorted, time-partitioned batches is therefore exactly the globally
// sorted completion sequence, so the master's fold order — and with it
// every running float sum and the small-FCT multiset the P99 selection
// reads — is bit-identical at every shard count, fold cadence and spill
// chunk size.
type WindowFold struct {
	master *Collector
	batch  []FCTRecord
}

// NewWindowFold wraps an empty master collector.
func NewWindowFold(master *Collector) *WindowFold {
	if master.Count() > 0 {
		panic("stats: NewWindowFold on a non-empty collector")
	}
	return &WindowFold{master: master}
}

// Fold drains every record with End < safe from the shard collectors
// into the master, in canonical order. Caller guarantees no shard can
// complete a flow before safe from here on.
func (w *WindowFold) Fold(safe sim.Time, shards []*Collector) {
	w.fold(shards, safe, false)
}

// FoldAll drains everything that remains — the run is over.
func (w *WindowFold) FoldAll(shards []*Collector) {
	w.fold(shards, 0, true)
}

func (w *WindowFold) fold(shards []*Collector, safe sim.Time, all bool) {
	batch := w.batch[:0]
	for _, c := range shards {
		if c.sp != nil {
			panic("stats: WindowFold from a spilling shard collector")
		}
		recs := c.records
		k := len(recs)
		if !all {
			// The log is nondecreasing in End, so the final records are a
			// contiguous prefix.
			k = 0
			for k < len(recs) && recs[k].End < safe {
				k++
			}
		}
		if k == 0 {
			continue
		}
		batch = append(batch, recs[:k]...)
		m := copy(recs, recs[k:])
		c.records = recs[:m]
	}
	w.batch = batch
	if len(batch) == 0 {
		return
	}
	slices.SortFunc(batch, canonCmp)
	// Keep a spilling master's resident log inside its chunk across the
	// feed: a partial early spill folds the very same prefix in the very
	// same order a boundary-aligned spill would, so flushing here
	// changes no sum, no spilled byte, and no selection input — only the
	// moment the fold happens.
	if sp := w.master.sp; sp != nil && len(w.master.records) > 0 && len(w.master.records)+len(batch) > sp.chunk {
		w.master.spillChunk()
	}
	for i := range batch {
		r := &batch[i]
		w.master.Complete(r.FlowID, r.Size, r.Start, r.End)
	}
	w.batch = batch[:0]
}
