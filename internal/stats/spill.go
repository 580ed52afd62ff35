package stats

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"

	"ppt/internal/sim"
)

// Spill-and-merge: bounded-memory FCT collection for million-flow runs.
//
// In spill mode the collector keeps at most `chunk` resident records.
// When the log fills, the chunk is folded — in completion order — into
// running sums (overall/small/large totals and counts), and each small
// flow's FCT is appended to an anonymous temp file as raw float64 bits.
// Resident memory is therefore capped at chunk×32 bytes of records no
// matter how many flows complete; the only per-flow growth is 8 bytes
// of *file* per small flow, which the OS pages out.
//
// Determinism argument (why the spilled Summary is bit-identical to the
// in-memory one):
//
//  1. Means. The in-memory Summarize accumulates `overall += f` (and
//     small/large likewise) over records in completion order. Spill
//     folds whole chunks in that same order, then Summarize folds the
//     resident tail — the float additions happen in exactly the same
//     sequence, so the sums, and the means derived from them, are the
//     same float64s bit for bit.
//  2. P99. The nearest-rank percentile is the k-th order statistic of
//     the small-FCT multiset — a value, independent of how it is
//     located. The in-memory path quickselects; the spill path runs a
//     4-pass 16-bit radix selection over the float bit patterns
//     (nonnegative float64s order identically to their unsigned bit
//     patterns, and FCTs are nonnegative by the Complete precondition).
//     Both return exactly the element a full sort would put at index k.
type spillState struct {
	chunk int      // resident-record cap
	f     *os.File // unlinked temp file of small-FCT float64 bits
	w     *bufio.Writer

	// Folded running sums, accumulated in completion order.
	flows      int
	smallCount int
	largeCount int
	overall    float64
	small      float64
	large      float64

	spilled     int64 // small FCTs on file
	maxResident int   // high-water mark of len(records)
	counts      []int64
}

// SetSpill switches the collector to bounded-memory mode: at most chunk
// completed records stay resident; older chunks are folded into running
// sums and their small FCTs spilled to an unlinked temp file. Must be
// called before the first Complete. Records is unavailable in spill
// mode (the raw log no longer exists); Summarize remains bit-identical
// to the in-memory path. Call Close to release the spill file.
func (c *Collector) SetSpill(chunk int) error {
	if chunk <= 0 {
		return fmt.Errorf("stats: spill chunk must be positive, got %d", chunk)
	}
	if len(c.records) > 0 || c.sp != nil {
		return fmt.Errorf("stats: SetSpill on a non-empty collector")
	}
	f, err := os.CreateTemp("", "ppt-fct-spill-*")
	if err != nil {
		return err
	}
	// Unlink immediately: the file lives only as our descriptor and
	// vanishes even if the process dies.
	os.Remove(f.Name())
	c.sp = &spillState{
		chunk: chunk,
		f:     f,
		w:     bufio.NewWriterSize(f, 1<<16),
	}
	if cap(c.records) < chunk {
		c.records = make([]FCTRecord, 0, chunk)
	}
	return nil
}

// Spilling reports whether the collector is in bounded-memory mode.
func (c *Collector) Spilling() bool { return c.sp != nil }

// ResidentPeak reports the largest number of FCT records ever resident
// at once — in spill mode this is capped at the chunk size; otherwise
// it is simply the record count.
func (c *Collector) ResidentPeak() int {
	if c.sp != nil && c.sp.maxResident > len(c.records) {
		return c.sp.maxResident
	}
	return len(c.records)
}

// SpilledRecords reports how many small-flow FCTs have been written to
// the spill file.
func (c *Collector) SpilledRecords() int64 {
	if c.sp == nil {
		return 0
	}
	return c.sp.spilled
}

// Close releases the spill file, if any. The collector must not be used
// afterwards.
func (c *Collector) Close() error {
	if c.sp == nil || c.sp.f == nil {
		return nil
	}
	err := c.sp.f.Close()
	c.sp.f = nil
	return err
}

// spillChunk folds every resident record into the running sums, writes
// small FCT bits to the file, and empties the log. Completion order is
// preserved: records fold head to tail, exactly as the in-memory
// Summarize would have visited them.
func (c *Collector) spillChunk() {
	sp := c.sp
	var buf [8]byte
	for _, r := range c.records {
		f := float64(r.FCT())
		sp.overall += f
		if r.Size <= SmallFlowMax {
			sp.small += f
			sp.smallCount++
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(f))
			if _, err := sp.w.Write(buf[:]); err != nil {
				panic("stats: spill write failed: " + err.Error())
			}
			sp.spilled++
		} else {
			sp.large += f
			sp.largeCount++
		}
	}
	sp.flows += len(c.records)
	c.records = c.records[:0]
}

// summarizeSpill is Summarize for a spilling collector.
func (c *Collector) summarizeSpill() Summary {
	sp := c.sp
	var s Summary
	s.Flows = sp.flows + len(c.records)
	if s.Flows == 0 {
		return s
	}
	// Fold the resident tail into copies of the running sums — same
	// addition sequence as the monolithic loop, without consuming the
	// records (Summarize must stay idempotent).
	overall, small, large := sp.overall, sp.small, sp.large
	smallCount, largeCount := sp.smallCount, sp.largeCount
	for _, r := range c.records {
		f := float64(r.FCT())
		overall += f
		if r.Size <= SmallFlowMax {
			small += f
			smallCount++
		} else {
			large += f
			largeCount++
		}
	}
	s.OverallAvg = sim.Time(overall / float64(s.Flows))
	s.SmallCount = smallCount
	s.LargeCount = largeCount
	if smallCount > 0 {
		s.SmallAvg = sim.Time(small / float64(smallCount))
		rank := int(math.Ceil(0.99*float64(smallCount))) - 1
		if rank < 0 {
			rank = 0
		}
		s.SmallP99 = sim.Time(c.selectKthSpilled(int64(rank)))
	}
	if largeCount > 0 {
		s.LargeAvg = sim.Time(large / float64(largeCount))
	}
	return s
}

// forEachSmallBits streams the bit pattern of every small FCT — spilled
// file first, then the resident tail. Visit order is irrelevant to
// selection (a multiset operation), only membership matters.
func (c *Collector) forEachSmallBits(visit func(uint64)) {
	sp := c.sp
	if sp.spilled > 0 {
		if err := sp.w.Flush(); err != nil {
			panic("stats: spill flush failed: " + err.Error())
		}
		// ReadAt via a section reader leaves the append offset alone, so
		// completions may continue after a mid-run Summarize.
		r := bufio.NewReaderSize(io.NewSectionReader(sp.f, 0, sp.spilled*8), 1<<16)
		var buf [8]byte
		for i := int64(0); i < sp.spilled; i++ {
			if _, err := io.ReadFull(r, buf[:]); err != nil {
				panic("stats: spill read failed: " + err.Error())
			}
			visit(binary.LittleEndian.Uint64(buf[:]))
		}
	}
	for _, rec := range c.records {
		if rec.Size <= SmallFlowMax {
			visit(math.Float64bits(float64(rec.FCT())))
		}
	}
}

// selectKthSpilled returns the k-th smallest small FCT (0-based) across
// the spill file and the resident records, by 4-pass most-significant-
// first 16-bit radix counting over the float bit patterns. Nonnegative
// float64s compare identically as values and as uint64 bit patterns, so
// the result is exactly the k-th order statistic — the same float64
// selectKth returns on the in-memory path.
func (c *Collector) selectKthSpilled(k int64) float64 {
	sp := c.sp
	if sp.counts == nil {
		sp.counts = make([]int64, 1<<16)
	}
	var prefix uint64
	for pass := 3; pass >= 0; pass-- {
		shift := uint(pass) * 16
		clear(sp.counts)
		// Values must match the prefix on every bit above this field.
		// pass 3 makes the mask shift 64, which Go defines as 0 — i.e.
		// no constraint yet.
		mask := uint64(0)
		if pass < 3 {
			mask = ^uint64(0) << (shift + 16)
		}
		c.forEachSmallBits(func(b uint64) {
			if b&mask == prefix {
				sp.counts[(b>>shift)&0xFFFF]++
			}
		})
		var cum int64
		found := false
		for v, n := range sp.counts {
			if cum+n > k {
				prefix |= uint64(v) << shift
				k -= cum
				found = true
				break
			}
			cum += n
		}
		if !found {
			panic("stats: spill selection rank out of range")
		}
	}
	return math.Float64frombits(prefix)
}
