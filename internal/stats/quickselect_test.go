package stats

import (
	"math/rand"
	"sort"
	"testing"

	"ppt/internal/sim"
)

// sortKth is the reference implementation selectKth replaced: sort a
// copy, read off index k. Every test below demands bit-identity against
// it — the contract Summarize's golden outputs rest on.
func sortKth(xs []float64, k int) float64 {
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return sorted[k]
}

func TestSelectKthDuplicateHeavy(t *testing.T) {
	// Duplicate-heavy inputs are quickselect's classic weak spot: a
	// three-way-tied partition must still land k in its final position.
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(300)
		distinct := 1 + rng.Intn(4) // at most 4 distinct values
		vals := make([]float64, distinct)
		for i := range vals {
			vals[i] = float64(rng.Intn(10)) * 1e3
		}
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = vals[rng.Intn(distinct)]
		}
		k := rng.Intn(n)
		want := sortKth(xs, k)
		got := selectKth(append([]float64(nil), xs...), k)
		if got != want {
			t.Fatalf("trial %d: selectKth(n=%d dup-heavy, k=%d) = %v, sort path gives %v", trial, n, k, got, want)
		}
	}
}

func TestSelectKthAllEqual(t *testing.T) {
	for _, n := range []int{1, 2, 11, 12, 13, 100, 1000} {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = 42.5
		}
		for _, k := range []int{0, n / 2, n - 1} {
			if got := selectKth(append([]float64(nil), xs...), k); got != 42.5 {
				t.Fatalf("all-equal n=%d k=%d: got %v", n, k, got)
			}
		}
	}
}

func TestSelectKthRandomBitIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(500)
		xs := make([]float64, n)
		for i := range xs {
			// A mix of magnitudes, including exact ties at full precision.
			switch rng.Intn(3) {
			case 0:
				xs[i] = float64(rng.Intn(50))
			case 1:
				xs[i] = rng.Float64() * 1e9
			default:
				xs[i] = rng.NormFloat64()
			}
		}
		k := rng.Intn(n)
		want := sortKth(xs, k)
		got := selectKth(append([]float64(nil), xs...), k)
		if got != want {
			t.Fatalf("trial %d: selectKth(n=%d, k=%d) = %v, sort path gives %v", trial, n, k, got, want)
		}
	}
}

// TestSummarizeP99CollapsesBelow100 pins the nearest-rank behaviour for
// small samples: with fewer than 100 small flows, ceil(0.99·n) == n, so
// the reported P99 is exactly the maximum small-flow FCT.
func TestSummarizeP99CollapsesBelow100(t *testing.T) {
	for _, n := range []int{1, 2, 13, 50, 99} {
		c := NewCollector()
		var maxFCT sim.Time
		for i := 0; i < n; i++ {
			fct := sim.Time((i*7919)%1000+1) * sim.Microsecond
			if fct > maxFCT {
				maxFCT = fct
			}
			c.Complete(uint32(i), 1000, 0, fct)
		}
		s := c.Summarize()
		if s.SmallP99 != maxFCT {
			t.Fatalf("n=%d: SmallP99 = %v, want max %v", n, s.SmallP99, maxFCT)
		}
	}
	// At exactly 100 the rank steps back off the maximum.
	c := NewCollector()
	for i := 0; i < 100; i++ {
		c.Complete(uint32(i), 1000, 0, sim.Time(i+1)*sim.Microsecond)
	}
	if s := c.Summarize(); s.SmallP99 != 99*sim.Microsecond {
		t.Fatalf("n=100: SmallP99 = %v, want 99us (second-largest)", s.SmallP99)
	}
}

// TestSummarizeDuplicateHeavyMatchesSortPath runs the full Summarize
// pipeline on tie-heavy completions and checks the percentile against
// the independent sort-based Percentile helper.
func TestSummarizeDuplicateHeavyMatchesSortPath(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	c := NewCollector()
	var fcts []float64
	for i := 0; i < 500; i++ {
		fct := sim.Time(1+rng.Intn(5)) * 10 * sim.Microsecond // 5 distinct values
		c.Complete(uint32(i), 1000, 0, fct)
		fcts = append(fcts, float64(fct))
	}
	s := c.Summarize()
	if want := sim.Time(Percentile(fcts, 0.99)); s.SmallP99 != want {
		t.Fatalf("duplicate-heavy SmallP99 = %v, sort path gives %v", s.SmallP99, want)
	}
	// Summarize must be repeatable on the same collector (scratch reuse).
	if again := c.Summarize(); again != s {
		t.Fatalf("second Summarize differs: %+v vs %+v", again, s)
	}
}

// TestMergeCanonicalOrderInvariant pins the property the windowed
// engine relies on: however completions are distributed across shard
// logs, and whenever the barriers fold them, the log WindowFold builds
// in the caller's collector — and the Summary computed from it — is
// identical, bit for bit.
func TestMergeCanonicalOrderInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	records := make([]FCTRecord, 400)
	for i := range records {
		start := sim.Time(rng.Intn(1000)) * sim.Microsecond
		records[i] = FCTRecord{
			FlowID: uint32(i),
			Size:   int64(1000 + rng.Intn(200_000)),
			Start:  start,
			End:    start + sim.Time(1+rng.Intn(5000))*sim.Microsecond,
		}
	}
	fold := func(shards, cadence int, perm []int) (*Collector, Summary) {
		// Each shard's log fills in execution order, nondecreasing in
		// End; perm decides the order among equal Ends.
		sort.SliceStable(perm, func(i, j int) bool { return records[perm[i]].End < records[perm[j]].End })
		srcs := make([]*Collector, shards)
		for i := range srcs {
			srcs[i] = NewCollector()
		}
		c := NewCollector()
		wf := NewWindowFold(c)
		for n, idx := range perm {
			r := records[idx]
			srcs[idx%shards].Complete(r.FlowID, r.Size, r.Start, r.End)
			if n%cadence == cadence-1 {
				// No later completion ends before r.End.
				wf.Fold(r.End, srcs)
			}
		}
		wf.FoldAll(srcs)
		return c, c.Summarize()
	}
	baseC, baseS := fold(1, len(records), rng.Perm(len(records)))
	for _, shards := range []int{2, 3, 7} {
		c, s := fold(shards, 1+rng.Intn(40), rng.Perm(len(records)))
		if s != baseS {
			t.Fatalf("shards=%d summary differs: %+v vs %+v", shards, s, baseS)
		}
		for i, r := range c.Records() {
			if r != baseC.Records()[i] {
				t.Fatalf("shards=%d folded record %d differs: %+v vs %+v", shards, i, r, baseC.Records()[i])
			}
		}
	}
}
