package stats

import (
	"math/rand"
	"testing"

	"ppt/internal/sim"
)

// feedSynthetic drives n completions with a realistic size/FCT mix —
// ~70% small flows, FCTs spanning several orders of magnitude, frequent
// exact duplicates — through every collector in cs, in the same order.
func feedSynthetic(t *testing.T, n int, seed int64, cs ...*Collector) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	start := sim.Time(0)
	for i := 0; i < n; i++ {
		start += sim.Time(rng.Int63n(50_000))
		size := int64(rng.Int63n(80_000) + 1)
		if rng.Intn(10) < 3 {
			size = SmallFlowMax + rng.Int63n(10_000_000) + 1
		}
		fct := sim.Time(rng.Int63n(int64(1) << uint(10+rng.Intn(30))))
		if rng.Intn(5) == 0 {
			fct = sim.Time(1 << 20) // exact-duplicate FCTs stress selection ties
		}
		for _, c := range cs {
			c.Complete(uint32(i+1), size, start, start+fct)
		}
	}
}

// TestSpillSummaryBitIdentical is the differential the spill design
// hangs on: a spilling collector's Summary must equal the in-memory
// one field for field — float means bit for bit — at 100k+ flows and
// across awkward chunk sizes.
func TestSpillSummaryBitIdentical(t *testing.T) {
	n := 120_000
	if testing.Short() {
		n = 20_000
	}
	for _, chunk := range []int{1, 7, 1024, 65_536, n + 1} {
		mem := NewCollector()
		sp := NewCollector()
		if err := sp.SetSpill(chunk); err != nil {
			t.Fatal(err)
		}
		feedSynthetic(t, n, 42, mem, sp)
		got, want := sp.Summarize(), mem.Summarize()
		if got != want {
			t.Fatalf("chunk %d: spilled summary %+v != in-memory %+v", chunk, got, want)
		}
		// Summarize is idempotent and non-destructive mid-run: complete
		// more flows, compare again.
		feedSynthetic(t, 500, 43, mem, sp)
		if got, want := sp.Summarize(), mem.Summarize(); got != want {
			t.Fatalf("chunk %d after resume: %+v != %+v", chunk, got, want)
		}
		if err := sp.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSpillResidentBound pins the memory bound: across a large run the
// resident record count never exceeds the chunk size.
func TestSpillResidentBound(t *testing.T) {
	n := 1_000_000
	if testing.Short() {
		n = 100_000
	}
	const chunk = 4096
	c := NewCollector()
	if err := c.SetSpill(chunk); err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// Reserve must not break the bound (transport.Run calls it with the
	// full flow count).
	c.Reserve(n)
	if cap(c.records) > chunk {
		t.Fatalf("Reserve grew a spilling collector to %d records", cap(c.records))
	}
	feedSynthetic(t, n, 7, c)
	if c.Count() != n {
		t.Fatalf("Count = %d, want %d", c.Count(), n)
	}
	if peak := c.ResidentPeak(); peak > chunk {
		t.Fatalf("resident peak %d exceeds chunk %d", peak, chunk)
	}
	if c.SpilledRecords() == 0 {
		t.Fatal("nothing spilled in a 1M-flow run")
	}
	s := c.Summarize()
	if s.Flows != n || s.SmallCount+s.LargeCount != n {
		t.Fatalf("summary lost flows: %+v", s)
	}
	if s.SmallP99 < s.SmallAvg/10 {
		t.Fatalf("implausible P99 %v vs avg %v", s.SmallP99, s.SmallAvg)
	}
}

// TestSpillEdgeCases covers the degenerate shapes: empty, fewer records
// than one chunk, all-small, all-large, single flow.
func TestSpillEdgeCases(t *testing.T) {
	check := func(name string, feed func(*Collector)) {
		mem, sp := NewCollector(), NewCollector()
		if err := sp.SetSpill(8); err != nil {
			t.Fatal(err)
		}
		defer sp.Close()
		feed(mem)
		feed(sp)
		if got, want := sp.Summarize(), mem.Summarize(); got != want {
			t.Fatalf("%s: %+v != %+v", name, got, want)
		}
	}
	check("empty", func(c *Collector) {})
	check("below one chunk", func(c *Collector) {
		for i := 0; i < 5; i++ {
			c.Complete(uint32(i+1), 1000, 0, sim.Time(100+i))
		}
	})
	check("all small", func(c *Collector) {
		for i := 0; i < 100; i++ {
			c.Complete(uint32(i+1), 50, sim.Time(i), sim.Time(i+1000+i*i))
		}
	})
	check("all large", func(c *Collector) {
		for i := 0; i < 100; i++ {
			c.Complete(uint32(i+1), SmallFlowMax+1, sim.Time(i), sim.Time(i+77777))
		}
	})
	check("single", func(c *Collector) {
		c.Complete(1, 10, 5, 5) // zero FCT exercises the +0.0 bit pattern
	})
}

// TestSpillGuards pins the mode's API guards: misuse panics or errors
// instead of silently returning wrong data.
func TestSpillGuards(t *testing.T) {
	c := NewCollector()
	if err := c.SetSpill(0); err == nil {
		t.Fatal("chunk 0 accepted")
	}
	c.Complete(1, 10, 0, 1)
	if err := c.SetSpill(8); err == nil {
		t.Fatal("SetSpill on a non-empty collector accepted")
	}

	sp := NewCollector()
	if err := sp.SetSpill(2); err != nil {
		t.Fatal(err)
	}
	defer sp.Close()
	if !sp.Spilling() {
		t.Fatal("Spilling() false after SetSpill")
	}
	sp.Complete(1, 10, 0, 1)
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic in spill mode", name)
			}
		}()
		f()
	}
	mustPanic("Records", func() { sp.Records() })
}
