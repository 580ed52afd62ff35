package exp

import (
	"testing"

	"ppt/internal/bufaware"
	"ppt/internal/workload"
)

// TestSpilledExecuteMatchesInMemory pins the spill fold on the
// monolithic engine: the same streamed cell with and without a
// spilling collector must produce the byte-identical summary. The
// memcached app model draws the classifier RNG per flow with a real
// chunking probability, so the cell also exercises the streamed
// first-call assignment. (TestWindowedSpillDifferential covers the
// windowed engine.)
func TestSpilledExecuteMatchesInMemory(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two full cells")
	}
	fab := simFabric(3, 2, 8)
	base := runSpec{
		fab: fab, sc: baseSchemes()["ppt"], dist: workload.MemcachedW1,
		pattern: workload.AllToAll{N: fab.hosts}, load: 0.5,
		flows: 1500, seed: 3, app: bufaware.Memcached, sendBuf: 1 << 20,
	}
	want, _ := execute(base)
	if want.Flows != 1500 || want.Truncated {
		t.Fatalf("reference cell did not complete: %+v", want)
	}

	sp := base
	sp.spillChunk = 64
	got, env := execute(sp)
	if got != want {
		t.Fatalf("spilled summary %+v != in-memory %+v", got, want)
	}
	if peak := env.Collector.ResidentPeak(); peak > 64 {
		t.Fatalf("resident peak %d exceeds spill chunk 64", peak)
	}
	if env.Collector.SpilledRecords() == 0 {
		t.Fatal("nothing spilled at chunk 64 with 1500 flows")
	}
}

// TestScale1MSpills smoke-runs the scale family's experiment just past
// its spill chunk and checks the bounded-memory contract surfaces in
// the result rows.
func TestScale1MSpills(t *testing.T) {
	if testing.Short() {
		t.Skip("runs an 80k-flow cell")
	}
	res, err := RunByID("scale1M", Options{Flows: scale1MSpillChunk + 15_000, Schemes: []string{"dctcp"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %+v, want one dctcp row", res.Rows)
	}
	row := res.Rows[0]
	if row.Sum.Flows != scale1MSpillChunk+15_000 || row.Sum.Truncated {
		t.Fatalf("cell did not complete: %+v", row.Sum)
	}
	if peak := row.Extra["resident_peak"]; peak <= 0 || peak > scale1MSpillChunk {
		t.Fatalf("resident_peak = %g, want in (0, %d]", peak, scale1MSpillChunk)
	}
	if row.Extra["spilled_records"] == 0 {
		t.Fatal("no records spilled past the chunk boundary")
	}
}
