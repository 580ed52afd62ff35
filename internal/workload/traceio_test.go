package workload

import (
	"bytes"
	"strings"
	"testing"

	"ppt/internal/netsim"
	"ppt/internal/sim"
)

func TestTraceRoundTrip(t *testing.T) {
	orig := Generate(GenConfig{
		Dist: WebSearch, Pattern: AllToAll{N: 8}, Load: 0.5,
		HostRate: 10 * netsim.Gbps, NumFlows: 200, Seed: 3,
	})
	var buf bytes.Buffer
	if err := WriteFlows(&buf, orig); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFlows(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(orig) {
		t.Fatalf("round trip %d != %d", len(got), len(orig))
	}
	for i := range got {
		// Round trip is lossless, arrivals included.
		if got[i] != orig[i] {
			t.Fatalf("flow %d mismatch: %+v vs %+v", i, got[i], orig[i])
		}
	}
}

func TestReadFlowsHandAuthored(t *testing.T) {
	trace := `id,src,dst,size_bytes,arrive_us
1,0,3,50000,0
2,1,3,2000000,12.5
3,2,3,100,40
`
	flows, err := ReadFlows(strings.NewReader(trace))
	if err != nil {
		t.Fatal(err)
	}
	if len(flows) != 3 {
		t.Fatalf("parsed %d flows", len(flows))
	}
	if flows[1].Arrive != sim.Time(12.5*float64(sim.Microsecond)) {
		t.Fatalf("arrive = %v", flows[1].Arrive)
	}
	if flows[2].Size != 100 || flows[2].Src != 2 {
		t.Fatalf("flow 3 = %+v", flows[2])
	}
}

func TestReadFlowsValidation(t *testing.T) {
	header := "id,src,dst,size_bytes,arrive_us\n"
	cases := map[string]string{
		"zero size":    header + "1,0,1,0,0\n",
		"src==dst":     header + "1,2,2,100,0\n",
		"negative src": header + "1,-1,2,100,0\n",
		"negative dst": header + "1,0,-3,100,0\n",
		"negative t":   header + "1,0,1,100,-5\n",
		"duplicate id": header + "1,0,1,100,0\n1,0,2,100,1\n",
		"bad int":      header + "x,0,1,100,0\n",
		"short row":    header + "1,0,1\n",
		// Past the int64 picosecond clock (~9.22e12us): each used to
		// wrap to a negative arrival and be accepted.
		"overflow decimal":    header + "1,0,1,100,10000000000000.5\n",
		"overflow integer":    header + "1,0,1,100,10000000000000\n",
		"overflow float":      header + "1,0,1,100,1e13\n",
		"overflow by 1ps":     header + "1,0,1,100,9223372036854.775808\n",
		"overflow past range": header + "1,0,1,100,99999999999999999999\n",
		"nan":                 header + "1,0,1,100,NaN\n",
		"inf":                 header + "1,0,1,100,+Inf\n",
	}
	for name, trace := range cases {
		if _, err := ReadFlows(strings.NewReader(trace)); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

// TestArriveClockBounds pins both sides of the int64 picosecond clock
// limit: the last representable instant parses exactly, one picosecond
// more is rejected, and the rejection names the trace line.
func TestArriveClockBounds(t *testing.T) {
	header := "id,src,dst,size_bytes,arrive_us\n"
	flows, err := ReadFlows(strings.NewReader(header + "1,0,1,100,9223372036854.775807\n"))
	if err != nil || len(flows) != 1 || flows[0].Arrive != sim.MaxTime {
		t.Fatalf("MaxTime arrival: %+v, %v", flows, err)
	}
	_, err = ReadFlows(strings.NewReader(header + "1,0,1,100,0\n2,0,1,100,1e13\n"))
	if err == nil || !strings.Contains(err.Error(), "line 3") || !strings.Contains(err.Error(), "past the int64 picosecond clock") {
		t.Fatalf("overflowing arrival: err = %v", err)
	}
}

// FuzzTraceReader feeds arbitrary text to the streaming reader. Every
// accepted row must carry a non-negative arrival and non-negative host
// ids, and the accepted rows must round-trip bit-identically through
// WriteFlows -> ReadFlows.
func FuzzTraceReader(f *testing.F) {
	header := "id,src,dst,size_bytes,arrive_us\n"
	for _, body := range []string{
		"1,0,3,50000,0\n2,1,3,2000000,12.5\n3,2,3,100,40\n",
		"7,4,5,1460,9223372036854.775807\n",
		"1,0,1,100,10000000000000.5\n",
		"1,0,1,100,1e13\n",
		"1,0,1,100,122.9999999999\n",
		"1,0,1,100,0x1p-2\n",
		"1,0,1,100,12.345\n1,0,2,100,1\n",
		"1,-1,2,100,0\n",
	} {
		f.Add(header + body)
	}
	f.Fuzz(func(t *testing.T, trace string) {
		tr := NewTraceReader(strings.NewReader(trace))
		var accepted []Flow
		for {
			fl, ok := tr.Next()
			if !ok {
				break
			}
			if fl.Arrive < 0 {
				t.Fatalf("accepted negative arrival %d from %q", fl.Arrive, trace)
			}
			if fl.Src < 0 || fl.Dst < 0 {
				t.Fatalf("accepted negative host id (src %d, dst %d) from %q", fl.Src, fl.Dst, trace)
			}
			accepted = append(accepted, fl)
		}
		var buf bytes.Buffer
		if err := WriteFlows(&buf, accepted); err != nil {
			t.Fatal(err)
		}
		back, err := ReadFlows(&buf)
		if err != nil {
			t.Fatalf("rewritten trace does not read back: %v\n%s", err, buf.String())
		}
		if len(back) != len(accepted) {
			t.Fatalf("round trip kept %d of %d flows", len(back), len(accepted))
		}
		for i := range back {
			if back[i] != accepted[i] {
				t.Fatalf("flow %d: %+v round-tripped to %+v", i, accepted[i], back[i])
			}
		}
	})
}

func TestReadFlowsEmpty(t *testing.T) {
	flows, err := ReadFlows(strings.NewReader(""))
	if err != nil || flows != nil {
		t.Fatalf("empty = %v, %v", flows, err)
	}
}

// TestTraceRoundTripLarge round-trips a datacenter-scale trace (120k
// flows) and pins the reader's streaming behaviour: parsing must stay
// at ~1 allocation per CSV record (the record's backing string; the
// field slice is reused). An eager reader that materializes the whole
// trace as [][]string before converting — as ReadFlows once did via
// csv.ReadAll — costs >= 2 allocations per record and fails the bound.
func TestTraceRoundTripLarge(t *testing.T) {
	if testing.Short() {
		t.Skip("writes and parses a 120k-flow trace")
	}
	const n = 120_000
	orig := Generate(GenConfig{
		Dist: WebSearch, Pattern: AllToAll{N: 64}, Load: 0.5,
		HostRate: 10 * netsim.Gbps, NumFlows: n, Seed: 3,
	})
	if len(orig) != n {
		t.Fatalf("generated %d flows, want %d", len(orig), n)
	}
	var buf bytes.Buffer
	if err := WriteFlows(&buf, orig); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()

	got, err := ReadFlows(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != n {
		t.Fatalf("round trip %d != %d", len(got), n)
	}
	for i := range got {
		if got[i] != orig[i] {
			t.Fatalf("flow %d mismatch: %+v vs %+v", i, got[i], orig[i])
		}
	}

	allocs := testing.AllocsPerRun(1, func() {
		if _, err := ReadFlows(bytes.NewReader(data)); err != nil {
			t.Fatal(err)
		}
	})
	if perRow := allocs / n; perRow > 1.5 {
		t.Fatalf("ReadFlows allocated %.2f times per record (total %.0f for %d records); the reader is materializing the trace eagerly",
			perRow, allocs, n)
	}
}
