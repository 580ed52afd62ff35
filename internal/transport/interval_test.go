package transport

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestIntervalAddDisjoint(t *testing.T) {
	var s IntervalSet
	if got := s.Add(0, 10); got != 10 {
		t.Fatalf("added %d", got)
	}
	if got := s.Add(20, 30); got != 10 {
		t.Fatalf("added %d", got)
	}
	if s.Total() != 20 || s.Len() != 2 {
		t.Fatalf("total=%d len=%d", s.Total(), s.Len())
	}
}

func TestIntervalAddOverlap(t *testing.T) {
	var s IntervalSet
	s.Add(0, 10)
	if got := s.Add(5, 15); got != 5 {
		t.Fatalf("overlap added %d, want 5", got)
	}
	if s.Total() != 15 || s.Len() != 1 {
		t.Fatalf("total=%d len=%d", s.Total(), s.Len())
	}
}

func TestIntervalAddBridges(t *testing.T) {
	var s IntervalSet
	s.Add(0, 10)
	s.Add(20, 30)
	if got := s.Add(5, 25); got != 10 {
		t.Fatalf("bridge added %d, want 10", got)
	}
	if s.Len() != 1 || !s.Contains(0, 30) {
		t.Fatalf("not merged: len=%d", s.Len())
	}
}

func TestIntervalAdjacentMerge(t *testing.T) {
	var s IntervalSet
	s.Add(0, 10)
	s.Add(10, 20)
	if s.Len() != 1 || s.Total() != 20 {
		t.Fatalf("adjacent not merged: len=%d total=%d", s.Len(), s.Total())
	}
}

func TestIntervalDuplicate(t *testing.T) {
	var s IntervalSet
	s.Add(0, 10)
	if got := s.Add(0, 10); got != 0 {
		t.Fatalf("duplicate added %d", got)
	}
	if got := s.Add(2, 8); got != 0 {
		t.Fatalf("subset added %d", got)
	}
}

func TestIntervalEmptyAdd(t *testing.T) {
	var s IntervalSet
	if got := s.Add(5, 5); got != 0 {
		t.Fatalf("empty added %d", got)
	}
	if got := s.Add(10, 3); got != 0 {
		t.Fatalf("inverted added %d", got)
	}
}

func TestContains(t *testing.T) {
	var s IntervalSet
	s.Add(10, 20)
	s.Add(30, 40)
	cases := []struct {
		a, b int64
		want bool
	}{
		{10, 20, true}, {12, 18, true}, {10, 21, false},
		{5, 15, false}, {25, 26, false}, {30, 40, true},
		{15, 35, false}, {19, 20, true}, {5, 5, true},
	}
	for _, c := range cases {
		if got := s.Contains(c.a, c.b); got != c.want {
			t.Errorf("Contains(%d,%d) = %v", c.a, c.b, got)
		}
	}
}

func TestCoveredIn(t *testing.T) {
	var s IntervalSet
	s.Add(10, 20)
	s.Add(30, 40)
	if got := s.CoveredIn(0, 50); got != 20 {
		t.Fatalf("CoveredIn(0,50) = %d", got)
	}
	if got := s.CoveredIn(15, 35); got != 10 {
		t.Fatalf("CoveredIn(15,35) = %d", got)
	}
	if got := s.CoveredIn(20, 30); got != 0 {
		t.Fatalf("CoveredIn(20,30) = %d", got)
	}
}

func TestContiguousFrom(t *testing.T) {
	var s IntervalSet
	s.Add(0, 10)
	s.Add(15, 25)
	if got := s.ContiguousFrom(0); got != 10 {
		t.Fatalf("from 0 = %d", got)
	}
	if got := s.ContiguousFrom(10); got != 10 {
		t.Fatalf("from 10 (gap) = %d", got)
	}
	if got := s.ContiguousFrom(17); got != 25 {
		t.Fatalf("from 17 = %d", got)
	}
}

func TestContiguousBack(t *testing.T) {
	var s IntervalSet
	s.Add(80, 100)
	s.Add(40, 60)
	if got := s.ContiguousBack(100); got != 80 {
		t.Fatalf("back 100 = %d", got)
	}
	if got := s.ContiguousBack(80); got != 80 {
		t.Fatalf("back 80 (gap below) = %d", got)
	}
	if got := s.ContiguousBack(60); got != 40 {
		t.Fatalf("back 60 = %d", got)
	}
	if got := s.ContiguousBack(70); got != 70 {
		t.Fatalf("back 70 (uncovered) = %d", got)
	}
}

func TestNextGap(t *testing.T) {
	var s IntervalSet
	s.Add(0, 10)
	if got := s.NextGap(0, 100); got != 10 {
		t.Fatalf("gap = %d", got)
	}
	if got := s.NextGap(0, 5); got != 5 {
		t.Fatalf("clamped gap = %d", got)
	}
	if got := s.NextGap(50, 100); got != 50 {
		t.Fatalf("gap at uncovered = %d", got)
	}
}

// Property: IntervalSet agrees with a naive bitmap model under random
// adds.
func TestPropertyIntervalMatchesBitmap(t *testing.T) {
	prop := func(seed int64, nOps uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		const span = 300
		var s IntervalSet
		bitmap := make([]bool, span)
		for op := 0; op < int(nOps%40)+5; op++ {
			a := int64(rng.Intn(span))
			b := a + int64(rng.Intn(40))
			if b > span {
				b = span
			}
			var wantAdded int64
			for i := a; i < b; i++ {
				if !bitmap[i] {
					bitmap[i] = true
					wantAdded++
				}
			}
			if got := s.Add(a, b); got != wantAdded {
				return false
			}
		}
		var total int64
		for _, set := range bitmap {
			if set {
				total++
			}
		}
		if s.Total() != total {
			return false
		}
		// Spot-check queries against the bitmap.
		for q := 0; q < 20; q++ {
			a := int64(rng.Intn(span))
			b := a + int64(rng.Intn(50))
			if b > span {
				b = span
			}
			want := true
			var wantCov int64
			for i := a; i < b; i++ {
				if !bitmap[i] {
					want = false
				} else {
					wantCov++
				}
			}
			if s.Contains(a, b) != want || s.CoveredIn(a, b) != wantCov {
				return false
			}
			cf := s.ContiguousFrom(a)
			wantCF := a
			for wantCF < span && bitmap[wantCF] {
				wantCF++
			}
			if a < span && bitmap[a] {
				if cf != wantCF {
					return false
				}
			} else if cf != a {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestReassembly(t *testing.T) {
	r := NewReassembly(5000)
	if r.Complete() {
		t.Fatal("empty complete")
	}
	if got := r.Add(0, 1448); got != 1448 {
		t.Fatalf("added %d", got)
	}
	if r.CumAck() != 1448 {
		t.Fatalf("cum = %d", r.CumAck())
	}
	// Tail bytes via the low loop.
	r.Add(4000, 1000)
	if r.TailFrontier() != 4000 {
		t.Fatalf("tail frontier = %d", r.TailFrontier())
	}
	if r.FirstMissing() != 1448 {
		t.Fatalf("first missing = %d", r.FirstMissing())
	}
	r.Add(1448, 1448)
	r.Add(2896, 1448) // overlaps into the tail region; clamped at size? no, 2896+1448=4344 covers the gap
	if !r.Complete() {
		t.Fatalf("not complete: %v", r)
	}
	if r.Received() != 5000 {
		t.Fatalf("received = %d", r.Received())
	}
}

func TestReassemblyClampsAtSize(t *testing.T) {
	r := NewReassembly(1000)
	if got := r.Add(500, 1448); got != 500 {
		t.Fatalf("clamped add = %d", got)
	}
	r.Add(0, 500)
	if !r.Complete() || r.CumAck() != 1000 {
		t.Fatalf("state = %v", r)
	}
}

// FuzzIntervalSet replays a byte string as Add calls over a small byte
// range and checks Add's return value, Total, ContiguousFrom and
// NextGap at every offset against a bitmap reference after each call.
// Each op is two bytes: a start in [0, span) and a length in [0, 16].
func FuzzIntervalSet(f *testing.F) {
	for _, seed := range [][]byte{
		{},
		{0, 10, 20, 10, 10, 10},       // two disjoint runs bridged
		{5, 0, 5, 1, 4, 1, 6, 1},      // empty add, then adjacency merges
		{60, 16, 0, 16, 16, 16, 8, 2}, // clamped at span, contained add
		{3, 3, 1, 1, 2, 2, 0, 16, 30, 5, 29, 7},
	} {
		f.Add(seed)
	}
	const span = 64
	f.Fuzz(func(t *testing.T, ops []byte) {
		var s IntervalSet
		var bitmap [span + 1]bool // bitmap[span] stays false
		for k := 0; k+1 < len(ops); k += 2 {
			a := int64(ops[k] % span)
			b := min(a+int64(ops[k+1]%17), span)
			var want int64
			for i := a; i < b; i++ {
				if !bitmap[i] {
					bitmap[i] = true
					want++
				}
			}
			if got := s.Add(a, b); got != want {
				t.Fatalf("op %d: Add(%d, %d) = %d, want %d", k/2, a, b, got, want)
			}
			var total int64
			for _, set := range bitmap {
				if set {
					total++
				}
			}
			if s.Total() != total {
				t.Fatalf("op %d: Total = %d, want %d", k/2, s.Total(), total)
			}
			for x := int64(0); x <= span; x++ {
				run := x
				for bitmap[run] {
					run++
				}
				if got := s.ContiguousFrom(x); got != run {
					t.Fatalf("op %d: ContiguousFrom(%d) = %d, want %d", k/2, x, got, run)
				}
				for _, limit := range []int64{x, (x + span) / 2, span} {
					if got := s.NextGap(x, limit); got != min(run, limit) {
						t.Fatalf("op %d: NextGap(%d, %d) = %d, want %d", k/2, x, limit, got, min(run, limit))
					}
				}
			}
		}
	})
}
