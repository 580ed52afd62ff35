package workload

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"ppt/internal/sim"
)

// Trace I/O: flows can be exported for external tooling and imported so
// users can replay their own datacenter traces instead of the synthetic
// generators.

// formatArriveUS renders an arrival instant as microseconds with six
// decimals — i.e. the integer picosecond count with a decimal point six
// digits from the right. The digits are produced by integer arithmetic,
// never a float, so the encoding is lossless for the full int64
// picosecond clock (an earlier 'f',3 float formatting rounded arrivals
// to nanoseconds, silently perturbing replayed simulations).
func formatArriveUS(t sim.Time) string {
	return fmt.Sprintf("%d.%06d", int64(t)/int64(sim.Microsecond), int64(t)%int64(sim.Microsecond))
}

// maxArriveUS is the largest whole-microsecond arrival the int64
// picosecond clock holds (about 106 days).
const maxArriveUS = math.MaxInt64 / int64(sim.Microsecond)

// parseArriveUS parses an arrive_us column value back to picoseconds.
// Plain decimals (the only thing WriteFlows ever emitted, at 3 or 6
// decimals) take an exact integer path, so a write→read round trip is
// bit-identical at any clock value. Hand-authored traces may use any
// float syntax; those fall back to ParseFloat with round-to-nearest
// (the old conversion truncated, so "122.999999" could lose a
// picosecond to float error). Arrivals past the clock's range are
// rejected rather than wrapped to negative times.
func parseArriveUS(s string) (sim.Time, error) {
	if dot := strings.IndexByte(s, '.'); dot >= 0 && !strings.ContainsAny(s, "eEpPxX") {
		whole, err1 := strconv.ParseInt(s[:dot], 10, 64)
		frac := s[dot+1:]
		if err1 == nil && len(frac) >= 1 && len(frac) <= 6 && s[0] != '-' {
			if f, err2 := strconv.ParseInt(frac, 10, 64); err2 == nil {
				for i := len(frac); i < 6; i++ {
					f *= 10
				}
				if whole > (math.MaxInt64-f)/int64(sim.Microsecond) {
					return 0, errArriveOverflow(s)
				}
				return sim.Time(whole)*sim.Microsecond + sim.Time(f), nil
			}
		}
	} else if dot < 0 {
		if whole, err := strconv.ParseInt(s, 10, 64); err == nil && whole >= 0 {
			if whole > maxArriveUS {
				return 0, errArriveOverflow(s)
			}
			return sim.Time(whole) * sim.Microsecond, nil
		}
	}
	us, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, err
	}
	if us < 0 {
		return 0, fmt.Errorf("negative arrival %v", us)
	}
	// 2^63 is the first float64 past MaxInt64; !(ps < 2^63) also
	// catches NaN.
	ps := math.Round(us * float64(sim.Microsecond))
	if !(ps < math.Exp2(63)) {
		return 0, errArriveOverflow(s)
	}
	return sim.Time(ps), nil
}

func errArriveOverflow(s string) error {
	return fmt.Errorf("arrival %sus is past the int64 picosecond clock (max %dus)", s, maxArriveUS)
}

// WriteFlows dumps flows as CSV: id, src, dst, size_bytes, arrive_us.
// Arrivals carry six decimals (exact picoseconds); ReadFlows recovers
// them bit-identically.
func WriteFlows(w io.Writer, flows []Flow) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"id", "src", "dst", "size_bytes", "arrive_us"}); err != nil {
		return err
	}
	for _, f := range flows {
		rec := []string{
			strconv.FormatUint(uint64(f.ID), 10),
			strconv.Itoa(f.Src),
			strconv.Itoa(f.Dst),
			strconv.FormatInt(f.Size, 10),
			formatArriveUS(f.Arrive),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// idBitset tracks seen flow ids for duplicate detection. Memory is one
// bit per id up to the largest id seen — 128KB per million densely
// numbered flows — where the map[uint32]bool it replaced cost ~9 bytes
// per flow and defeated the streaming reader's memory bound.
type idBitset struct{ words []uint64 }

// testAndSet reports whether id was already present, inserting it.
func (b *idBitset) testAndSet(id uint32) bool {
	w := int(id >> 6)
	if w >= len(b.words) {
		grown := make([]uint64, max(w+1, 2*len(b.words)))
		copy(grown, b.words)
		b.words = grown
	}
	mask := uint64(1) << (id & 63)
	if b.words[w]&mask != 0 {
		return true
	}
	b.words[w] |= mask
	return false
}

// TraceReader streams a CSV trace written by WriteFlows (or
// hand-authored in the same five-column format) one flow at a time — a
// FlowSource over the file, so a million-flow trace can feed a run
// without ever being materialized. Flows must be valid: positive sizes,
// non-negative host ids, src != dst, unique ids (tracked by a bitset
// sized to the largest id seen). After Next returns ok == false, Err
// distinguishes end-of-trace (nil) from a parse or validation failure.
//
// Arrival order and host ids beyond the fabric are NOT validated here
// (the reader cannot know the fabric); transport.RunSource rejects both
// when the trace is streamed into a run.
type TraceReader struct {
	cr     *csv.Reader
	seen   idBitset
	line   int
	err    error
	header bool
	done   bool
}

// NewTraceReader returns a streaming reader over r.
func NewTraceReader(r io.Reader) *TraceReader {
	cr := csv.NewReader(r)
	cr.ReuseRecord = true
	return &TraceReader{cr: cr, line: 1}
}

// Err returns the first error encountered, or nil after a clean
// end-of-trace.
func (t *TraceReader) Err() error { return t.err }

func (t *TraceReader) fail(format string, args ...any) (Flow, bool) {
	t.done = true
	t.err = fmt.Errorf("workload: trace line %d "+format, append([]any{t.line}, args...)...)
	return Flow{}, false
}

// Next implements FlowSource.
func (t *TraceReader) Next() (Flow, bool) {
	if t.done {
		return Flow{}, false
	}
	if !t.header {
		t.header = true
		if _, err := t.cr.Read(); err != nil {
			t.done = true
			if err != io.EOF {
				t.err = err
			}
			return Flow{}, false
		}
	}
	t.line++
	row, err := t.cr.Read()
	if err != nil {
		t.done = true
		if err != io.EOF {
			t.err = err
		}
		return Flow{}, false
	}
	if len(row) < 5 {
		return t.fail("has %d fields, want 5", len(row))
	}
	id, err := strconv.ParseUint(row[0], 10, 32)
	if err != nil {
		return t.fail("id: %w", err)
	}
	src, err := strconv.Atoi(row[1])
	if err != nil {
		return t.fail("src: %w", err)
	}
	dst, err := strconv.Atoi(row[2])
	if err != nil {
		return t.fail("dst: %w", err)
	}
	size, err := strconv.ParseInt(row[3], 10, 64)
	if err != nil {
		return t.fail("size: %w", err)
	}
	arrive, err := parseArriveUS(row[4])
	if err != nil {
		return t.fail("arrive: %w", err)
	}
	if size <= 0 {
		return t.fail("non-positive size %d", size)
	}
	if src < 0 || dst < 0 {
		return t.fail("negative host id (src %d, dst %d)", src, dst)
	}
	if src == dst {
		return t.fail("src == dst == %d", src)
	}
	if t.seen.testAndSet(uint32(id)) {
		return t.fail("duplicate flow id %d", id)
	}
	return Flow{ID: uint32(id), Src: src, Dst: dst, Size: size, Arrive: arrive}, true
}

// ReadFlows parses a whole CSV trace into memory — the materialized view
// of NewTraceReader, kept for callers that need random access. Streaming
// consumers (million-flow replays) should pull from a TraceReader
// directly.
func ReadFlows(r io.Reader) ([]Flow, error) {
	tr := NewTraceReader(r)
	var flows []Flow
	for {
		f, ok := tr.Next()
		if !ok {
			return flows, tr.Err()
		}
		flows = append(flows, f)
	}
}
