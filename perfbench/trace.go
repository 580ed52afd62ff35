package main

import (
	"encoding/json"
	"os"
	"time"
)

// span is one timed call into a layer, made from the benchmark's own
// code. Times are nanoseconds since the run began.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps a traced run's spans in memory until the run ends. A nil
// tracer records nothing.
type tracer struct {
	origin time.Time
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// open starts a span that closeSpan ends, and returns its id.
func (tr *tracer) open(name string, parent int, start time.Time) int {
	if tr == nil {
		return 0
	}
	tr.spans = append(tr.spans, span{ID: len(tr.spans) + 1, Parent: parent, Name: name,
		Start: start.Sub(tr.origin).Nanoseconds()})
	return len(tr.spans)
}

func (tr *tracer) closeSpan(id int, end time.Time) {
	if tr != nil && id > 0 {
		tr.spans[id-1].End = end.Sub(tr.origin).Nanoseconds()
	}
}

// add records a span from start to now and returns now, the start of
// whatever the caller times next.
func (tr *tracer) add(name string, parent int, start time.Time) time.Time {
	if tr == nil {
		return time.Time{}
	}
	now := time.Now()
	tr.closeSpan(tr.open(name, parent, start), now)
	return now
}

func (tr *tracer) write(path string) error {
	b, err := json.MarshalIndent(tr.spans, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
