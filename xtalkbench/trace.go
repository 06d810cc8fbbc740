package main

import (
	"bufio"
	"encoding/json"
	"os"
	"time"
)

// span is one layer call of a traced request: name, start and end relative
// to the tracer's epoch, the span that caused it (0 for the request root)
// and the request it belongs to.
type span struct {
	ID     int                `json:"id"`
	Parent int                `json:"parent"`
	Req    int                `json:"req"`
	Name   string             `json:"name"`
	Start  int64              `json:"start_ns"`
	End    int64              `json:"end_ns"`
	Attrs  map[string]float64 `json:"attrs,omitempty"`
}

func (s *span) dur() int64 { return s.End - s.Start }

// tracer keeps every span in memory; write dumps them as NDJSON once the
// run ends, so no I/O lands inside a traced request. The replay is
// sequential, so spans of one request nest without overlapping.
type tracer struct {
	epoch time.Time
	spans []*span
	req   int
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// begin opens a span under parent (0 opens a new request root).
func (t *tracer) begin(parent *span, name string) *span {
	s := &span{ID: len(t.spans) + 1, Name: name, Start: t.now()}
	if parent == nil {
		t.req++
	} else {
		s.Parent = parent.ID
	}
	s.Req = t.req
	t.spans = append(t.spans, s)
	return s
}

func (t *tracer) end(s *span) { s.End = t.now() }

// add records a span whose interval was measured by the caller.
func (t *tracer) add(parent *span, name string, start, end int64) {
	s := t.begin(parent, name)
	s.Start, s.End = start, end
}

// do runs f inside a span named name under parent.
func (t *tracer) do(parent *span, name string, f func() error) error {
	s := t.begin(parent, name)
	err := f()
	t.end(s)
	return err
}

// selfTimes returns each span name's total self time within request req: a
// span's duration minus the durations of its direct children. The root's
// self time is the request time no layer span accounts for. Because the
// children of a span are disjoint sub-intervals of it, the self times of
// one request sum exactly to the root's duration.
func (t *tracer) selfTimes(req int) (self map[string]int64, wall int64) {
	self = make(map[string]int64)
	child := make(map[int]int64)
	var mine []*span
	for _, s := range t.spans {
		if s.Req != req {
			continue
		}
		mine = append(mine, s)
		if s.Parent != 0 {
			child[s.Parent] += s.dur()
		} else {
			wall = s.dur()
		}
	}
	for _, s := range mine {
		self[s.Name] += s.dur() - child[s.ID]
	}
	return self, wall
}

func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
