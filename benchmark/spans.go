package main

import (
	"bufio"
	"encoding/json"
	"os"
	"slices"
	"sync"
	"time"
)

// span is one call into a layer, seen from the benchmark's side of the
// boundary. Spans of one replayed op share Op; Parent is the index of
// the causing span in the same recorder, or -1.
type span struct {
	tag        string // rung or layer; the span's name is tag.kind
	kind       uint8
	op, parent int
	start, end int64 // ns from the pass's start
}

func (s *span) name() string { return s.tag + "." + opNames[s.kind] }

// recorder keeps spans in memory until the run ends. The lock is
// uncontended in rung replays (one session) and shared by the two
// trainer workers in the traced pass, where its cost is part of the
// tracing overhead the report states.
type recorder struct {
	mu    sync.Mutex
	spans []span
}

func newRecorder(capacity int) *recorder {
	return &recorder{spans: make([]span, 0, capacity)}
}

// add appends a span and returns its index.
func (r *recorder) add(tag string, kind uint8, op, parent int, start, end time.Duration) int {
	r.mu.Lock()
	r.spans = append(r.spans, span{tag: tag, kind: kind, op: op, parent: parent, start: int64(start), end: int64(end)})
	i := len(r.spans) - 1
	r.mu.Unlock()
	return i
}

// setEnd closes a span that was added before its end was known.
func (r *recorder) setEnd(i int, end time.Duration) {
	r.mu.Lock()
	r.spans[i].end = int64(end)
	r.mu.Unlock()
}

// durs returns the durations (ns) of tag's spans of the given kinds.
func (r *recorder) durs(tag string, kinds ...uint8) []int64 {
	var out []int64
	for i := range r.spans {
		if s := &r.spans[i]; s.tag == tag && slices.Contains(kinds, s.kind) {
			out = append(out, s.end-s.start)
		}
	}
	return out
}

// writeJSONL writes one span per line.
func (r *recorder) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range r.spans {
		s := &r.spans[i]
		line := struct {
			Name   string `json:"name"`
			Op     int    `json:"op"`
			Parent int    `json:"parent"`
			Start  int64  `json:"start_ns"`
			End    int64  `json:"end_ns"`
		}{s.name(), s.op, s.parent, s.start, s.end}
		if err := enc.Encode(line); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
