package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one request share
// RequestID; Parent is the id of the span that caused this one, or noSpan.
// Start and End are nanoseconds since the log was opened.
type span struct {
	ID        int    `json:"id"`
	Name      string `json:"name"`
	Start     int64  `json:"start"`
	End       int64  `json:"end"`
	Parent    int    `json:"parent"`
	RequestID string `json:"request_id"`
}

const noSpan = -1

// spanLog keeps spans in memory until the run ends. A nil *spanLog records
// nothing, which is how the untraced run pays nothing for tracing.
type spanLog struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{epoch: time.Now()} }

// begin opens a span now and returns its id.
func (l *spanLog) begin(name, requestID string, parent int) int {
	if l == nil {
		return noSpan
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	id := len(l.spans)
	l.spans = append(l.spans, span{ID: id, Name: name, Start: int64(time.Since(l.epoch)), End: -1, Parent: parent, RequestID: requestID})
	return id
}

// end closes the span begin returned.
func (l *spanLog) end(id int) {
	if l == nil || id == noSpan {
		return
	}
	now := int64(time.Since(l.epoch))
	l.mu.Lock()
	l.spans[id].End = now
	l.mu.Unlock()
}

// place records a span of length d that was measured by a separate call of the
// same layer on the same input, laid inside its parent: it starts where the
// parent's previously placed children end (or where the parent starts).
func (l *spanLog) place(name, requestID string, parent int, d time.Duration) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	start := l.spans[parent].Start
	for _, s := range l.spans[parent+1:] {
		if s.Parent == parent && s.End > start {
			start = s.End
		}
	}
	id := len(l.spans)
	l.spans = append(l.spans, span{ID: id, Name: name, Start: start, End: start + int64(d), Parent: parent, RequestID: requestID})
	return id
}

func (l *spanLog) duration(id int) time.Duration {
	l.mu.Lock()
	defer l.mu.Unlock()
	return time.Duration(l.spans[id].End - l.spans[id].Start)
}

// write stores the spans as one JSON array.
func (l *spanLog) write(path string) error {
	l.mu.Lock()
	data, err := json.Marshal(l.spans)
	l.mu.Unlock()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// selfTimes returns, per span id, the span's duration minus the part of its
// interval that its child spans cover. Children may overlap each other and
// may stick out of the parent; only what lies inside the parent counts, once.
func selfTimes(spans []span) []time.Duration {
	children := make([][]span, len(spans))
	for _, s := range spans {
		if s.Parent != noSpan {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, p := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return kids[a].Start < kids[b].Start })
		covered, upTo := int64(0), p.Start
		for _, k := range kids {
			from, to := max(k.Start, upTo), min(k.End, p.End)
			if to > from {
				covered += to - from
				upTo = to
			}
		}
		self[i] = time.Duration(p.End - p.Start - covered)
	}
	return self
}
