package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the call (the program itself carries no benchmark instrumentation).
// Spans of one serve round share the round's root span as ancestor.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0: a root
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // from the log's origin
	Dur    int64  `json:"dur_ns"`
}

// maxSpans caps the in-memory log; spans past it are counted, not kept.
const maxSpans = 1 << 20

// spanLog keeps spans in memory until the run ends. A nil *spanLog records
// nothing, which is how the untraced path costs one pointer check.
type spanLog struct {
	origin  time.Time
	spans   []span
	dropped int
}

func newSpanLog() *spanLog { return &spanLog{origin: time.Now()} }

// add records a finished span.
func (l *spanLog) add(name string, parent int, start, end time.Time) {
	if l == nil {
		return
	}
	if len(l.spans) >= maxSpans {
		l.dropped++
		return
	}
	l.spans = append(l.spans, span{ID: len(l.spans) + 1, Parent: parent, Name: name,
		Start: int64(start.Sub(l.origin)), Dur: int64(end.Sub(start))})
}

// root opens a root span and returns its ID (0 on a nil or full log), so
// its children can name it before it ends; fill sets its times.
func (l *spanLog) root(name string) int {
	if l == nil || len(l.spans) >= maxSpans {
		return 0
	}
	l.spans = append(l.spans, span{ID: len(l.spans) + 1, Name: name})
	return len(l.spans)
}

// fill sets the times of a root span.
func (l *spanLog) fill(id int, start, end time.Time) {
	if l == nil || id == 0 {
		return
	}
	s := &l.spans[id-1]
	s.Start, s.Dur = int64(start.Sub(l.origin)), int64(end.Sub(start))
}

// write stores the log as JSON at path, creating its directory.
func (l *spanLog) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(struct {
		Dropped int    `json:"dropped"`
		Spans   []span `json:"spans"`
	}{l.dropped, l.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
