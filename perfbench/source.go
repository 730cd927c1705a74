package main

import (
	"context"
	"io"
	"time"

	"repro"
	"repro/internal/ingest"
)

// benchSource is the benchmark's own packet source, served through
// repro.WithSource so the ingest Feeder sits between it and the pipeline
// exactly as it does for a socket or a capture. Pull runs on the
// pipeline's head goroutine; in open loop it also paces there, so the
// benchmark adds no thread and no connection.
//
// The source times itself: the first Pull (the end of set-up), the time
// spent inside Pull, the time it slept waiting for a packet that was not
// yet due, and each admission's lag. In open loop a packet's lag runs from
// its scheduled due time to the Pull that hands it over. In closed loop a
// batch is due the moment the previous Pull returned, so its lag is the
// head's turnaround between two Pulls; it is recorded once per Pull.
type benchSource struct {
	pkts  [][]byte
	due   []time.Duration // nil: closed loop
	next  int
	stats ingest.Stats

	start, last time.Time
	pullNs      int64
	idleNs      int64
	lags        *[]time.Duration // admission lags are appended here; nil records none
	spans       *spanLog         // nil unless the run is traced
	parent      int
}

var _ repro.BatchSource = (*benchSource)(nil)

func newBenchSource(pkts [][]byte, due []time.Duration, lags *[]time.Duration) *benchSource {
	return &benchSource{pkts: pkts, due: due, lags: lags}
}

// Pull hands over the packets that are due, up to len(dst); in open loop,
// when none is due yet, it first sleeps until the next one is.
func (s *benchSource) Pull(ctx context.Context, dst [][]byte) (int, error) {
	t0 := time.Now()
	if s.start.IsZero() {
		s.start, s.last = t0, t0
	}
	if s.next >= len(s.pkts) {
		return 0, io.EOF
	}
	if len(dst) == 0 {
		return 0, nil
	}
	if s.due != nil {
		if wait := s.due[s.next] - t0.Sub(s.start); wait > 0 {
			t := time.NewTimer(wait)
			select {
			case <-t.C:
			case <-ctx.Done():
				t.Stop()
				return 0, ctx.Err()
			}
			woke := time.Now()
			s.idleNs += int64(woke.Sub(t0))
			t0 = woke
		}
	} else if s.lags != nil {
		*s.lags = append(*s.lags, t0.Sub(s.last))
	}
	now := t0.Sub(s.start)
	n := 0
	for n < len(dst) && s.next < len(s.pkts) {
		if s.due != nil {
			if s.due[s.next] > now {
				break
			}
			if s.lags != nil {
				*s.lags = append(*s.lags, now-s.due[s.next])
			}
		}
		dst[n] = s.pkts[s.next]
		s.pkts[s.next] = nil // ownership passes to the pipeline
		s.next++
		n++
	}
	end := time.Now()
	s.pullNs += int64(end.Sub(t0))
	s.spans.add("ingest.Pull", s.parent, t0, end)
	s.last = end
	return n, nil
}

// Stats returns counters that stay zero: ingest.Stats can only be advanced
// from inside the ingest package, so the benchmark counts admissions
// itself (see README.md on ingest.rx_packets).
func (s *benchSource) Stats() *ingest.Stats { return &s.stats }

// Close releases nothing; the packets belong to the pipeline once pulled.
func (s *benchSource) Close() error { return nil }
