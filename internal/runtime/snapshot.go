package runtime

import (
	"fmt"
	"strings"
	"sync/atomic"
	"time"
)

// stageProbe is the live form of one stage replica's counters: each field
// is an atomic written by the owning goroutine and readable at any moment
// by Live.Snapshot, the registry's computed gauges, and the periodic
// logger. txWait accumulates ring-full (transmit-side) blocked waits,
// rxWait ring-empty (receive-side) ones. The padding keeps
// neighboring replicas' probes off one cache line, so the single-writer
// updates never false-share.
type stageProbe struct {
	in, out, stalls             atomic.Int64
	shed, degraded, quarantined atomic.Int64
	retries, busyNs             atomic.Int64
	occSum, occSamples          atomic.Int64
	txWait, rxWait              waitCounter
	_                           [16]byte
}

// waitCounter accumulates one side's blocked ring waits: how many there
// were and their total time. A blocked channel operation parks in the
// scheduler at once, so StageStats reports these as Parks and ParkWait.
type waitCounter struct {
	n, ns atomic.Int64
}

// add records one blocked wait that began at start.
func (w *waitCounter) add(start time.Time) {
	w.n.Add(1)
	w.ns.Add(int64(time.Since(start)))
}

// stats converts the probe's current values into the exported snapshot
// form (fault records are not included — they stay goroutine-local until
// the final join).
func (p *stageProbe) stats(stage int) StageStats {
	return StageStats{
		Stage:       stage,
		In:          p.in.Load(),
		Out:         p.out.Load(),
		Stalls:      p.stalls.Load(),
		Shed:        p.shed.Load(),
		Degraded:    p.degraded.Load(),
		Quarantined: p.quarantined.Load(),
		Retries:     p.retries.Load(),
		Busy:        time.Duration(p.busyNs.Load()),
		Parks:       p.txWait.n.Load() + p.rxWait.n.Load(),
		ParkWait:    time.Duration(p.txWait.ns.Load() + p.rxWait.ns.Load()),
		TxWait:      time.Duration(p.txWait.ns.Load()),
		RxWait:      time.Duration(p.rxWait.ns.Load()),
		occSum:      p.occSum.Load(),
		occSamples:  p.occSamples.Load(),
	}
}

// Live is a handle on an in-flight serve run: a set of per-replica atomic
// probes that can be snapshotted at any moment — mid-serve, from any
// goroutine, race-free — without perturbing the stage goroutines beyond
// their ordinary atomic counter updates. Probes are flattened stage-major
// (offs[s] is stage s's first replica); disp is the extra probe of the
// flow-hash dispatcher when the first stage is replicated. Serve
// publishes it through Config.OnLive before the first packet moves;
// repro.Pipeline.Snapshot is the public face.
type Live struct {
	start     time.Time
	reps      []int
	offs      []int
	probes    []stageProbe
	disp      *stageProbe
	shards    int
	packets   atomic.Int64
	done      atomic.Bool
	elapsedNs atomic.Int64
	// ingest snapshots the feeding source's boundary counters (nil when
	// the run is fed by an in-process source with nothing to report).
	ingest func() IngestStats
}

// newLive builds the probe set for a run with the given per-stage replica
// counts.
func newLive(reps []int, dispatched bool, shards int, start time.Time) *Live {
	offs := make([]int, len(reps))
	n := 0
	for s, r := range reps {
		offs[s] = n
		n += r
	}
	l := &Live{start: start, reps: reps, offs: offs, probes: make([]stageProbe, n), shards: shards}
	if dispatched {
		l.disp = &stageProbe{}
	}
	return l
}

// probe is stage s, replica j's counter block.
func (l *Live) probe(s, j int) *stageProbe { return &l.probes[l.offs[s]+j] }

// stageStats aggregates stage s's counters across its replicas. When a
// dispatcher paces the source, stage 1's In is the dispatcher's pull
// count (every packet that left the source, poisons included) and its
// stall/quarantine counts fold in the dispatcher's — preserving the
// ledger invariant Delivered + Shed + Quarantined == Stages[0].In at any
// shard width.
func (l *Live) stageStats(s int) StageStats {
	agg := l.probe(s, 0).stats(s + 1)
	for j := 1; j < l.reps[s]; j++ {
		st := l.probe(s, j).stats(s + 1)
		agg.In += st.In
		agg.Out += st.Out
		agg.Stalls += st.Stalls
		agg.Shed += st.Shed
		agg.Degraded += st.Degraded
		agg.Quarantined += st.Quarantined
		agg.Retries += st.Retries
		agg.Busy += st.Busy
		agg.Parks += st.Parks
		agg.ParkWait += st.ParkWait
		agg.TxWait += st.TxWait
		agg.RxWait += st.RxWait
		agg.occSum += st.occSum
		agg.occSamples += st.occSamples
	}
	agg.Replicas = l.reps[s]
	if s == 0 && l.disp != nil {
		// The dispatcher's pulls and head-ring waits fold into stage 1,
		// preserving the ledger invariant (see the doc comment above).
		dst := l.disp.stats(1)
		agg.In = dst.In
		agg.Stalls += dst.Stalls
		agg.Quarantined += dst.Quarantined
		agg.Parks += dst.Parks
		agg.ParkWait += dst.ParkWait
		agg.TxWait += dst.TxWait
		agg.RxWait += dst.RxWait
	}
	return agg
}

// finish freezes the elapsed clock; Serve calls it after the final join.
func (l *Live) finish(elapsed time.Duration) {
	l.elapsedNs.Store(int64(elapsed))
	l.done.Store(true)
}

// Snapshot captures the run's counters at this instant. Safe to call at
// any time from any goroutine, including while the pipeline is serving;
// counters lag the stage goroutines by at most one batch. Returns nil on
// a nil receiver.
func (l *Live) Snapshot() *Snapshot {
	if l == nil {
		return nil
	}
	s := &Snapshot{
		Running: !l.done.Load(),
		Packets: l.packets.Load(),
		Shards:  l.shards,
		Stages:  make([]StageStats, len(l.reps)),
	}
	if s.Running {
		s.Elapsed = time.Since(l.start)
	} else {
		s.Elapsed = time.Duration(l.elapsedNs.Load())
	}
	for k := range l.reps {
		s.Stages[k] = l.stageStats(k)
	}
	if l.ingest != nil {
		v := l.ingest()
		s.Ingest = &v
	}
	return s
}

// Snapshot is a point-in-time view of a serve run's counters — the live
// analogue of Metrics, minus the trace and fault records (which are only
// merged at the final join). Unlike Metrics, a Snapshot may be taken
// while the run is still moving.
type Snapshot struct {
	// Running reports whether the serve was still in flight when the
	// snapshot was taken.
	Running bool
	// Elapsed is time since the serve started (frozen at the final value
	// once the run completes).
	Elapsed time.Duration
	// Packets counts iterations retired at the sink so far.
	Packets int64
	// Shards is the effective shard width of the run (1 when unsharded).
	Shards int
	// Stages holds the per-stage counters at snapshot time, aggregated
	// across each stage's replicas.
	Stages []StageStats
	// Ingest holds the feeding source's boundary counters when the run
	// is fed through the ingest front end; nil otherwise.
	Ingest *IngestStats
}

// PacketsPerSecond is the mean throughput up to the snapshot instant.
func (s *Snapshot) PacketsPerSecond() float64 {
	if s == nil || s.Elapsed <= 0 {
		return 0
	}
	return float64(s.Packets) / s.Elapsed.Seconds()
}

// Line renders the snapshot as one compact log line — what the periodic
// logger emits.
func (s *Snapshot) Line() string {
	if s == nil {
		return "serve: (no run)"
	}
	var b strings.Builder
	state := "done"
	if s.Running {
		state = "live"
	}
	fmt.Fprintf(&b, "serve %s +%v: %d pkts (%.0f pkt/s)", state,
		s.Elapsed.Round(time.Millisecond), s.Packets, s.PacketsPerSecond())
	if s.Shards > 1 {
		fmt.Fprintf(&b, " P=%d", s.Shards)
	}
	if s.Ingest != nil {
		fmt.Fprintf(&b, " | rx=%d", s.Ingest.RxPackets)
		if e := s.Ingest.Drops + s.Ingest.DecodeErrors; e > 0 {
			fmt.Fprintf(&b, " rxerr=%d", e)
		}
	}
	for _, st := range s.Stages {
		fmt.Fprintf(&b, " | s%d in=%d out=%d stall=%d occ=%.1f", st.Stage, st.In, st.Out, st.Stalls, st.MeanOccupancy())
		if lost := st.Shed + st.Quarantined; lost > 0 {
			fmt.Fprintf(&b, " lost=%d", lost)
		}
	}
	return b.String()
}

// String renders the snapshot in the multi-line form of Metrics.String.
func (s *Snapshot) String() string {
	if s == nil {
		return "(no serve run)\n"
	}
	var b strings.Builder
	state := "completed"
	if s.Running {
		state = "in flight"
	}
	fmt.Fprintf(&b, "serve %s: %d packets in %v (%.0f pkt/s)",
		state, s.Packets, s.Elapsed.Round(time.Microsecond), s.PacketsPerSecond())
	if s.Shards > 1 {
		fmt.Fprintf(&b, " across %d shards", s.Shards)
	}
	b.WriteString("\n")
	if s.Ingest != nil {
		fmt.Fprintf(&b, "  ingest: rx %d packets / %d bytes  drops %d  decode errors %d\n",
			s.Ingest.RxPackets, s.Ingest.RxBytes, s.Ingest.Drops, s.Ingest.DecodeErrors)
	}
	for _, st := range s.Stages {
		fmt.Fprintf(&b, "  stage %d: in %d out %d  stalls %d  busy %v  occ %.2f",
			st.Stage, st.In, st.Out, st.Stalls, st.Busy.Round(time.Microsecond), st.MeanOccupancy())
		if st.Replicas > 1 {
			fmt.Fprintf(&b, "  x%d", st.Replicas)
		}
		b.WriteString("\n")
	}
	return b.String()
}
