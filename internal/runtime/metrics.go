package runtime

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/interp"
)

// StageStats are one stage's counters, frozen into plain fields. While a
// serve runs, each stage goroutine maintains them in an atomic probe
// (single writer, any readers), which is what makes Live.Snapshot safe to
// call mid-run; Serve converts the probes into this exported form after
// the final join, and Snapshot produces the same shape at any instant.
type StageStats struct {
	// Stage is the 1-based stage index.
	Stage int
	// In and Out count iterations received from upstream and forwarded
	// downstream. For the head stage, In counts packets pulled from the
	// Source; for the sink stage, Out counts iterations retired.
	In, Out int64
	// Stalls counts ring-full backpressure events: sends that found the
	// outgoing ring at capacity and had to wait for the consumer.
	Stalls int64
	// Shed counts packets this stage dropped under the OverloadShed
	// policy; Degraded counts packets it short-circuited under
	// OverloadDegrade; Quarantined counts packets it removed from the
	// pipeline after a panic, a poison detection, a blown deadline, or an
	// exhausted retry budget; Retries counts transient-fault re-executions.
	Shed, Degraded, Quarantined, Retries int64
	// Busy is the time spent executing iterations (the ns/stage counter),
	// excluding ring waits. Under sharding it is the sum across replicas.
	Busy time.Duration
	// Parks counts blocked ring waits and ParkWait is their total time,
	// the stage's whole handoff wait. A ring is a buffered channel, and
	// a blocked channel operation parks in the scheduler at once, so
	// Spins and SpinWait — the spin phase of a spinning ring — are always
	// 0; they stay for callers that report the split. TxWait and RxWait
	// split the same total the other way: time blocked pushing into a
	// full downstream ring versus time blocked on an empty upstream ring.
	Spins, Parks       int64
	SpinWait, ParkWait time.Duration
	TxWait, RxWait     time.Duration
	// Replicas is the number of concurrent replicas the stage ran with: 1
	// unless the serve was sharded and the stage was shardable, in which
	// case it is the shard width and the counters above are aggregates.
	Replicas int
	// occupancy sampling of the inbound ring, taken at each receive.
	occSum, occSamples int64
}

// maxFaultRecords bounds the per-stage record list so a pathological run
// (every packet shed) cannot grow memory without bound; the counters keep
// exact totals past the cap.
const maxFaultRecords = 4096

// FaultRecord describes the fate of one packet that did not complete the
// pipeline normally (or, for "degraded", completed it short-circuited).
type FaultRecord struct {
	// Iter is the packet's iteration index (assigned at admission in
	// source order, 0-based).
	Iter int64
	// Stage is the 1-based stage at which the disposition happened.
	Stage int
	// Disposition is "shed", "degraded", or "quarantined".
	Disposition string
	// Reason is a human-readable cause; for quarantines it embeds the
	// sentinel error text (errs.ErrStagePanic, errs.ErrPoisonPacket, ...).
	Reason string
}

// FaultReport is the serve run's loss accounting: every packet pulled from
// the source is either delivered at the sink, shed under overload, or
// quarantined by the recovery machinery — Delivered + Shed + Quarantined
// equals the head stage's In count on every drained run. Degraded packets
// are a subset of Delivered.
type FaultReport struct {
	Delivered   int64
	Degraded    int64
	Shed        int64
	Quarantined int64
	Retries     int64
	// Records lists the affected packets in iteration order (capped at
	// maxFaultRecords per stage; the counters above are always exact).
	Records []FaultRecord
}

// Accounted is Delivered + Shed + Quarantined: the packets whose fate is
// known. On a fully drained run it equals the packets pulled from the
// source; after a mid-stream cancel, in-flight packets are discarded
// unaccounted.
func (r *FaultReport) Accounted() int64 { return r.Delivered + r.Shed + r.Quarantined }

// String renders the report deterministically — counters first, then the
// records in iteration order — which is what the golden-fixture tests
// diff against.
func (r *FaultReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "delivered %d (degraded %d)  shed %d  quarantined %d  retries %d\n",
		r.Delivered, r.Degraded, r.Shed, r.Quarantined, r.Retries)
	for _, rec := range r.Records {
		fmt.Fprintf(&b, "  iter %-4d stage %d  %-11s %s\n", rec.Iter, rec.Stage, rec.Disposition, rec.Reason)
	}
	return b.String()
}

// MeanOccupancy is the average inbound-ring occupancy (entries queued
// behind the one being received) sampled at each receive; 0 for the head
// stage, which has no inbound ring.
func (s *StageStats) MeanOccupancy() float64 {
	if s.occSamples == 0 {
		return 0
	}
	return float64(s.occSum) / float64(s.occSamples)
}

// NsPerIteration is the mean busy time per retired iteration.
func (s *StageStats) NsPerIteration() float64 {
	if s.In == 0 {
		return 0
	}
	return float64(s.Busy.Nanoseconds()) / float64(s.In)
}

// Metrics is the snapshot Serve returns: end-to-end throughput, the
// observable trace (in exact sequential order), and per-stage counters.
type Metrics struct {
	// Packets is the number of iterations that retired at the sink stage.
	Packets int64
	// Elapsed is the wall-clock duration of the serve run.
	Elapsed time.Duration
	// Shards is the effective shard width the run executed with: 1 for an
	// unsharded serve (or a pipeline with no shardable stage), otherwise
	// the configured Config.Shards.
	Shards int
	// Stages holds one entry per pipeline stage (counters aggregated
	// across the stage's replicas when sharded; see StageStats.Replicas).
	Stages []StageStats
	// Trace is the observable event stream, merged from the per-iteration
	// buffers in iteration order — byte-identical to the sequential oracle.
	Trace []interp.Event
	// Faults is the run's loss accounting (always non-nil): delivered,
	// shed, quarantined, degraded and retried packets, with per-packet
	// records. On a clean run every counter except Delivered is zero.
	Faults *FaultReport
	// Ingest is the feeding source's boundary counters, frozen after the
	// final join, when the run was fed through the ingest front end
	// (Config.Ingest non-nil); nil for in-process sources.
	Ingest *IngestStats
}

// PacketsPerSecond is the end-to-end throughput of the run.
func (m *Metrics) PacketsPerSecond() float64 {
	if m.Elapsed <= 0 {
		return 0
	}
	return float64(m.Packets) / m.Elapsed.Seconds()
}

// String renders a compact human-readable summary.
func (m *Metrics) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "served %d packets in %v (%.0f pkt/s)",
		m.Packets, m.Elapsed.Round(time.Microsecond), m.PacketsPerSecond())
	if m.Shards > 1 {
		fmt.Fprintf(&b, " across %d shards", m.Shards)
	}
	b.WriteString("\n")
	for _, s := range m.Stages {
		fmt.Fprintf(&b, "  stage %d: in %d out %d  stalls %d  busy %v  occ %.2f",
			s.Stage, s.In, s.Out, s.Stalls, s.Busy.Round(time.Microsecond), s.MeanOccupancy())
		if s.Replicas > 1 {
			fmt.Fprintf(&b, "  x%d", s.Replicas)
		}
		b.WriteString("\n")
	}
	if f := m.Faults; f != nil && f.Shed+f.Quarantined+f.Degraded+f.Retries > 0 {
		fmt.Fprintf(&b, "  faults: %s", f.String())
	}
	if in := m.Ingest; in != nil {
		fmt.Fprintf(&b, "  ingest: rx %d packets / %d bytes  drops %d  decode errors %d\n",
			in.RxPackets, in.RxBytes, in.Drops, in.DecodeErrors)
	}
	return b.String()
}
