package runtime

import "context"

// IngestStats are the boundary counters of a network-facing packet
// source feeding a serve run: what arrived, what the source itself
// dropped, and what it rejected as undecodable. The runtime does not
// maintain these — Config.Ingest supplies a snapshot closure (the repro
// package wires it to the ingest source's atomic counters) and the
// runtime surfaces the values through Snapshot.Ingest, Metrics.Ingest,
// and the ingest.* registry gauges.
type IngestStats struct {
	// RxPackets and RxBytes count packets (and their payload bytes)
	// accepted at the source boundary and handed to the pipeline.
	RxPackets, RxBytes int64
	// Drops counts packets the source discarded itself (an overfull
	// internal queue). Kernel socket-buffer drops happen upstream of
	// the process and are not visible here.
	Drops int64
	// DecodeErrors counts frames rejected at the boundary: runt frames,
	// truncated capture records, oversized stream frames.
	DecodeErrors int64
}

// ContextBinder is implemented by Sources whose Next blocks in real I/O
// (sockets, paced replay). Serve calls BindContext with the run's
// internal context before the first Next, so canceling the serve — or an
// internal error tearing the run down — unblocks a pending read instead
// of leaving the admitting goroutine stuck in a syscall.
type ContextBinder interface {
	BindContext(ctx context.Context)
}
