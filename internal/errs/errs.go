// Package errs defines the sentinel errors shared by the compiler core,
// the simulators, and the host runtime. Every user-facing entry point
// validates its inputs against these (wrapped with context via %w) instead
// of panicking or returning ad-hoc fmt.Errorf strings, so callers can
// errors.Is-match failures across the whole API surface. The root repro
// package re-exports them, grouped by lifecycle.
package errs

import "errors"

var (
	// ErrNilProgram is returned when a nil *ir.Program is passed where a
	// compiled PPS was required (Analyze, Partition, Run).
	ErrNilProgram = errors.New("nil program")

	// ErrBadDegree is returned when a pipelining degree falls outside
	// 1..MaxStages.
	ErrBadDegree = errors.New("bad pipelining degree")

	// ErrBadEpsilon is returned when a balance variance falls outside (0, 1].
	ErrBadEpsilon = errors.New("bad balance variance")

	// ErrUnbalanced is returned when no finite balanced cut exists for the
	// requested degree and variance.
	ErrUnbalanced = errors.New("no balanced cut")

	// ErrBadBudget is returned when Explore is given a non-positive
	// per-packet budget.
	ErrBadBudget = errors.New("bad per-packet budget")

	// ErrArchMismatch is returned when options carry a different cost model
	// than the analysis they are applied to.
	ErrArchMismatch = errors.New("cost model differs from analysis")

	// ErrBadCalibration is returned when cost-model calibration has no
	// usable measurements to fit (no stage with both a positive measured
	// time and a positive static weight), or the fit degenerates.
	ErrBadCalibration = errors.New("bad calibration input")

	// ErrNoStages is returned when an empty pipeline is executed where
	// stage programs were required (Run, Simulate, Serve).
	ErrNoStages = errors.New("empty pipeline")

	// ErrNilStage is returned when a stage list contains a nil entry.
	ErrNilStage = errors.New("nil stage program")

	// ErrNilWorld is returned when a nil execution environment is supplied.
	ErrNilWorld = errors.New("nil world")

	// ErrNilSource is returned when Serve is given a nil packet source.
	ErrNilSource = errors.New("nil packet source")

	// ErrBadRing is returned when an inter-stage ring capacity is not
	// positive.
	ErrBadRing = errors.New("bad ring capacity")

	// ErrBadBatch is returned when a serve batch size is not positive.
	ErrBadBatch = errors.New("bad batch size")

	// ErrNotServable is returned when the streaming runtime cannot host a
	// pipeline: the stages must contain exactly one pkt_rx site (it paces
	// the packet stream) and each persistent channel (queues, persistent
	// arrays) must be confined to a single stage.
	ErrNotServable = errors.New("pipeline not servable")

	// ErrBadThreads is returned when a simulated-thread count is negative.
	ErrBadThreads = errors.New("bad thread count")

	// ErrBadArrival is returned when a simulated arrival interval is
	// negative.
	ErrBadArrival = errors.New("bad arrival interval")

	// ErrBadIterations is returned when an iteration override is negative.
	ErrBadIterations = errors.New("bad iteration count")

	// ErrBadPolicy is returned when an overload policy value is unknown.
	ErrBadPolicy = errors.New("bad overload policy")

	// ErrBadWatermark is returned when an overload watermark is negative.
	ErrBadWatermark = errors.New("bad overload watermark")

	// ErrBadDeadline is returned when a per-stage deadline is negative.
	ErrBadDeadline = errors.New("bad stage deadline")

	// ErrBadRetry is returned when a retry count or backoff is negative.
	ErrBadRetry = errors.New("bad retry configuration")

	// ErrConflictingOptions is returned when individually valid options
	// contradict each other or are applied to an entry point outside their
	// scope (an overload watermark under the blocking policy, a retry
	// backoff with retries disabled, WithThreads passed to Serve).
	ErrConflictingOptions = errors.New("conflicting options")

	// ErrBadFaultPlan is returned when a fault-injection plan names a stage
	// outside the pipeline, an unknown fault kind, or a negative trigger.
	ErrBadFaultPlan = errors.New("bad fault plan")

	// ErrStagePanic is returned when a panic is recovered inside a stage
	// body; the offending packet is quarantined and the pipeline keeps
	// serving.
	ErrStagePanic = errors.New("stage panic")

	// ErrPoisonPacket is returned when a malformed (poisoned) packet is
	// detected at the source and quarantined before entering the pipeline.
	ErrPoisonPacket = errors.New("poison packet")

	// ErrStageDeadline is returned when an iteration exceeds the per-stage
	// deadline; the packet is quarantined.
	ErrStageDeadline = errors.New("stage deadline exceeded")

	// ErrTransientFault is returned when an injected transient stage fault
	// fires; the runtime retries with backoff and quarantines on
	// exhaustion.
	ErrTransientFault = errors.New("transient stage fault")

	// ErrBadObserver is returned when an observability configuration is
	// unusable (a negative periodic-log interval).
	ErrBadObserver = errors.New("bad observer configuration")

	// ErrBadBackend is returned when a stage-execution backend selector is
	// unknown.
	ErrBadBackend = errors.New("bad execution backend")

	// ErrBadShards is returned when a shard count falls outside
	// 1..MaxShards.
	ErrBadShards = errors.New("bad shard count")

	// ErrBadObjective is returned when a serve objective is malformed (a
	// non-positive p99 latency bound, or a nil Objective passed to
	// WithObjective).
	ErrBadObjective = errors.New("bad objective")

	// ErrBadAutotune is returned when an autotune configuration is
	// malformed (a non-positive probe window or candidate count).
	ErrBadAutotune = errors.New("bad autotune configuration")

	// ErrBadSource is returned when an ingest source spec is malformed
	// (unknown scheme, bad address or parameter) or a pcap file cannot be
	// parsed (bad magic, truncated global header).
	ErrBadSource = errors.New("bad ingest source")
)
