package repro

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/errs"
	"repro/internal/ingest"
	"repro/internal/npsim"
	"repro/internal/runtime"
	"repro/internal/runtime/fault"
)

// Typed sentinel errors, grouped by lifecycle. Every entry point validates
// its inputs against these and returns them wrapped with context (%w), so
// one errors.Is covers the whole API surface:
//
//	pipe, err := repro.Partition(prog, repro.WithStages(40))
//	if errors.Is(err, repro.ErrUnbalanced) {
//		// no balanced 40-way cut exists; fall back to a lower degree
//	}
//
// See Example (sentinel errors) for the executable version.

// Analysis and partitioning — building a Pipeline from a program.
var (
	// ErrNilProgram is returned when a nil compiled program is passed to
	// Analyze or Partition.
	ErrNilProgram = errs.ErrNilProgram
	// ErrBadDegree is returned when WithStages (or WithMaxPEs) falls
	// outside 1..MaxStages.
	ErrBadDegree = errs.ErrBadDegree
	// ErrBadEpsilon is returned when WithEpsilon falls outside (0, 1].
	ErrBadEpsilon = errs.ErrBadEpsilon
	// ErrUnbalanced is returned when no finite balanced cut exists at the
	// requested degree and variance.
	ErrUnbalanced = errs.ErrUnbalanced
	// ErrBadBudget is returned when Explore runs without a positive
	// WithBudget.
	ErrBadBudget = errs.ErrBadBudget
	// ErrArchMismatch is returned when options carry a different cost
	// model than the analysis they are applied to.
	ErrArchMismatch = errs.ErrArchMismatch
	// ErrBadCalibration is returned when adaptive serving cannot fit the
	// cost model: no stage produced both a positive measured time and a
	// positive static weight.
	ErrBadCalibration = errs.ErrBadCalibration
)

// Configuration — assembling options into a runnable setup.
var (
	// ErrBadRing is returned when a WithRing capacity is negative.
	ErrBadRing = errs.ErrBadRing
	// ErrBadBatch is returned when WithBatch is negative.
	ErrBadBatch = errs.ErrBadBatch
	// ErrBadThreads is returned when WithThreads is negative.
	ErrBadThreads = errs.ErrBadThreads
	// ErrBadArrival is returned when WithArrivalInterval is negative.
	ErrBadArrival = errs.ErrBadArrival
	// ErrBadIterations is returned when WithIterations is negative.
	ErrBadIterations = errs.ErrBadIterations
	// ErrBadPolicy is returned when WithOverload names a policy outside
	// Block/Shed/Degrade.
	ErrBadPolicy = errs.ErrBadPolicy
	// ErrBadWatermark is returned when WithWatermark is negative.
	ErrBadWatermark = errs.ErrBadWatermark
	// ErrBadDeadline is returned when WithDeadline is negative.
	ErrBadDeadline = errs.ErrBadDeadline
	// ErrBadRetry is returned when a WithRetry count or backoff is
	// negative.
	ErrBadRetry = errs.ErrBadRetry
	// ErrBadObserver is returned when WithObserver carries an unusable
	// configuration (a negative periodic-log interval).
	ErrBadObserver = errs.ErrBadObserver
	// ErrBadBackend is returned when WithBackend names an unknown
	// stage-execution backend.
	ErrBadBackend = errs.ErrBadBackend
	// ErrBadShards is returned when WithShards falls outside 0..MaxShards.
	ErrBadShards = errs.ErrBadShards
	// ErrBadObjective is returned when WithObjective carries a malformed
	// objective (a non-positive p99 latency bound).
	ErrBadObjective = errs.ErrBadObjective
	// ErrBadAutotune is returned when WithAutotune carries a malformed
	// search configuration (a negative probe window, candidate count, or
	// degree cap).
	ErrBadAutotune = errs.ErrBadAutotune
	// ErrBadFusion is returned when WithFusion names an unknown fusion
	// mode.
	ErrBadFusion = errs.ErrBadFusion
	// ErrBadSource is returned when OpenSource is given a malformed spec
	// (unknown scheme, bad address or parameter) or a pcap file that
	// cannot be parsed.
	ErrBadSource = errs.ErrBadSource
	// ErrConflictingOptions is returned when individually valid options
	// contradict each other (a watermark under the blocking policy, a
	// retry backoff with retries disabled, a batch larger than the ring
	// under a shedding policy) — or when an option is passed to an entry
	// point outside its scope (WithThreads on Serve); see the option
	// matrix above.
	ErrConflictingOptions = errs.ErrConflictingOptions
	// ErrBadFaultPlan is returned when WithFaults carries an out-of-range
	// stage, an unknown kind, or a negative trigger.
	ErrBadFaultPlan = errs.ErrBadFaultPlan
)

// Execution — starting a run.
var (
	// ErrNoStages is returned when an execution path is given an empty
	// stage list.
	ErrNoStages = errs.ErrNoStages
	// ErrNilStage is returned when a stage list contains a nil entry.
	ErrNilStage = errs.ErrNilStage
	// ErrNilWorld is returned when a nil execution environment is passed.
	ErrNilWorld = errs.ErrNilWorld
	// ErrNilSource is returned when Serve runs without a packet source.
	ErrNilSource = errs.ErrNilSource
	// ErrNotServable is returned when the stage list violates the
	// streaming runtime's contract (exactly one pkt_rx site; persistent
	// state confined to single stages).
	ErrNotServable = errs.ErrNotServable
)

// Faults — per-packet failures while serving, reported via
// Metrics.Faults (FaultReport), not returned by Serve.
var (
	// ErrStagePanic is returned when a panic recovered inside a stage body
	// quarantines the offending packet.
	ErrStagePanic = errs.ErrStagePanic
	// ErrPoisonPacket is returned when a malformed packet is quarantined
	// at the source.
	ErrPoisonPacket = errs.ErrPoisonPacket
	// ErrStageDeadline is returned when an iteration exceeds the per-stage
	// deadline.
	ErrStageDeadline = errs.ErrStageDeadline
	// ErrTransientFault is returned when an injected transient fault fires
	// (retried, then quarantined on exhaustion).
	ErrTransientFault = errs.ErrTransientFault
)

// MaxStages bounds the accepted pipelining degree.
const MaxStages = core.MaxStages

// MaxShards bounds the accepted shard width of WithShards.
const MaxShards = runtime.MaxShards

// config is the one configuration record behind every entry point. Zero
// values mean "use the default".
type config struct {
	// partitioning
	stages  int
	epsilon float64
	arch    *Arch
	channel ChannelKind
	tx      TxMode
	// exploration
	budget  int64
	maxPEs  int
	workers int
	// execution (simulate / serve)
	ringCap int
	threads int
	arrival int64
	iters   int
	batch   int
	world   *World
	// robustness (serve)
	overload     OverloadPolicy
	watermark    int
	deadline     time.Duration
	retry        int
	retryBackoff time.Duration
	faults       *FaultPlan
	// observability (serve)
	obs    *Observer
	onLive func(*runtime.Live)
	// execution backend (serve)
	backend Backend
	// sharding (serve)
	shards   int
	shardKey func([]byte) uint64
	// adaptation (serve)
	objective *Objective
	autotune  *Autotune
	fusion    FusionMode
	// ingestion (serve)
	source ingest.Source
	// ingestStats is not set by an option: Pipeline.Serve installs it
	// after wrapping c.source in a feeder, so the runtime can snapshot
	// the source's boundary counters.
	ingestStats func() runtime.IngestStats
}

// optID identifies one option for scope checking; optName must stay in
// sync.
type optID int

const (
	optStages optID = iota
	optEpsilon
	optArch
	optTxMode
	optRing
	optBudget
	optMaxPEs
	optWorkers
	optThreads
	optArrival
	optIterations
	optBatch
	optWorld
	optOverload
	optWatermark
	optDeadline
	optRetry
	optFaults
	optObserver
	optBackend
	optShards
	optShardKey
	optObjective
	optAutotune
	optFusion
	optSource
	numOpts
)

var optName = [numOpts]string{
	"WithStages", "WithEpsilon", "WithArch", "WithTxMode", "WithRing",
	"WithBudget", "WithMaxPEs", "WithWorkers", "WithThreads",
	"WithArrivalInterval", "WithIterations", "WithBatch", "WithWorld",
	"WithOverload", "WithWatermark", "WithDeadline", "WithRetry",
	"WithFaults", "WithObserver", "WithBackend", "WithShards",
	"WithShardKey", "WithObjective", "WithAutotune", "WithFusion",
	"WithSource",
}

// scope is the set of options one entry point accepts.
type scope uint32

func scopeOf(ids ...optID) scope {
	var s scope
	for _, id := range ids {
		s |= 1 << id
	}
	return s
}

func (s scope) has(id optID) bool { return s&(1<<id) != 0 }

// The per-entry-point scopes behind the option matrix above. Analyze,
// Partition, and Explore accept every option: partitioning knobs apply
// directly, and execution knobs recorded there become the Pipeline's
// defaults, inherited by each later Run/Simulate/Serve.
var (
	scopeAll = scope(1<<numOpts - 1)
	scopeRun = scopeOf(optIterations)
	scopeSim = scopeOf(optArch, optRing, optThreads, optArrival, optIterations)
	scopeSrv = scopeOf(optRing, optBatch, optWorld, optOverload, optWatermark,
		optDeadline, optRetry, optFaults, optObserver, optBackend,
		optShards, optShardKey, optObjective, optAutotune, optFusion,
		optSource)
)

// scopeName labels a scope in option-misuse errors.
var scopeName = map[scope]string{
	scopeAll: "Partition",
	scopeRun: "Run",
	scopeSim: "Simulate",
	scopeSrv: "Serve",
}

// Option configures a repro entry point. Options are accepted where they
// mean something and rejected (ErrConflictingOptions) where they do not:
//
//	Option                  Partition/Analyze/Explore   Run   Simulate   Serve
//	WithStages                        yes                -       -         -
//	WithEpsilon                       yes                -       -         -
//	WithArch                          yes                -      yes        -
//	WithTxMode                        yes                -       -         -
//	WithBudget                        yes                -       -         -
//	WithMaxPEs                        yes                -       -         -
//	WithWorkers                       yes                -       -         -
//	WithIterations                    yes               yes     yes        -
//	WithThreads                       yes                -      yes        -
//	WithArrivalInterval               yes                -      yes        -
//	WithRing                          yes                -      yes       yes
//	WithBatch                         yes                -       -        yes
//	WithWorld                         yes                -       -        yes
//	WithOverload                      yes                -       -        yes
//	WithWatermark                     yes                -       -        yes
//	WithDeadline                      yes                -       -        yes
//	WithRetry                         yes                -       -        yes
//	WithFaults                        yes                -       -        yes
//	WithObserver                      yes                -       -        yes
//	WithBackend                       yes                -       -        yes
//	WithShards                        yes                -       -        yes
//	WithShardKey                      yes                -       -        yes
//	WithObjective                     yes                -       -        yes
//	WithAutotune                      yes                -       -        yes
//	WithFusion                        yes                -       -        yes
//	WithSource                        yes                -       -        yes
//
// The first column is the defaults-inheritance path: an execution option
// given at Partition time is recorded on the Pipeline and applies to every
// later call that accepts it. Each option merely records a value;
// validation happens centrally when the entry point assembles its
// configuration, so an invalid value surfaces no matter which call
// delivered it.
type Option struct {
	id    optID
	apply func(*config)
}

func opt(id optID, apply func(*config)) Option { return Option{id: id, apply: apply} }

// WithStages sets the pipelining degree D.
func WithStages(d int) Option { return opt(optStages, func(c *config) { c.stages = d }) }

// WithEpsilon sets the balance variance ε of the paper (default 1/16).
func WithEpsilon(eps float64) Option { return opt(optEpsilon, func(c *config) { c.epsilon = eps }) }

// WithArch selects the architecture cost model (default DefaultArch).
func WithArch(a *Arch) Option { return opt(optArch, func(c *config) { c.arch = a }) }

// WithTxMode selects the live-set transmission strategy (default TxPacked).
func WithTxMode(m TxMode) Option { return opt(optTxMode, func(c *config) { c.tx = m }) }

// WithRing selects the inter-stage ring kind and its capacity; capacity 0
// keeps the kind's default depth (8 entries for NN rings, 64 for scratch).
func WithRing(kind ChannelKind, capacity int) Option {
	return opt(optRing, func(c *config) { c.channel, c.ringCap = kind, capacity })
}

// WithBudget sets the per-packet worst-case budget Explore must meet.
func WithBudget(b int64) Option { return opt(optBudget, func(c *config) { c.budget = b }) }

// WithMaxPEs bounds the processing engines Explore may use (default 10).
func WithMaxPEs(n int) Option { return opt(optMaxPEs, func(c *config) { c.maxPEs = n }) }

// WithWorkers bounds the goroutines fanning out independent candidate
// configurations: 0 selects one per CPU, 1 runs sequentially.
func WithWorkers(n int) Option { return opt(optWorkers, func(c *config) { c.workers = n }) }

// WithThreads sets the simulated hardware threads per engine (default 8).
func WithThreads(n int) Option { return opt(optThreads, func(c *config) { c.threads = n }) }

// WithArrivalInterval sets the simulated gap in cycles between packet
// arrivals; 0 means saturated arrivals.
func WithArrivalInterval(cycles int64) Option {
	return opt(optArrival, func(c *config) { c.arrival = cycles })
}

// WithIterations overrides the iteration count of Run and Simulate, which
// default to one iteration per input packet.
func WithIterations(n int) Option { return opt(optIterations, func(c *config) { c.iters = n }) }

// WithBatch sets the iterations carried per serve-path ring entry
// (default 1); batching amortizes ring synchronization.
func WithBatch(n int) Option { return opt(optBatch, func(c *config) { c.batch = n }) }

// WithWorld supplies the execution environment (route tables, queues) a
// served pipeline runs in; the default is an empty NewWorld(nil).
func WithWorld(w *World) Option { return opt(optWorld, func(c *config) { c.world = w }) }

// WithOverload selects the serve-path overload policy: OverloadBlock
// (default — lossless backpressure), OverloadShed (drop batches when a
// ring stays saturated past the watermark), or OverloadDegrade
// (short-circuit them: delivered with later stages skipped).
func WithOverload(p OverloadPolicy) Option {
	return opt(optOverload, func(c *config) { c.overload = p })
}

// WithWatermark sets how long a ring must stay saturated before the
// overload policy engages, in 200µs re-probe ticks (default 4). Only
// meaningful under OverloadShed/OverloadDegrade; combining it with the
// blocking policy is rejected as ErrConflictingOptions.
func WithWatermark(ticks int) Option {
	return opt(optWatermark, func(c *config) { c.watermark = ticks })
}

// WithDeadline bounds one iteration's execution at one stage; a blown
// deadline quarantines the packet (errs.ErrStageDeadline) instead of
// stalling the pipeline.
func WithDeadline(d time.Duration) Option {
	return opt(optDeadline, func(c *config) { c.deadline = d })
}

// WithRetry bounds re-executions of transient stage faults: up to n
// retries, sleeping backoff before the first and doubling per attempt.
// Packets whose fault outlives the budget are quarantined.
func WithRetry(n int, backoff time.Duration) Option {
	return opt(optRetry, func(c *config) { c.retry, c.retryBackoff = n, backoff })
}

// WithFaults installs a deterministic fault-injection plan for Serve —
// the chaos-testing seam. Nil clears it.
func WithFaults(p *FaultPlan) Option { return opt(optFaults, func(c *config) { c.faults = p }) }

// WithObserver attaches the observability layer to Serve: span tracing
// into o.Tracer, per-stage counter mirroring into o.Registry, and
// periodic progress lines every o.LogEvery. Nil clears it (the default);
// a served pipeline without an observer pays one pointer check per batch
// and nothing else. Pipeline.Snapshot works with or without an observer.
func WithObserver(o *Observer) Option { return opt(optObserver, func(c *config) { c.obs = o }) }

// WithBackend selects the stage-execution backend Serve drives the
// pipeline with: BackendCompiled (default — the IR is lowered once into
// slot-indexed closure programs) or BackendInterp (the reference
// interpreter, retained as the differential oracle). Both produce
// byte-identical traces; the compiled backend merely gets there faster.
func WithBackend(b Backend) Option { return opt(optBackend, func(c *config) { c.backend = b }) }

// WithShards sets the serve-path shard width P: stages without cross-flow
// state run as P concurrent replicas, packets are dispatched to replicas
// by a flow hash, and the output is merged back into exact source order —
// the served trace stays byte-identical to the sequential oracle at any
// P. Stages with cross-flow state (queues, schedulers) keep running
// unsharded behind a deterministic fan-in. 0 and 1 both mean unsharded;
// widths outside 0..MaxShards are rejected as ErrBadShards.
func WithShards(p int) Option { return opt(optShards, func(c *config) { c.shards = p }) }

// WithShardKey sets the flow key the shard dispatcher hashes packets
// with (default: a whole-packet hash — even spread, but not flow-affine).
// Pipelines with flow-keyed persistent tables shard those stages only
// when an explicit key is configured; FlowKey is the canonical key for
// the benchmark's POS frames. Nil restores the default.
func WithShardKey(fn func(pkt []byte) uint64) Option {
	return opt(optShardKey, func(c *config) { c.shardKey = fn })
}

// WithObjective declares what a served pipeline optimizes — see Objective
// (MaxThroughput, ThroughputUnderP99). On its own it only annotates the
// plan; combined with WithAutotune it steers the adaptive search.
func WithObjective(o Objective) Option {
	return opt(optObjective, func(c *config) { c.objective = &o })
}

// WithAutotune turns Serve into the closed adaptive loop: serve a probe
// window, calibrate the cost model from the measured per-stage times,
// re-cut the program under the calibrated weights, probe the most
// promising (degree, batch, shards) candidates with real traffic, then
// commit to the winner for the rest of the stream — all at batch
// boundaries, with the served trace byte-identical to the sequential
// oracle throughout. The zero Autotune selects defaults.
func WithAutotune(t Autotune) Option {
	return opt(optAutotune, func(c *config) { c.autotune = &t })
}

// FusionMode selects how Serve realizes pipeline cuts whose inter-stage
// ring cannot pay for itself; see WithFusion.
type FusionMode int

const (
	// FusionAuto (the default) lets the cost model value each cut: a cut
	// whose ring synchronization tax exceeds its predicted pipeline-bound
	// gain is realized by fusing the adjacent stages into one execution
	// unit — no ring, the live set handed over inside the token — while
	// cuts that buy real overlap keep their rings. On a single-core host
	// this typically fuses the whole pipeline; on a wide host with
	// balanced stages it fuses nothing.
	FusionAuto FusionMode = iota
	// FusionOff keeps every cut on a ring regardless of the cost
	// model's verdict — the pre-fusion realization, retained as the
	// baseline for A/B measurement.
	FusionOff
)

// WithFusion selects the stage-fusion mode of a served pipeline (default
// FusionAuto). Fusion is a realization choice, not a semantic one: the
// served trace, the per-stage counters, and the fault ledger are
// byte-identical in every mode, and Pipeline.Plan() states which cuts
// were fused and why. A scatter or fan-in junction (sharded serving)
// always keeps its ring machinery — fusion applies only to cuts whose
// two sides run at the same replica width.
func WithFusion(m FusionMode) Option { return opt(optFusion, func(c *config) { c.fusion = m }) }

// WithSource feeds a served pipeline from a network-facing batch source
// (BatchSource — a UDP or TCP listener, a pcap replay, or the synthetic
// traffic generator; see OpenSource). The pipeline pulls batches from it
// at the head stage, first-ring backpressure propagates into the source
// (and, for sockets, to the kernel receive buffer), and the source's
// boundary counters surface through Pipeline.Snapshot().Ingest,
// Metrics.Ingest, and the ingest.* registry gauges. Pass nil as Serve's
// positional src when using this option — supplying both is rejected as
// ErrConflictingOptions. Serve does not close the source; the caller
// owns its lifecycle.
func WithSource(s BatchSource) Option { return opt(optSource, func(c *config) { c.source = s }) }

// validate is the central gate: every entry point funnels its assembled
// config through here, so each invalid value maps to one typed error
// regardless of which option delivered it.
func (c *config) validate() error {
	if c.stages < 0 || c.stages > MaxStages {
		return fmt.Errorf("repro: %w: %d (want 1..%d)", ErrBadDegree, c.stages, MaxStages)
	}
	if c.epsilon < 0 || c.epsilon > 1 {
		return fmt.Errorf("repro: %w: %g (want (0, 1])", ErrBadEpsilon, c.epsilon)
	}
	if c.budget < 0 {
		return fmt.Errorf("repro: %w: %d", ErrBadBudget, c.budget)
	}
	if c.maxPEs < 0 {
		return fmt.Errorf("repro: %w: max PEs %d", ErrBadDegree, c.maxPEs)
	}
	if c.ringCap < 0 {
		return fmt.Errorf("repro: %w: %d", ErrBadRing, c.ringCap)
	}
	if c.batch < 0 {
		return fmt.Errorf("repro: %w: %d", ErrBadBatch, c.batch)
	}
	if c.threads < 0 {
		return fmt.Errorf("repro: %w: %d", ErrBadThreads, c.threads)
	}
	if c.arrival < 0 {
		return fmt.Errorf("repro: %w: %d", ErrBadArrival, c.arrival)
	}
	if c.iters < 0 {
		return fmt.Errorf("repro: %w: %d", ErrBadIterations, c.iters)
	}
	if c.overload > OverloadDegrade {
		return fmt.Errorf("repro: %w: %d", ErrBadPolicy, c.overload)
	}
	if c.watermark < 0 {
		return fmt.Errorf("repro: %w: %d", ErrBadWatermark, c.watermark)
	}
	if c.deadline < 0 {
		return fmt.Errorf("repro: %w: %v", ErrBadDeadline, c.deadline)
	}
	if c.retry < 0 || c.retryBackoff < 0 {
		return fmt.Errorf("repro: %w: retry %d, backoff %v", ErrBadRetry, c.retry, c.retryBackoff)
	}
	if c.watermark > 0 && c.overload == OverloadBlock {
		return fmt.Errorf("repro: %w: overload watermark %d set, but the blocking policy never sheds",
			ErrConflictingOptions, c.watermark)
	}
	if c.retryBackoff > 0 && c.retry == 0 {
		return fmt.Errorf("repro: %w: retry backoff %v set, but retries are disabled",
			ErrConflictingOptions, c.retryBackoff)
	}
	if c.overload != OverloadBlock {
		ringCap := c.ringCap
		if ringCap == 0 {
			ringCap = runtime.DefaultRingCapacity(c.channel)
		}
		if c.batch > ringCap {
			return fmt.Errorf("repro: %w: batch %d exceeds ring capacity %d under the %v policy",
				ErrConflictingOptions, c.batch, ringCap, c.overload)
		}
	}
	if err := c.faults.Validate(MaxStages); err != nil {
		return fmt.Errorf("repro: %w", err)
	}
	if err := c.obs.Validate(); err != nil {
		return fmt.Errorf("repro: %w: %v", ErrBadObserver, err)
	}
	if c.backend < BackendCompiled || c.backend > BackendInterp {
		return fmt.Errorf("repro: %w: %d", ErrBadBackend, int(c.backend))
	}
	if c.shards < 0 || c.shards > MaxShards {
		return fmt.Errorf("repro: %w: %d (want 0..%d)", ErrBadShards, c.shards, MaxShards)
	}
	if err := c.objective.validate(); err != nil {
		return err
	}
	if err := c.autotune.validate(); err != nil {
		return err
	}
	if c.fusion < FusionAuto || c.fusion > FusionOff {
		return fmt.Errorf("repro: %w: %d", ErrBadFusion, int(c.fusion))
	}
	return nil
}

// newConfig assembles and validates a configuration from scratch; the
// analysis-phase entry points accept every option.
func newConfig(opts []Option) (config, error) {
	var c config
	return c.with(opts, scopeAll)
}

// with layers opts over a copy of c, rejects options outside the entry
// point's scope, and re-validates.
func (c config) with(opts []Option, sc scope) (config, error) {
	for _, o := range opts {
		if o.apply == nil {
			continue
		}
		if !sc.has(o.id) {
			return config{}, fmt.Errorf("repro: %w: %s is not accepted by %s (see the option matrix in options.go)",
				ErrConflictingOptions, optName[o.id], scopeName[sc])
		}
		o.apply(&c)
	}
	if err := c.validate(); err != nil {
		return config{}, err
	}
	return c, nil
}

func (c *config) coreOptions() core.Options {
	return core.Options{
		Stages:  c.stages,
		Epsilon: c.epsilon,
		Arch:    c.arch,
		Channel: c.channel,
		Tx:      c.tx,
	}
}

func (c *config) exploreOptions() core.ExploreOptions {
	return core.ExploreOptions{
		Budget:  c.budget,
		MaxPEs:  c.maxPEs,
		Workers: c.workers,
		Base:    c.coreOptions(),
	}
}

func (c *config) simConfig() npsim.Config {
	sim := npsim.DefaultConfig()
	sim.Channel = c.channel
	if c.arch != nil {
		sim.Arch = c.arch
	}
	if c.ringCap > 0 {
		sim.RingCapacity = c.ringCap
	}
	if c.threads > 0 {
		sim.ThreadsPerPE = c.threads
	}
	sim.ArrivalInterval = c.arrival
	return sim
}

func (c *config) serveConfig() runtime.Config {
	return runtime.Config{
		Channel:       c.channel,
		RingCapacity:  c.ringCap,
		Batch:         c.batch,
		Overload:      c.overload,
		Watermark:     c.watermark,
		StageDeadline: c.deadline,
		Retry:         c.retry,
		RetryBackoff:  c.retryBackoff,
		Faults:        c.faults,
		Obs:           c.obs,
		OnLive:        c.onLive,
		Backend:       c.backend,
		Shards:        c.shards,
		ShardKey:      c.shardKey,
		Ingest:        c.ingestStats,
	}
}

// FaultPlan is a deterministic fault-injection schedule for the serve
// runtime; see repro/internal/runtime/fault.
type FaultPlan = fault.Plan

// FaultInjection is one scheduled fault of a FaultPlan.
type FaultInjection = fault.Injection

// FaultKind classifies an injected fault.
type FaultKind = fault.Kind

// The injectable fault kinds.
const (
	FaultStall     = fault.Stall
	FaultDelay     = fault.Delay
	FaultPoison    = fault.Poison
	FaultPanic     = fault.Panic
	FaultTransient = fault.Transient
)

// SeededFaults derives a small random fault plan from a seed — the
// randomized half of the chaos harness.
func SeededFaults(seed int64, stages int, horizon int64) *FaultPlan {
	return fault.Seeded(seed, stages, horizon)
}

// OverloadPolicy decides what a saturated ring does to the packets that
// cannot enter it; see WithOverload.
type OverloadPolicy = runtime.OverloadPolicy

// The overload policies.
const (
	OverloadBlock   = runtime.OverloadBlock
	OverloadShed    = runtime.OverloadShed
	OverloadDegrade = runtime.OverloadDegrade
)

// Backend selects how Serve executes stage iterations; see WithBackend.
type Backend = runtime.Backend

// The stage-execution backends.
const (
	BackendCompiled = runtime.BackendCompiled
	BackendInterp   = runtime.BackendInterp
)

// FaultReport is the serve run's loss accounting (Metrics.Faults).
type FaultReport = runtime.FaultReport

// FaultRecord describes the fate of one shed, degraded, or quarantined
// packet.
type FaultRecord = runtime.FaultRecord
