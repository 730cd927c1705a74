package repro

import (
	"context"
	"fmt"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/ingest"
	"repro/internal/interp"
	"repro/internal/npsim"
	"repro/internal/runtime"
)

// Pipeline is the executable product of Partition: the realized stage
// programs plus the static report, with one method per way to run them —
// the sequential oracle (Run), the cycle-approximate IXP simulators
// (Simulate, SimulateThreads), and the concurrent host runtime (Serve).
// A Pipeline is immutable and safe for concurrent use; each execution
// method builds its own run state. The mutable state is two atomically
// published handles: the counters of the most recent Serve run (Snapshot)
// and the live realization plan (Plan).
type Pipeline struct {
	stages   []*Program
	report   *Report
	cfg      config
	analysis *core.Analysis // the cut's parent analysis; Reweigh seam of the adaptive loop
	live     atomic.Pointer[runtime.Live]
	plan     atomic.Pointer[Plan]
}

// newPipeline wraps a core result with the configuration it was cut under,
// so execution defaults (ring kind, capacities) follow the partition, and
// with the parent analysis, so an adaptive serve can re-cut it under
// calibrated weights.
func newPipeline(res *core.Result, cfg config, an *core.Analysis) *Pipeline {
	p := &Pipeline{stages: res.Stages, report: res.Report, cfg: cfg, analysis: an}
	plan, _ := staticPlan(res.Stages, res.Report, cfg)
	p.plan.Store(plan)
	return p
}

// Stages returns the realized per-stage programs, connected by live-set
// transmissions (OpSendLS/OpRecvLS). The slice and its programs must be
// treated as read-only.
func (p *Pipeline) Stages() []*Program { return p.stages }

// Degree returns the pipelining degree D.
func (p *Pipeline) Degree() int { return len(p.stages) }

// Report returns the static measurement report (per-stage costs, per-cut
// live sets, speedup and overhead metrics).
func (p *Pipeline) Report() *Report { return p.report }

// Plan returns the pipeline's live realization: the configuration serving
// (or, before any adaptive serve, the static cut), the cost model behind
// it, and the rationale for choosing it. After a WithAutotune serve
// commits to a winner, Plan reflects that winner — safe to call from any
// goroutine, including while a serve is in flight.
func (p *Pipeline) Plan() *Plan { return p.plan.Load() }

// Run executes the pipeline on the sequential oracle: every iteration runs
// to completion through all stages before the next begins, which preserves
// the sequential trace order exactly. It runs one iteration per input
// packet of world (override with WithIterations) and returns the
// observable trace. Cancellation is checked between iterations.
func (p *Pipeline) Run(ctx context.Context, world *World, opts ...Option) ([]Event, error) {
	cfg, err := p.cfg.with(opts, scopeRun)
	if err != nil {
		return nil, err
	}
	if len(p.stages) == 0 {
		return nil, ErrNoStages
	}
	if world == nil {
		return nil, ErrNilWorld
	}
	iters := cfg.iters
	if iters == 0 {
		iters = len(world.Packets)
	}
	runners := interp.NewStageRunners(p.stages, world)
	ictx := interp.NewIterCtx()
	for i := 0; i < iters; i++ {
		if err := ctx.Err(); err != nil {
			return world.Trace, err
		}
		var slots []int64
		for k, r := range runners {
			out, err := r.RunIteration(ictx, slots)
			if err != nil {
				return nil, fmt.Errorf("iteration %d, stage %d: %w", i, k, err)
			}
			slots = out
		}
		ictx.Reset()
	}
	return world.Trace, nil
}

// Simulate runs the pipeline on the cycle-approximate IXP-style simulator
// (one engine per stage, hardware rings between neighbors), measuring
// predicted throughput alongside behaviour. It simulates one iteration per
// input packet of world (override with WithIterations); the simulation
// itself is bounded and not interruptible, so ctx is only checked on entry.
func (p *Pipeline) Simulate(ctx context.Context, world *World, opts ...Option) (*SimResult, error) {
	cfg, iters, err := p.simRun(ctx, world, opts)
	if err != nil {
		return nil, err
	}
	return npsim.Simulate(p.stages, world, iters, cfg.simConfig())
}

// SimulateThreads runs the fine-grained thread-level simulator: every
// hardware thread of every engine is modeled explicitly, so memory latency
// hiding is directly observable. Iteration semantics match Simulate.
func (p *Pipeline) SimulateThreads(ctx context.Context, world *World, opts ...Option) (*ThreadSimResult, error) {
	cfg, iters, err := p.simRun(ctx, world, opts)
	if err != nil {
		return nil, err
	}
	return npsim.SimulateThreads(p.stages, world, iters, cfg.simConfig())
}

func (p *Pipeline) simRun(ctx context.Context, world *World, opts []Option) (config, int, error) {
	cfg, err := p.cfg.with(opts, scopeSim)
	if err != nil {
		return config{}, 0, err
	}
	if err := ctx.Err(); err != nil {
		return config{}, 0, err
	}
	if world == nil {
		return config{}, 0, ErrNilWorld
	}
	iters := cfg.iters
	if iters == 0 {
		iters = len(world.Packets)
	}
	return cfg, iters, nil
}

// Serve runs the pipeline on the host-native streaming runtime: one
// goroutine per stage, bounded rings (WithRing) between neighbors, batched
// transmissions (WithBatch), serving src until it is exhausted or ctx is
// canceled. The environment (route tables, queues) comes from WithWorld.
// To serve real traffic, pass nil for src and attach a network-facing
// source with WithSource (see OpenSource): the head stage then pulls
// batches off the socket / capture, backpressure propagates into the
// source, and the boundary counters appear in Snapshot().Ingest and the
// returned Metrics.Ingest.
// With WithShards(P), stages free of cross-flow state run as P parallel
// replicas behind a flow-hash dispatcher (WithShardKey selects the key)
// and the output is deterministically re-merged. With WithAutotune, Serve
// becomes the closed adaptive loop (see adaptive.go): it calibrates the
// cost model against measured stage times, re-cuts the program, probes the
// best candidate configurations with real traffic, and commits to the
// measured winner — the served trace stays byte-identical to the
// sequential oracle throughout, and Plan reports what was chosen and why.
// The returned Metrics carry measured throughput, per-stage counters
// (aggregated across replicas when sharded), and the observable trace in
// exact sequential-oracle order.
func (p *Pipeline) Serve(ctx context.Context, src Source, opts ...Option) (*Metrics, error) {
	cfg, err := p.cfg.with(opts, scopeSrv)
	if err != nil {
		return nil, err
	}
	// WithSource: wrap the batch source in the head-of-pipe feeder. The
	// feeder pulls socket-friendly batches, carries the serve context
	// into blocking reads, and exposes the source's boundary counters to
	// the runtime (Snapshot.Ingest, Metrics.Ingest, registry gauges).
	var feeder *ingest.Feeder
	if cfg.source != nil {
		if src != nil {
			return nil, fmt.Errorf("repro: %w: both the positional source and WithSource supply the packet stream; pass nil for one of them",
				ErrConflictingOptions)
		}
		pull := cfg.batch
		if pull < ingestPullMin {
			pull = ingestPullMin
		}
		feeder = ingest.NewFeeder(cfg.source, pull)
		feeder.BindContext(ctx)
		stats := feeder.Stats()
		cfg.ingestStats = func() runtime.IngestStats {
			v := stats.View()
			return runtime.IngestStats{RxPackets: v.RxPackets, RxBytes: v.RxBytes,
				Drops: v.Drops, DecodeErrors: v.DecodeErrors}
		}
		src = feeder
	}
	cfg.onLive = func(l *runtime.Live) { p.live.Store(l) }
	m, err := p.serveWith(ctx, src, cfg)
	if feeder != nil && err == nil {
		// The runtime treats a dead source as clean end-of-stream (it
		// cannot tell a drained pcap from a failed socket); the feeder
		// remembers which it was.
		if ferr := feeder.Err(); ferr != nil {
			return m, fmt.Errorf("repro: ingest: %w", ferr)
		}
	}
	return m, err
}

// ingestPullMin is the smallest batch the feeder requests per Pull: even
// an unbatched pipeline pulls a few packets per source round-trip so a
// socket read syscall is never amortized over a single packet.
const ingestPullMin = 32

// serveWith dispatches an assembled serve configuration to the static or
// adaptive path.
func (p *Pipeline) serveWith(ctx context.Context, src Source, cfg config) (*Metrics, error) {
	if cfg.autotune != nil {
		if src == nil {
			return nil, ErrNilSource
		}
		if len(p.stages) == 0 {
			return nil, ErrNoStages
		}
		return p.serveAdaptive(ctx, src, cfg)
	}
	world := cfg.world
	if world == nil {
		world = NewWorld(nil)
	}
	rc := cfg.serveConfig()
	// Static path: value every cut under the serve-time shape and realize
	// the verdict — cuts whose ring tax exceeds their pipeline gain run
	// fused. The refreshed plan records which cuts fused and why.
	plan, fuse := staticPlan(p.stages, p.report, cfg)
	rc.FuseCuts = fuse
	p.plan.Store(plan)
	return runtime.Serve(ctx, p.stages, world, src, rc)
}

// Snapshot captures the counters of the pipeline's most recent Serve run
// at this instant: safe to call at any time from any goroutine, including
// while the run is still in flight (the usual pattern is Serve on one
// goroutine, Snapshot from a monitoring loop on another). The returned
// value is a plain-field copy — inspect it freely. Returns nil if Serve
// has not been called on this Pipeline. Works with or without an Observer
// attached; under WithShards the per-stage counters are aggregated across
// each stage's replicas. For the full trace and fault records, use the
// Metrics that Serve returns.
func (p *Pipeline) Snapshot() *Snapshot { return p.live.Load().Snapshot() }
