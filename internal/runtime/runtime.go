// Package runtime is the host-native streaming executor for partitioned
// pipelines: one goroutine per stage, connected by bounded rings, serving
// a packet stream. Where internal/npsim *predicts* pipeline timing on a
// model of the IXP, this package *measures* it on the host — each stage
// really runs concurrently, inter-stage rings really exert backpressure,
// and throughput comes from the wall clock.
//
// Correctness model: every iteration owns an interp.IterCtx that flows
// down the pipeline inside a token. The head stage pulls one packet per
// iteration from the Source and attaches it to the token; the iteration's
// observable events are buffered on the token (IterCtx.DeferEvents) and
// merged at the sink in iteration order. Because each ring has exactly one
// producer and one consumer, tokens retire in iteration order and the
// merged trace is byte-identical to the sequential oracle's — there is no
// cross-stage reordering to normalize away.
//
// Sharding (Config.Shards > 1) replicates the shardable stages P ways:
// packets are dispatched to lanes by a flow hash and the global order is
// restored at deterministic merge points, so the served trace stays
// byte-identical to the oracle at any shard count. The topology and the
// determinism argument live in shard.go; the junction machinery (scatter,
// fan-in, sequence side-channel, offline sink merge) in merge.go.
//
// Shared state discipline (what makes the concurrency safe):
//
//   - the packet stream is pre-pulled at the head stage (Runner.RxFromCtx),
//     so no stage touches the World's packet cursor;
//   - persistent arrays and queues are each confined to a single stage
//     (the partitioning invariant, re-checked by Validate), and the shared
//     persistent store is fully materialized before any goroutine starts;
//     replicated stages either carry no persistent writes or fork their
//     flow-keyed arrays per replica (see shard.go);
//   - route tables are read-only;
//   - per-replica counters live in atomic probes (one writer each), so a
//     Live.Snapshot taken mid-serve is race-free; fault records stay
//     goroutine-local and are merged only after the final join.
//
// Observability (internal/obsv) threads through the same loops: when a
// Config carries an Observer, stages record wait/exec/tx spans, mirror
// their counters into a metrics registry, and emit periodic progress
// lines. With no Observer the extra cost is one nil check per batch — no
// clocks, no allocation (the serve benchmarks gate this at < 2%).
package runtime

import (
	"context"
	"errors"
	"fmt"
	"log"
	"runtime/pprof"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/costmodel"
	"repro/internal/errs"
	"repro/internal/exec"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/obsv"
	"repro/internal/runtime/fault"
)

// Backend selects the stage-execution substrate Serve drives.
type Backend int

const (
	// BackendCompiled runs stages through internal/exec: each stage
	// program is lowered once into a slot-indexed closure program. It is
	// the default — byte-identical to the interpreter (enforced
	// differentially) and substantially faster.
	BackendCompiled Backend = iota
	// BackendInterp runs stages through the tree-walking interpreter in
	// internal/interp — the repository's behavioural oracle. Use it to
	// cross-check the compiled backend or when instruction-level hooks
	// (interp.Runner.OnInstr) are needed.
	BackendInterp
)

// String names the backend the way the CLI flags spell it.
func (b Backend) String() string {
	switch b {
	case BackendCompiled:
		return "compiled"
	case BackendInterp:
		return "interp"
	}
	return fmt.Sprintf("backend(%d)", int(b))
}

// stageRunner is the per-stage execution contract both backends satisfy:
// one in-flight iteration at a time, confined to the stage's goroutine.
// RunIterationInto is the zero-copy handoff form: when the dst buffer has
// capacity for the outgoing live set, the returned slice aliases dst and
// the handoff allocates nothing.
type stageRunner interface {
	RunIteration(ctx *interp.IterCtx, recv []int64) ([]int64, error)
	RunIterationInto(ctx *interp.IterCtx, recv, dst []int64) ([]int64, error)
}

// Config shapes the streaming executor.
type Config struct {
	// Backend selects the stage-execution substrate (compiled by
	// default; the interpreter remains available as the oracle).
	Backend Backend
	// Channel is the ring kind the pipeline was partitioned for; it picks
	// the default ring capacity (nearest-neighbor rings are small on-chip
	// buffers, scratch rings are deeper).
	Channel costmodel.ChannelKind
	// RingCapacity overrides the per-ring entry count (batches, not
	// packets). 0 selects the Channel default: 8 for NN, 64 for scratch.
	RingCapacity int
	// Batch is the number of iterations carried per ring entry; batching
	// amortizes ring synchronization over several packets. 0 means 1.
	Batch int

	// Shards is the pipeline replica width P: stages without cross-flow
	// state run P ways, fed by a flow-hash dispatcher, and the output is
	// merged back into exact global order. 0 and 1 both mean unsharded;
	// the accepted range is 0..MaxShards. Stages with cross-flow state
	// (queues, schedulers) stay unsharded behind a fan-in, so the served
	// trace is byte-identical to the oracle at any width.
	Shards int
	// ShardKey maps a packet to its flow key for lane dispatch; nil
	// selects DefaultShardKey (whole-packet hash — even spread, but not
	// flow-affine). Pipelines with flow-keyed persistent tables shard
	// those stages only when an explicit key is configured, because the
	// partitioned tables are correct only when the lane assignment
	// refines the table index.
	ShardKey func(pkt []byte) uint64

	// FuseCuts marks pipeline cuts to realize by fusion: when FuseCuts[k]
	// is true, stages k+1 and k+2 run in one goroutine with the live-set
	// handoff folded into token-buffer moves instead of a ring —
	// the realization for cuts whose ring tax exceeds their pipeline-bound
	// gain. nil (the default) fuses nothing. Entries past the last cut are
	// ignored, and a marked cut is only fused when both sides have the
	// same replica width (an aligned junction): scatters and fan-ins keep
	// their ring machinery regardless. Fused stages keep their own probes,
	// fault-injection indices, and MaxSteps budgets — only the ring
	// between them disappears.
	FuseCuts []bool

	// Overload selects what a producer does when its outgoing ring stays
	// saturated past the watermark: block (default, lossless), shed, or
	// degrade. See OverloadPolicy.
	Overload OverloadPolicy
	// Watermark is how long a ring must stay saturated before a shedding
	// policy engages, counted in failed re-probe ticks of 200µs each. 0
	// selects the default (4 ticks). Setting it under OverloadBlock is a
	// configuration conflict: the blocking policy never consults it.
	Watermark int
	// StageDeadline, when positive, bounds one iteration's execution at
	// one stage (injected stalls included); a blown deadline quarantines
	// the packet with errs.ErrStageDeadline. The check is cooperative —
	// a stall that already exceeded the deadline quarantines before the
	// stage body runs, so persistent state stays untouched.
	StageDeadline time.Duration
	// Retry bounds re-executions of an iteration that failed with a
	// transient fault (errs.ErrTransientFault); RetryBackoff is the first
	// inter-attempt sleep, doubling per retry. Exhausting the budget
	// quarantines the packet. Transient faults fire before the stage body,
	// so a retry never re-applies persistent side effects.
	Retry        int
	RetryBackoff time.Duration
	// Faults is the deterministic fault-injection schedule (nil: none).
	Faults *fault.Plan

	// Store, when non-nil, supplies the persistent-array storage the stage
	// runners execute against instead of a freshly initialized one. The
	// adaptive serve path passes the same store to every round so
	// persistent state (route tables, counters, flow tables) survives
	// re-cuts and configuration swaps; arrays the current stage programs
	// reference are materialized into it before the goroutines start.
	// nil keeps the classic semantics: fresh state per Serve call.
	Store *interp.Store

	// Ingest, when non-nil, snapshots the boundary counters of the
	// network-facing source feeding this run (rx packets/bytes, drops,
	// decode errors). The runtime never calls it on the hot path: only
	// when a Snapshot is taken, when registry gauges are read, and once
	// to freeze Metrics.Ingest after the final join.
	Ingest func() IngestStats

	// Obs attaches the observability layer — span tracing, registry
	// mirroring, periodic progress lines. nil disables all of it at the
	// cost of one pointer check per batch.
	Obs *obsv.Observer
	// OnLive, when non-nil, receives the run's Live probe handle before
	// the first stage goroutine starts; snapshots taken through it are
	// race-free while the run is in flight. The repro package uses this
	// to back Pipeline.Snapshot.
	OnLive func(*Live)
}

// DefaultConfig returns the nearest-neighbor-ring configuration.
func DefaultConfig() Config { return Config{Channel: costmodel.NNRing} }

// overloadTick is the re-probe interval of a saturated ring under a
// shedding policy; Watermark counts these.
const overloadTick = 200 * time.Microsecond

// defaultWatermark is the saturation tolerance when a shedding policy is
// selected without an explicit watermark.
const defaultWatermark = 4

func (c Config) validate() error {
	if c.Backend < BackendCompiled || c.Backend > BackendInterp {
		return fmt.Errorf("%w: %d", errs.ErrBadBackend, int(c.Backend))
	}
	if c.RingCapacity < 0 {
		return fmt.Errorf("%w: %d", errs.ErrBadRing, c.RingCapacity)
	}
	if c.Batch < 0 {
		return fmt.Errorf("%w: %d", errs.ErrBadBatch, c.Batch)
	}
	if c.Shards < 0 || c.Shards > MaxShards {
		return fmt.Errorf("%w: %d (want 0..%d)", errs.ErrBadShards, c.Shards, MaxShards)
	}
	if c.Overload > OverloadDegrade {
		return fmt.Errorf("%w: %d", errs.ErrBadPolicy, c.Overload)
	}
	if c.Watermark < 0 {
		return fmt.Errorf("%w: %d", errs.ErrBadWatermark, c.Watermark)
	}
	if c.StageDeadline < 0 {
		return fmt.Errorf("%w: %v", errs.ErrBadDeadline, c.StageDeadline)
	}
	if c.Retry < 0 || c.RetryBackoff < 0 {
		return fmt.Errorf("%w: retry %d, backoff %v", errs.ErrBadRetry, c.Retry, c.RetryBackoff)
	}
	if err := c.Obs.Validate(); err != nil {
		return fmt.Errorf("%w: %v", errs.ErrBadObserver, err)
	}
	if c.Watermark > 0 && c.Overload == OverloadBlock {
		return fmt.Errorf("%w: overload watermark %d set, but the blocking policy never sheds",
			errs.ErrConflictingOptions, c.Watermark)
	}
	if c.RetryBackoff > 0 && c.Retry == 0 {
		return fmt.Errorf("%w: retry backoff %v set, but retries are disabled",
			errs.ErrConflictingOptions, c.RetryBackoff)
	}
	if c.Overload != OverloadBlock {
		// Under a shedding policy the batch is the shed unit; a batch
		// bigger than the whole ring would let one overload event drop
		// more than a ring's worth of packets at once.
		ringCap := c.RingCapacity
		if ringCap == 0 {
			ringCap = DefaultRingCapacity(c.Channel)
		}
		if c.Batch > ringCap {
			return fmt.Errorf("%w: batch %d exceeds ring capacity %d under the %v policy",
				errs.ErrConflictingOptions, c.Batch, ringCap, c.Overload)
		}
	}
	return nil
}

func (c Config) withDefaults() Config {
	if c.RingCapacity == 0 {
		c.RingCapacity = DefaultRingCapacity(c.Channel)
	}
	if c.Batch == 0 {
		c.Batch = 1
	}
	if c.Shards == 0 {
		c.Shards = 1
	}
	if c.Watermark == 0 && c.Overload != OverloadBlock {
		c.Watermark = defaultWatermark
	}
	return c
}

// Validate checks the servability contract of a stage list: stages exist
// and are non-nil; exactly one pkt_rx site exists across the pipeline (it
// is the pacing point — one packet enters per iteration); and every
// persistent channel (queues) and persistent array is confined to a single
// stage, which is what lets stage goroutines touch them without locks. The
// partitioner guarantees the confinement for its own output; Validate
// re-checks it so hand-built stage lists fail loudly instead of racing.
func Validate(stages []*ir.Program) error {
	if len(stages) == 0 {
		return errs.ErrNoStages
	}
	for i, s := range stages {
		if s == nil || s.Func == nil {
			return fmt.Errorf("stage %d: %w", i+1, errs.ErrNilStage)
		}
	}
	rxSites := 0
	chanStage := map[string]int{} // persistent intrinsic channel -> stage
	arrStage := map[int]int{}     // persistent array ID -> stage
	for k, s := range stages {
		for _, b := range s.Func.Blocks {
			for _, in := range b.Instrs {
				switch in.Op {
				case ir.OpCall:
					if in.Call == "pkt_rx" {
						rxSites++
					}
					if intr, ok := costmodel.Intrinsics[in.Call]; ok {
						for _, ef := range intr.Effects {
							if !ef.Persistent {
								continue
							}
							if prev, ok := chanStage[ef.Channel]; ok && prev != k {
								return fmt.Errorf("%w: persistent channel %q used by stages %d and %d",
									errs.ErrNotServable, ef.Channel, prev+1, k+1)
							}
							chanStage[ef.Channel] = k
						}
					}
				case ir.OpLoad, ir.OpStore:
					if in.Arr != nil && in.Arr.Persistent {
						if prev, ok := arrStage[in.Arr.ID]; ok && prev != k {
							return fmt.Errorf("%w: persistent array %s used by stages %d and %d",
								errs.ErrNotServable, in.Arr.Name, prev+1, k+1)
						}
						arrStage[in.Arr.ID] = k
					}
				}
			}
		}
	}
	if rxSites != 1 {
		return fmt.Errorf("%w: need exactly one pkt_rx site to pace the stream, found %d",
			errs.ErrNotServable, rxSites)
	}
	return nil
}

// token carries one in-flight iteration: its context (packet, metadata,
// locals, buffered events) and the live-set slots realized for the next
// cut, exactly as OpSendLS packed them. iter is the packet's source-order
// index (assigned at the head, 0-based), the key every fault-injection
// trigger and fault record is expressed in. degradedAt, when non-zero, is
// the 1-based stage from which processing is short-circuited: stages with
// index >= degradedAt pass the token through without executing it. Under
// sharding, shard is the token's lane (fixed at dispatch by the flow
// hash), and dead marks a tombstone: a quarantined iteration that keeps
// flowing toward its fan-in so the dispatch sequence stays gap-free, then
// is recycled there without ever reaching the trace.
//
// Layout is cache-line aware: the fields every handoff touches — ctx,
// the two live-set buffers, and iter — pack into the first 64 bytes
// (8 + 24 + 24 + 8), so the steady-state handoff path dirties a single
// line; the cold fate flags (degradedAt, shard, dead) trail after it.
// slots and spare ping-pong: a stage reads its live set from slots and
// writes the outgoing set into spare (via RunIterationInto), then the two
// swap, so a handoff is a few word copies into memory the token already
// owns and the hot path allocates nothing after warmup.
type token struct {
	ctx        *interp.IterCtx
	slots      []int64
	spare      []int64
	iter       int64
	degradedAt int32
	shard      int32
	dead       bool
}

// laneCtx identifies one stage replica's execution lane: its indices, its
// probe, its runner, its fault-injector view, and its fault-record buffer.
// Built once per goroutine; everything the hot path touches is one
// indirection away.
type laneCtx struct {
	s      int // 0-based stage index
	j      int // replica (lane) index
	probe  *stageProbe
	run    stageRunner
	inj    *fault.Injector
	recIdx int
	tomb   bool // quarantines become tombstones (sharded segment ends in a fan-in)
}

// engine is the per-Serve state shared by the stage goroutines.
type engine struct {
	ictx     context.Context
	cancel   context.CancelFunc
	cfg      Config
	src      Source
	plan     *shardPlan
	fused    []bool            // cut -> realized by fusion (aligned + requested)
	runners  [][]stageRunner   // stage -> replicas
	rings    [][]chan []*token // cut -> lane rings
	headRing []chan []*token   // dispatcher -> stage-0 replicas (nil without a dispatcher)
	seqs     []*seqStream      // fan-in sequence side-channels
	cols     []*sinkCollector  // per sink replica, when the final segment is sharded
	m        *Metrics
	inj      *fault.Injector
	injs     []*fault.Injector // per-lane injector views; injs[0] is inj
	shardKey func([]byte) uint64

	// live holds the per-replica atomic probes every counter update lands
	// in; recs are the per-lane fault-record buffers (dispatcher last),
	// each owned by its goroutine until the final join.
	live *Live
	recs [][]FaultRecord

	// Observability. timed is true when any instrument needs the extra
	// clock reads around ring operations; tr is the span sink (nil:
	// tracing off); fillHist/waitHist are the per-stage registry
	// histograms (nil entries: metrics off; Observe is atomic, so
	// replicas share their stage's histogram).
	timed    bool
	tr       *obsv.Tracer
	fillHist []*obsv.Histogram
	waitHist []*obsv.Histogram

	tokPool   sync.Pool
	batchPool sync.Pool

	// freeBatches recycles whole retired batches — reset tokens still
	// attached — from the sink replica(s) back to the source in one
	// channel operation per batch, replacing 2×Batch sync.Pool operations
	// with one synchronization on the serve hot path. spare is the
	// source side's current stash (head/dispatcher goroutine only); the
	// pools absorb overflow and the stragglers recycled off the hot path
	// (quarantines, tombstones).
	freeBatches chan []*token
	spare       []*token

	// Trace accumulation. The sink stage's goroutine is the sole writer:
	// events land in fixed-size chunks (traceTail is the one being
	// filled, traceChunks the sealed ones) and are assembled into
	// Metrics.Trace with a single exact-size allocation after the join.
	// Growing one flat slice by append instead costs a realloc-zero-copy
	// cycle per doubling, which at streaming scale dominates the sink.
	// (When the final segment is sharded, each sink replica accumulates
	// into its own sinkCollector instead and the traces are k-way merged
	// after the join.)
	traceChunks [][]interp.Event
	traceTail   []interp.Event

	errOnce  sync.Once
	firstErr error
}

// traceChunkEvents sizes the sink's trace chunks: big enough to amortize
// the per-chunk allocation, small enough to recycle address space quickly.
const traceChunkEvents = 1 << 15

// appendTrace adds one iteration's deferred events to the chunked trace.
// Only the (single) sink goroutine calls it.
func (e *engine) appendTrace(evs []interp.Event) {
	for len(evs) > 0 {
		if cap(e.traceTail) == 0 {
			e.traceTail = make([]interp.Event, 0, traceChunkEvents)
		}
		n := copy(e.traceTail[len(e.traceTail):cap(e.traceTail)], evs)
		e.traceTail = e.traceTail[:len(e.traceTail)+n]
		evs = evs[n:]
		if len(e.traceTail) == cap(e.traceTail) {
			e.traceChunks = append(e.traceChunks, e.traceTail)
			e.traceTail = nil
		}
	}
}

// assembleTrace concatenates the sealed chunks and the tail into one
// exact-size trace slice. Called once, strictly after the stage
// goroutines joined.
func (e *engine) assembleTrace() []interp.Event {
	total := len(e.traceTail)
	for _, c := range e.traceChunks {
		total += len(c)
	}
	if total == 0 {
		return nil
	}
	trace := make([]interp.Event, 0, total)
	for _, c := range e.traceChunks {
		trace = append(trace, c...)
	}
	return append(trace, e.traceTail...)
}

func (e *engine) fail(err error) {
	e.errOnce.Do(func() {
		e.firstErr = err
		e.cancel()
	})
}

// record appends a fault record to lane buffer i, respecting the cap.
// Only the lane's own goroutine calls it, so no lock is needed; the
// buffers are merged into the FaultReport after the final join.
func (e *engine) record(i int, r FaultRecord) {
	if len(e.recs[i]) < maxFaultRecords {
		e.recs[i] = append(e.recs[i], r)
	}
}

// lane builds the execution-lane view of stage s, replica j.
func (e *engine) lane(s, j int) *laneCtx {
	return &laneCtx{
		s:      s,
		j:      j,
		probe:  e.live.probe(s, j),
		run:    e.runners[s][j],
		inj:    e.injs[j],
		recIdx: e.live.offs[s] + j,
		tomb:   e.plan.needTomb[s],
	}
}

// unitEnd returns the last stage of the fused unit starting at stage s:
// the maximal run of stages joined by fused cuts. With no fusion every
// unit is the single stage s.
func (e *engine) unitEnd(s int) int {
	for s < len(e.fused) && e.fused[s] {
		s++
	}
	return s
}

// unitSegs builds the execution-lane views of the unit [s..end] for
// replica j; segs[0] is the receiving segment, segs[len-1] the sending
// one. Fusion requires aligned replica widths across the unit, so one j
// indexes every segment.
func (e *engine) unitSegs(s, end, j int) []*laneCtx {
	segs := make([]*laneCtx, 0, end-s+1)
	for k := s; k <= end; k++ {
		segs = append(segs, e.lane(k, j))
	}
	return segs
}

// effectiveFusion intersects the requested fusion mask with the shard
// plan's aligned cuts: a cut is realized fused only when it was asked for
// and both sides have the same replica width (a scatter or fan-in always
// keeps its junction machinery). The result is defensively sized to the
// pipeline's D-1 cuts whatever length the request had.
func effectiveFusion(req []bool, plan *shardPlan, d int) []bool {
	fused := make([]bool, d-1)
	for k := range fused {
		fused[k] = k < len(req) && req[k] && plan.reps[k] == plan.reps[k+1]
	}
	return fused
}

// unitLabel renders a unit's 1-based stage range for pprof labels:
// "2" for a lone stage, "2+3" for stages 2 and 3 fused.
func unitLabel(s, end int) string {
	if s == end {
		return strconv.Itoa(s + 1)
	}
	return strconv.Itoa(s+1) + "+" + strconv.Itoa(end+1)
}

// AlignedCuts reports, for the given stage list under the given shard
// width, which cuts join stages of equal replica width — the cuts fusion
// may realize. Callers that plan fusion (the repro layer's cost-model
// pass) intersect their wish list with this so the reported plan matches
// what Serve will actually fuse; Serve itself re-derives the same mask.
func AlignedCuts(stages []*ir.Program, shards int, explicitKey bool) []bool {
	shapes := classifyStages(stages)
	plan := newShardPlan(shapes, max(shards, 1), explicitKey)
	aligned := make([]bool, len(stages)-1)
	for k := range aligned {
		aligned[k] = plan.reps[k] == plan.reps[k+1]
	}
	return aligned
}

// runSegs drives a batch through the trailing segments of a fused unit,
// stage-major: the whole batch runs through segs[i] before segs[i+1], so
// each stage's busy time, counters, and fault attribution stay exact even
// though no ring separates them. The handoff between segments is the
// token's own slot buffer — zero synchronization, zero copies beyond the
// words OpSendLS packs. Each interior handoff settles the predecessor's
// out counter here (the last segment's out is counted at the ring put or
// retire, exactly as unfused). Quarantined tokens compact out of the
// batch; degraded and tombstoned tokens pass through. Returns false when
// a fatal error aborted the run.
func (e *engine) runSegs(segs []*laneCtx, b *[]*token) bool {
	for i := 1; i < len(segs); i++ {
		lc := segs[i]
		bb := *b
		if len(bb) == 0 {
			return true
		}
		segs[i-1].probe.out.Add(int64(len(bb)))
		lc.probe.in.Add(int64(len(bb)))
		s := lc.s
		firstIter := bb[0].iter
		n := len(bb)
		t0 := time.Now()
		keep := bb[:0]
		for _, t := range bb {
			if t.dead || (t.degradedAt > 0 && s+1 >= int(t.degradedAt)) {
				keep = append(keep, t)
				continue
			}
			switch e.runToken(lc, t) {
			case tokOK, tokDead:
				keep = append(keep, t)
			case tokQuarantined:
			case tokFatal:
				lc.probe.busyNs.Add(int64(time.Since(t0)))
				return false
			}
		}
		*b = keep
		busy := time.Since(t0)
		lc.probe.busyNs.Add(int64(busy))
		if e.timed {
			e.span(s+1, firstIter, n, obsv.PhaseExec, t0, busy)
			e.fillHist[s].Observe(int64(n))
		}
	}
	return true
}

func (e *engine) getToken() *token {
	t := e.tokPool.Get().(*token)
	t.ctx.DeferEvents = true
	return t
}

// takeToken is the source side's token allocator: it prefers the batches
// recycled whole through the free list and falls back to the pool. Only
// the head/dispatcher goroutine calls it.
func (e *engine) takeToken() *token {
	if len(e.spare) == 0 {
		select {
		case e.spare = <-e.freeBatches:
		default:
		}
		if len(e.spare) == 0 {
			return e.getToken()
		}
	}
	n := len(e.spare) - 1
	t := e.spare[n]
	e.spare[n] = nil
	e.spare = e.spare[:n]
	if n == 0 {
		e.putBatch(e.spare)
		e.spare = nil
	}
	t.ctx.DeferEvents = true
	return t
}

// reset returns the token to its pristine state for pool reuse. All
// per-iteration state lives either here or in the IterCtx, whose Reset
// zeroes the local-array storage in place — a recycled token can never
// leak a prior packet's locals, metadata, or deferred events. The live-set
// buffers are truncated, not dropped: their capacity is the zero-copy
// handoff's working memory, and their stale words are unreachable (OpRecvLS
// reads only the length OpSendLS wrote this iteration).
func (t *token) reset() {
	t.ctx.Reset()
	t.slots = t.slots[:0]
	t.spare = t.spare[:0]
	t.iter = 0
	t.degradedAt = 0
	t.shard = 0
	t.dead = false
}

func (e *engine) putToken(t *token) {
	t.reset()
	e.tokPool.Put(t)
}

func (e *engine) getBatch() []*token {
	return e.batchPool.Get().([]*token)[:0]
}

func (e *engine) putBatch(b []*token) {
	e.batchPool.Put(b[:0]) //nolint:staticcheck // slices are pooled by header
}

// recycleBatch resets a retired batch's tokens in place and hands the
// whole batch back to the source through the free list — one ring
// operation instead of per-token pool traffic. Overflow (or a full
// freelist) falls back to the pools. Only the sink goroutine(s) call it.
func (e *engine) recycleBatch(b []*token) {
	if len(b) == 0 {
		e.putBatch(b)
		return
	}
	for _, t := range b {
		t.reset()
	}
	if trySend(e.freeBatches, b) {
		return
	}
	for _, t := range b {
		e.tokPool.Put(t)
	}
	e.putBatch(b)
}

// span records one phase interval when tracing is enabled.
func (e *engine) span(stage int, iter int64, n int, phase obsv.Phase, start time.Time, dur time.Duration) {
	if e.tr == nil {
		return
	}
	e.tr.Record(obsv.Span{
		Stage: stage, Iter: iter, N: n, Phase: phase,
		Start: start.Sub(e.live.start), Dur: dur,
	})
}

// outPort is a stage replica's outbound side: either one ring (aligned
// junction, or this replica's private lane into a fan-in) or a scatterer
// (1 -> P junction).
type outPort struct {
	ring chan []*token
	sc   *scatterer
}

// outFor wires the outbound port of lc's stage replica; nil at the sink.
func (e *engine) outFor(lc *laneCtx) *outPort {
	s := lc.s
	if s == len(e.runners)-1 {
		return nil
	}
	if e.plan.reps[s+1] > e.plan.reps[s] { // scatter
		var sq *seqStream
		if e.plan.seqFor[s] >= 0 {
			sq = e.seqs[e.plan.seqFor[s]]
		}
		return &outPort{sc: newScatterer(e.rings[s], sq)}
	}
	return &outPort{ring: e.rings[s][lc.j]}
}

// send forwards a batch through the port with the transmit-phase
// instrumentation. It returns false when the run was canceled mid-wait.
func (o *outPort) send(e *engine, b []*token, lc *laneCtx) bool {
	if !e.timed {
		if o.sc != nil {
			return o.sc.send(e, b, lc)
		}
		return e.sendRing(o.ring, b, lc)
	}
	// Capture before sending: a shed batch is recycled inside.
	iter, n := b[0].iter, len(b)
	start := time.Now()
	var ok bool
	if o.sc != nil {
		ok = o.sc.send(e, b, lc)
	} else {
		ok = e.sendRing(o.ring, b, lc)
	}
	e.span(lc.s+1, iter, n, obsv.PhaseTx, start, time.Since(start))
	return ok
}

// close relinquishes the port: the producer owns its ring(s), so ring
// closure is the end-of-stream signal downstream.
func (o *outPort) close() {
	if o.sc != nil {
		o.sc.close()
		return
	}
	close(o.ring)
}

// trySend is the non-blocking ring put; on success the batch (and its
// accounting) belongs to the consumer.
func (e *engine) trySend(out chan []*token, b []*token, p *stageProbe) bool {
	if trySend(out, b) {
		p.out.Add(int64(len(b)))
		return true
	}
	return false
}

// sendRing forwards a batch on out, counting a stall when the ring is
// full. Under OverloadBlock it waits for space (backpressure); under a
// shedding policy it re-probes the saturated ring for Watermark ticks and
// then engages the policy — dropping the batch (Shed) or marking it
// degraded and forwarding it for pass-through delivery (Degrade). It
// returns false when the run was canceled mid-wait.
func (e *engine) sendRing(out chan []*token, b []*token, lc *laneCtx) bool {
	p := lc.probe
	if e.inj != nil {
		lc.inj.BeforeSend(e.ictx, lc.s+1, b[0].iter)
	}
	if e.trySend(out, b, p) {
		return true
	}
	p.stalls.Add(1)
	if e.cfg.Overload == OverloadBlock {
		if !sendWait(out, b, e.ictx.Done(), &p.txWait) {
			return false
		}
		p.out.Add(int64(len(b)))
		return true
	}
	for probe := 0; probe < e.cfg.Watermark; probe++ {
		sent, canceled := sendTick(out, b, e.ictx.Done(), &p.txWait)
		if sent {
			p.out.Add(int64(len(b)))
			return true
		}
		if canceled {
			return false
		}
	}
	// The ring stayed saturated past the watermark: engage the policy.
	switch e.cfg.Overload {
	case OverloadShed:
		n := int64(len(b))
		for _, t := range b {
			e.record(lc.recIdx, FaultRecord{Iter: t.iter, Stage: lc.s + 1, Disposition: "shed", Reason: "ring saturated past watermark"})
			e.putToken(t)
		}
		p.shed.Add(n)
		e.putBatch(b)
		e.inj.NoteOverload(n)
		return true
	default: // OverloadDegrade
		var n int64
		for _, t := range b {
			if t.degradedAt == 0 && !t.dead {
				t.degradedAt = int32(lc.s + 2)
				e.record(lc.recIdx, FaultRecord{Iter: t.iter, Stage: lc.s + 1, Disposition: "degraded", Reason: "ring saturated past watermark"})
				n++
			}
		}
		p.degraded.Add(n)
		// Release overload gates before the blocking put: a chaos schedule
		// may hold the consumer until this degradation is observed.
		e.inj.NoteOverload(n)
		if !sendWait(out, b, e.ictx.Done(), &p.txWait) {
			return false
		}
		p.out.Add(int64(len(b)))
		return true
	}
}

// tokOutcome is the fate of one iteration at one stage.
type tokOutcome uint8

const (
	tokOK          tokOutcome = iota // executed; token continues
	tokQuarantined                   // removed from the pipeline, recorded
	tokDead                          // quarantined but forwarded as a tombstone (fan-in upstream)
	tokFatal                         // unrecoverable runtime error; abort the serve
)

// runToken executes one iteration at lc's stage with the full recovery
// machinery: injected faults, panic recovery, the per-stage deadline, and
// bounded retry with exponential backoff for transient faults.
// Quarantined tokens are recorded and recycled — or, inside a sharded
// segment that ends in a fan-in, tombstoned and forwarded so the dispatch
// sequence stays gap-free; their buffered events never reach the trace
// either way.
func (e *engine) runToken(lc *laneCtx, t *token) tokOutcome {
	backoff := e.cfg.RetryBackoff
	for attempt := 0; ; attempt++ {
		err := e.execOnce(lc, t)
		if err == nil {
			return tokOK
		}
		var fatal *fatalError
		if errors.As(err, &fatal) {
			e.fail(fmt.Errorf("stage %d: %w", lc.s+1, fatal.err))
			e.putToken(t)
			return tokFatal
		}
		if errors.Is(err, errs.ErrTransientFault) && attempt < e.cfg.Retry {
			lc.probe.retries.Add(1)
			if backoff > 0 {
				sleepCtx(e.ictx, backoff)
				backoff *= 2
			}
			continue
		}
		lc.probe.quarantined.Add(1)
		e.record(lc.recIdx, FaultRecord{Iter: t.iter, Stage: lc.s + 1, Disposition: "quarantined", Reason: err.Error()})
		if lc.tomb {
			t.dead = true
			return tokDead
		}
		e.putToken(t)
		return tokQuarantined
	}
}

// fatalError wraps interpreter errors that must abort the whole serve (a
// malformed stage program, a step-limit blowout) rather than quarantine
// one packet; runToken unwraps it for the engine's first-error slot.
type fatalError struct{ err error }

func (f *fatalError) Error() string { return f.err.Error() }
func (f *fatalError) Unwrap() error { return f.err }

// execOnce is one execution attempt: fault hooks, the stage body, and the
// deadline check, under a recover that converts any panic — injected or
// genuine — into a quarantinable errs.ErrStagePanic.
func (e *engine) execOnce(lc *laneCtx, t *token) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%w: %v", errs.ErrStagePanic, r)
		}
	}()
	var start time.Time
	deadline := e.cfg.StageDeadline
	if deadline > 0 {
		start = time.Now()
	}
	if e.inj != nil {
		if ferr := lc.inj.BeforeStage(e.ictx, lc.s+1, t.iter); ferr != nil {
			return ferr
		}
		if deadline > 0 && time.Since(start) > deadline {
			// The injected stall alone blew the deadline: quarantine before
			// the body runs, leaving persistent state untouched.
			return fmt.Errorf("%w: stage %d stalled past the %v deadline",
				errs.ErrStageDeadline, lc.s+1, deadline)
		}
	}
	// Zero-copy handoff: the stage reads its live set from t.slots and
	// writes the outgoing one into t.spare, then the buffers ping-pong.
	// The two are always distinct arrays, so OpSendLS/OpRecvLS execution
	// order inside the stage body cannot alias them; after warmup both
	// have capacity for the widest cut and no handoff allocates.
	sent, rerr := lc.run.RunIterationInto(t.ctx, t.slots, t.spare)
	if rerr != nil {
		return &fatalError{err: rerr}
	}
	if sent != nil {
		t.spare = t.slots
		t.slots = sent
	} else {
		t.slots = t.slots[:0]
	}
	if deadline > 0 && time.Since(start) > deadline {
		return fmt.Errorf("%w: stage %d exceeded the %v deadline", errs.ErrStageDeadline, lc.s+1, deadline)
	}
	return nil
}

// sleepCtx sleeps for d or until the run is canceled.
func sleepCtx(ctx context.Context, d time.Duration) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
	case <-t.C:
	}
}

// retire merges a finished batch's events into the trace in iteration
// order and recycles the whole batch. Only the (single) sink goroutine
// calls it, so the trace append is single-writer.
func (e *engine) retire(b []*token, lc *laneCtx) {
	var alive int64
	for _, t := range b {
		if t.dead {
			continue
		}
		e.appendTrace(t.ctx.Events)
		alive++
	}
	e.live.packets.Add(alive)
	lc.probe.out.Add(alive)
	e.recycleBatch(b)
}

// retireSharded is retire for one replica of a sharded sink: events land
// in the replica's own collector, keyed by iteration, for the post-join
// k-way merge.
func (e *engine) retireSharded(b []*token, col *sinkCollector, lc *laneCtx) {
	var alive int64
	for _, t := range b {
		if t.dead {
			continue
		}
		col.add(t.iter, t.ctx.Events)
		alive++
	}
	e.live.packets.Add(alive)
	lc.probe.out.Add(alive)
	e.recycleBatch(b)
}

// head is the stage-1 goroutine of an undispatched run (stage 0
// unreplicated): it paces the pipeline by pulling one packet per iteration
// from the Source, executes the first stage — plus any stages fused onto
// it, via runSegs — and forwards batches downstream (or retires them
// directly when the unit reaches the sink). Poisoned packets are
// quarantined here, before a token is even built; the head's In counter
// tallies every packet pulled from the source, which is the total the
// FaultReport accounting is reconciled against. When a later cut scatters,
// the head also stamps each token's lane from the flow hash.
func (e *engine) head(segs []*laneCtx) {
	lc := segs[0]
	tail := segs[len(segs)-1]
	p := lc.probe
	out := e.outFor(tail)
	if out != nil {
		defer out.close()
	}
	sharded := e.plan.sharded()
	var iter int64
	for {
		select {
		case <-e.ictx.Done():
			return
		default:
		}
		// Pull and execute up to one batch of iterations.
		b := e.getBatch()
		srcDone := false
		firstIter := iter
		t0 := time.Now()
		for len(b) < e.cfg.Batch {
			pkt, ok := e.src.Next()
			if !ok {
				srcDone = true
				break
			}
			i := iter
			iter++
			p.in.Add(1)
			if e.inj != nil {
				if bad, poisoned := e.inj.AtSource(i, pkt); poisoned {
					p.quarantined.Add(1)
					e.record(lc.recIdx, FaultRecord{Iter: i, Stage: 1, Disposition: "quarantined",
						Reason: fmt.Sprintf("%v: %d malformed bytes at source", errs.ErrPoisonPacket, len(bad))})
					continue
				}
			}
			t := e.takeToken()
			t.iter = i
			t.ctx.Pending, t.ctx.HasPending = pkt, true
			if sharded {
				// Before the stage body: it may rewrite packet bytes.
				t.shard = int32(shardOf(e.shardKey(pkt), e.plan.p))
			}
			switch e.runToken(lc, t) {
			case tokOK:
				b = append(b, t)
			case tokQuarantined, tokDead:
				// tomb is never set at an unreplicated head (needTomb
				// covers replicated stages only), so tokDead is unreachable
				// here; quarantines just drop.
				continue
			case tokFatal:
				p.busyNs.Add(int64(time.Since(t0)))
				return
			}
		}
		busy := time.Since(t0)
		p.busyNs.Add(int64(busy))
		if len(b) > 0 {
			if e.timed {
				e.span(1, firstIter, len(b), obsv.PhaseExec, t0, busy)
				e.fillHist[0].Observe(int64(len(b)))
			}
			if !e.runSegs(segs, &b) {
				return
			}
		}
		if len(b) > 0 {
			if out == nil {
				e.retire(b, tail)
			} else if !out.send(e, b, tail) {
				return
			}
		} else {
			e.putBatch(b)
		}
		if srcDone {
			return
		}
	}
}

// dispatch is the source goroutine of a run whose first stage is
// replicated: it pulls packets, assigns iteration indices, quarantines
// poisons, stamps each token's lane from the flow hash, and forwards
// per-lane batches into the head rings — recording the lane sequence for
// the paired fan-in when one exists. It is lossless (pure backpressure):
// the overload policies act at the inter-stage rings.
func (e *engine) dispatch() {
	lc := e.dispLane()
	p := lc.probe
	P := e.plan.reps[0]
	var sq *seqStream
	if e.plan.dispSeq >= 0 {
		sq = e.seqs[e.plan.dispSeq]
	}
	pend := make([][]*token, P)
	for j := range pend {
		pend[j] = e.getBatch()
	}
	var iter int64
loop:
	for {
		select {
		case <-e.ictx.Done():
			break loop
		default:
		}
		pkt, ok := e.src.Next()
		if !ok {
			// Source drained: flush the partial lane batches in one last
			// sequenced round.
			if sq != nil {
				sq.flush()
			}
			for j := range pend {
				if len(pend[j]) == 0 {
					e.putBatch(pend[j])
					continue
				}
				if !e.dispFlush(pend, j, p) {
					break loop
				}
				pend[j] = nil
			}
			break loop
		}
		i := iter
		iter++
		p.in.Add(1)
		if e.inj != nil {
			if bad, poisoned := e.inj.AtSource(i, pkt); poisoned {
				// Dropped before sequencing, so no tombstone is needed.
				p.quarantined.Add(1)
				e.record(lc.recIdx, FaultRecord{Iter: i, Stage: 1, Disposition: "quarantined",
					Reason: fmt.Sprintf("%v: %d malformed bytes at source", errs.ErrPoisonPacket, len(bad))})
				continue
			}
		}
		t := e.takeToken()
		t.iter = i
		t.ctx.Pending, t.ctx.HasPending = pkt, true
		lane := shardOf(e.shardKey(pkt), P)
		t.shard = int32(lane)
		if sq != nil {
			sq.add(lane)
		}
		pend[lane] = append(pend[lane], t)
		if len(pend[lane]) >= e.cfg.Batch {
			if sq != nil {
				sq.flush()
			}
			if !e.dispFlush(pend, lane, p) {
				break loop
			}
			pend[lane] = e.getBatch()
		}
	}
	for _, r := range e.headRing {
		close(r)
	}
	if sq != nil {
		sq.close()
	}
}

// dispLane is the dispatcher's lane view: the extra probe and record
// buffer past the per-replica ones. It never executes a stage body.
func (e *engine) dispLane() *laneCtx {
	return &laneCtx{s: 0, probe: e.live.disp, inj: e.inj, recIdx: len(e.live.probes)}
}

// dispFlush delivers pend[lane] into its head ring. When the ring is
// full, it repeatedly try-flushes every other pending lane while waiting:
// the fan-in downstream consumes lanes in dispatch order, so a starved
// lane's partial batch must be able to leave even while the dispatcher is
// parked on a saturated one — the cross-lane deadlock guard.
func (e *engine) dispFlush(pend [][]*token, lane int, p *stageProbe) bool {
	if e.trySend(e.headRing[lane], pend[lane], p) {
		return true
	}
	p.stalls.Add(1)
	for {
		for j := range pend {
			if j == lane || len(pend[j]) == 0 {
				continue
			}
			if e.trySend(e.headRing[j], pend[j], p) {
				pend[j] = e.getBatch()
			}
		}
		sent, canceled := sendTick(e.headRing[lane], pend[lane], e.ictx.Done(), &p.txWait)
		if sent {
			p.out.Add(int64(len(pend[lane])))
			return true
		}
		if canceled {
			return false
		}
	}
}

// stageLoop is the goroutine of one replica of a non-source unit (and of
// the source unit's replicas, fed by the dispatcher): receive a batch —
// from the head ring, the private lane ring, or the fan-in merger — run
// each live iteration with the live-set slots its predecessor packed,
// drive it through any stages fused onto this one (runSegs), and forward
// (or retire, at the sink). Degraded and tombstoned tokens pass through
// without executing; quarantined tokens are compacted out of the batch
// (or tombstoned, when a fan-in is downstream).
func (e *engine) stageLoop(segs []*laneCtx) {
	lc := segs[0]
	tail := segs[len(segs)-1]
	s := lc.s
	p := lc.probe
	var in chan []*token
	var mg *merger
	switch {
	case s == 0:
		in = e.headRing[lc.j]
	case e.plan.faninSeq[s-1] >= 0:
		mg = e.newMerger(s-1, lc)
	default:
		in = e.rings[s-1][lc.j]
	}
	out := e.outFor(tail)
	if out != nil {
		defer out.close()
	}
	var col *sinkCollector
	if out == nil && e.cols != nil {
		col = e.cols[tail.j]
	}
	for {
		var wStart time.Time
		if e.timed {
			wStart = time.Now()
		}
		var b []*token
		last := false
		if mg != nil {
			var more bool
			b, more = mg.nextBatch(e.cfg.Batch)
			last = !more
		} else {
			var ok bool
			b, ok = recv(in, e.ictx.Done(), &p.rxWait)
			if !ok {
				return
			}
			p.occSum.Add(int64(len(in)))
			p.occSamples.Add(1)
		}
		if len(b) == 0 {
			e.putBatch(b)
			if last {
				return
			}
			continue
		}
		if e.timed {
			wait := time.Since(wStart)
			e.span(s+1, b[0].iter, len(b), obsv.PhaseWait, wStart, wait)
			if h := e.waitHist[s]; h != nil {
				h.Observe(wait.Microseconds())
			}
			e.fillHist[s].Observe(int64(len(b)))
		}
		p.in.Add(int64(len(b)))
		firstIter := b[0].iter
		n := len(b)
		t0 := time.Now()
		keep := b[:0]
		for _, t := range b {
			if t.dead || (t.degradedAt > 0 && s+1 >= int(t.degradedAt)) {
				keep = append(keep, t)
				continue
			}
			switch e.runToken(lc, t) {
			case tokOK, tokDead:
				keep = append(keep, t)
			case tokQuarantined:
			case tokFatal:
				p.busyNs.Add(int64(time.Since(t0)))
				return
			}
		}
		b = keep
		busy := time.Since(t0)
		p.busyNs.Add(int64(busy))
		if e.timed {
			e.span(s+1, firstIter, n, obsv.PhaseExec, t0, busy)
		}
		if !e.runSegs(segs, &b) {
			return
		}
		switch {
		case len(b) == 0:
			e.putBatch(b)
		case out != nil:
			if !out.send(e, b, tail) {
				return
			}
		case col != nil:
			e.retireSharded(b, col, tail)
		default:
			e.retire(b, tail)
		}
		if last {
			return
		}
	}
}

// histogram bucket bounds the registry mirror uses: batch fill in
// iterations, ring wait in microseconds.
var (
	fillBounds = []int64{1, 2, 4, 8, 16, 32, 64, 128}
	waitBounds = []int64{1, 10, 100, 1_000, 10_000, 100_000}
)

// wireObservability prepares the engine's instrument fields from the
// config: the tracer (reset to this run's origin), the registry mirror
// (computed gauges over the live probes — aggregated across a stage's
// replicas — plus histograms for batch fill and ring wait), and the timed
// flag that gates the extra clock reads.
func (e *engine) wireObservability(d int) {
	obs := e.cfg.Obs
	e.fillHist = make([]*obsv.Histogram, d)
	e.waitHist = make([]*obsv.Histogram, d)
	if !obs.Tracing() && !obs.Metrics() {
		return
	}
	e.timed = true
	if obs.Tracing() {
		e.tr = obs.Tracer
		e.tr.Reset(e.live.start)
	}
	if !obs.Metrics() {
		return
	}
	reg := obs.Registry
	l := e.live
	reg.Func("pipeline.stages", func() int64 { return int64(len(l.reps)) })
	reg.Func("pipeline.shards", func() int64 { return int64(l.shards) })
	reg.Func("pipeline.packets", l.packets.Load)
	reg.Func("pipeline.elapsed_ns", func() int64 { return int64(l.Snapshot().Elapsed) })
	if ing := e.cfg.Ingest; ing != nil {
		reg.Func("ingest.rx_packets", func() int64 { return ing().RxPackets })
		reg.Func("ingest.rx_bytes", func() int64 { return ing().RxBytes })
		reg.Func("ingest.drops", func() int64 { return ing().Drops })
		reg.Func("ingest.decode_errors", func() int64 { return ing().DecodeErrors })
	}
	for k := 0; k < d; k++ {
		k := k
		prefix := "pipeline.stage" + strconv.Itoa(k+1) + "."
		reg.Func(prefix+"in", func() int64 { return l.stageStats(k).In })
		reg.Func(prefix+"out", func() int64 { return l.stageStats(k).Out })
		reg.Func(prefix+"stalls", func() int64 { return l.stageStats(k).Stalls })
		reg.Func(prefix+"shed", func() int64 { return l.stageStats(k).Shed })
		reg.Func(prefix+"degraded", func() int64 { return l.stageStats(k).Degraded })
		reg.Func(prefix+"quarantined", func() int64 { return l.stageStats(k).Quarantined })
		reg.Func(prefix+"retries", func() int64 { return l.stageStats(k).Retries })
		reg.Func(prefix+"busy_ns", func() int64 { return int64(l.stageStats(k).Busy) })
		reg.Func(prefix+"parks", func() int64 { return l.stageStats(k).Parks })
		reg.Func(prefix+"park_ns", func() int64 { return int64(l.stageStats(k).ParkWait) })
		reg.Func(prefix+"ring_occ_milli", func() int64 {
			st := l.stageStats(k)
			if st.occSamples == 0 {
				return 0
			}
			return st.occSum * 1000 / st.occSamples
		})
		e.fillHist[k] = reg.Histogram(prefix+"batch_fill", fillBounds)
		if k > 0 {
			e.waitHist[k] = reg.Histogram(prefix+"ring_wait_us", waitBounds)
		}
	}
}

// logLoop emits one progress line per interval until stop closes; Serve
// runs it only when the Observer asks for periodic logging, and joins it
// before returning so no logger goroutine outlives the run.
func (e *engine) logLoop(stop <-chan struct{}) {
	logf := e.cfg.Obs.Logf
	if logf == nil {
		logf = log.Printf
	}
	tick := time.NewTicker(e.cfg.Obs.LogEvery)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
			logf("%s", e.live.Snapshot().Line())
		}
	}
}

// Serve runs the partitioned stages concurrently — one goroutine per
// stage replica, bounded rings between neighbors — against the packet
// stream of src, with world supplying route tables and persistent state.
// It returns when the source is exhausted and the pipeline has drained,
// or when ctx is canceled (in-flight iterations are then discarded; the
// returned error is the context's).
//
// With cfg.Shards = P > 1, stages without cross-flow state run as P
// replicas fed by a flow-hash dispatcher; stages with cross-flow state
// run unsharded behind a deterministic fan-in. The returned Metrics hold
// the merged observable trace in exact sequential-oracle order plus
// per-stage counters aggregated across replicas. On normal completion the
// trace is also appended to world.Trace, matching the convention of the
// oracle paths.
//
// Each goroutine runs under a pprof label ("stage" = its 1-based index,
// plus "lane" for replicas), so CPU profiles attribute samples per stage;
// cfg.Obs attaches the rest of the observability layer and cfg.OnLive
// exposes the live counter probes for mid-run snapshots.
func Serve(ctx context.Context, stages []*ir.Program, world *interp.World, src Source, cfg Config) (*Metrics, error) {
	if err := Validate(stages); err != nil {
		return nil, err
	}
	if world == nil {
		return nil, errs.ErrNilWorld
	}
	if src == nil {
		return nil, errs.ErrNilSource
	}
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()

	D := len(stages)
	if err := cfg.Faults.Validate(D); err != nil {
		return nil, err
	}
	shapes := classifyStages(stages)
	plan := newShardPlan(shapes, cfg.Shards, cfg.ShardKey != nil)
	if plan.hasFanin() && cfg.Overload == OverloadShed {
		return nil, fmt.Errorf("%w: the shed policy cannot drop tokens upstream of a sharded fan-in; use block or degrade, or serve unsharded",
			errs.ErrConflictingOptions)
	}
	runners := newShardRunners(cfg.Backend, stages, world, plan, shapes, cfg.Store)

	ictx, cancel := context.WithCancel(ctx)
	defer cancel()
	if b, ok := src.(ContextBinder); ok {
		// I/O-backed sources block in reads; binding the run's internal
		// context lets cancelation (external or error teardown) unblock
		// them instead of stranding the head goroutine in a syscall.
		b.BindContext(ictx)
	}
	start := time.Now()
	hasDisp := plan.reps[0] > 1
	key := cfg.ShardKey
	if key == nil {
		key = DefaultShardKey
	}
	e := &engine{
		ictx:     ictx,
		cancel:   cancel,
		cfg:      cfg,
		src:      src,
		plan:     plan,
		fused:    effectiveFusion(cfg.FuseCuts, plan, D),
		runners:  runners,
		rings:    make([][]chan []*token, D-1),
		m:        &Metrics{},
		inj:      fault.NewInjector(cfg.Faults, D),
		shardKey: key,
		live:     newLive(plan.reps, hasDisp, plan.width(), start),
	}
	e.live.ingest = cfg.Ingest
	e.recs = make([][]FaultRecord, len(e.live.probes)+1)
	e.injs = make([]*fault.Injector, plan.width())
	e.injs[0] = e.inj
	for j := 1; j < len(e.injs); j++ {
		e.injs[j] = e.inj.Lane()
	}
	e.wireObservability(D)
	e.tokPool.New = func() any { return &token{ctx: interp.NewIterCtx()} }
	e.batchPool.New = func() any { return make([]*token, 0, cfg.Batch) }
	// The free list holds every batch that can be in flight at once — a
	// full ring per lane plus the batch each end of it holds — so steady
	// state never spills recycled batches to the pools.
	e.freeBatches = make(chan []*token, 4+plan.width()*(cfg.RingCapacity+2))
	for k := range e.rings {
		if e.fused[k] {
			// A fused cut has no ring: its stages share a goroutine and
			// hand the live set over inside the token.
			continue
		}
		e.rings[k] = make([]chan []*token, plan.lanes(k))
		for j := range e.rings[k] {
			e.rings[k][j] = make(chan []*token, cfg.RingCapacity)
		}
	}
	if hasDisp {
		e.headRing = make([]chan []*token, plan.reps[0])
		for j := range e.headRing {
			e.headRing[j] = make(chan []*token, cfg.RingCapacity)
		}
	}
	e.seqs = make([]*seqStream, plan.nSeqs)
	for i := range e.seqs {
		e.seqs[i] = newSeqStream()
	}
	if plan.reps[D-1] > 1 {
		e.cols = make([]*sinkCollector, plan.reps[D-1])
		for j := range e.cols {
			e.cols[j] = &sinkCollector{}
		}
	}
	if cfg.OnLive != nil {
		cfg.OnLive(e.live)
	}

	var logWg sync.WaitGroup
	var logStop chan struct{}
	if cfg.Obs != nil && cfg.Obs.LogEvery > 0 {
		logStop = make(chan struct{})
		logWg.Add(1)
		go func() {
			defer logWg.Done()
			e.logLoop(logStop)
		}()
	}

	var wg sync.WaitGroup
	if hasDisp {
		wg.Add(1)
		go func() {
			defer wg.Done()
			pprof.Do(ictx, pprof.Labels("stage", "dispatch"), func(context.Context) { e.dispatch() })
		}()
	}
	// One goroutine per *unit* replica: a unit is a maximal run of stages
	// joined by fused cuts (a single stage when nothing fuses).
	for s := 0; s < D; {
		end := e.unitEnd(s)
		if s == 0 && !hasDisp {
			wg.Add(1)
			segs := e.unitSegs(0, end, 0)
			go func() {
				defer wg.Done()
				pprof.Do(ictx, pprof.Labels("stage", unitLabel(0, end)), func(context.Context) { e.head(segs) })
			}()
			s = end + 1
			continue
		}
		for j := 0; j < plan.reps[s]; j++ {
			segs := e.unitSegs(s, end, j)
			lbl := pprof.Labels("stage", unitLabel(s, end))
			if plan.reps[s] > 1 {
				lbl = pprof.Labels("stage", unitLabel(s, end), "lane", strconv.Itoa(j))
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				pprof.Do(ictx, lbl, func(context.Context) { e.stageLoop(segs) })
			}()
		}
		s = end + 1
	}
	wg.Wait()
	elapsed := time.Since(start)
	e.live.finish(elapsed)
	if logStop != nil {
		close(logStop)
		logWg.Wait()
	}

	// Freeze the final Metrics from the probes, then reconcile the fault
	// ledger (both happen strictly after the stage goroutines joined).
	if e.cols != nil {
		e.m.Trace = mergeShardTraces(e.cols)
	} else {
		e.m.Trace = e.assembleTrace()
	}
	e.m.Elapsed = elapsed
	e.m.Packets = e.live.packets.Load()
	e.m.Shards = plan.width()
	e.m.Stages = make([]StageStats, D)
	for k := range e.m.Stages {
		e.m.Stages[k] = e.live.stageStats(k)
	}
	e.m.Faults = e.faultReport()
	if cfg.Ingest != nil {
		v := cfg.Ingest()
		e.m.Ingest = &v
	}

	if e.firstErr != nil {
		return nil, e.firstErr
	}
	if err := ctx.Err(); err != nil {
		return e.m, err
	}
	// Publish the run's trace under the oracle-path convention. An empty
	// world trace (the overwhelmingly common case) adopts the metrics
	// trace directly instead of copying it: at streaming scale the trace
	// is the largest allocation of the whole run, and duplicating it costs
	// more wall-clock than several stages' worth of execution. The full
	// slice expression pins capacity so a later append to either alias
	// reallocates rather than clobbering the other.
	if len(world.Trace) == 0 {
		world.Trace = e.m.Trace[:len(e.m.Trace):len(e.m.Trace)]
	} else {
		world.Trace = append(world.Trace, e.m.Trace...)
	}
	return e.m, nil
}

// newShardRunners builds the per-replica stage runners on the selected
// backend. All replicas share one fully-materialized persistent store —
// except the flow-keyed arrays of replicated stages, which each replica
// forks so its partition of the table is private (shard.go explains when
// that is sound). A caller-supplied store (Config.Store) is used in place
// of a fresh one so state survives across Serve rounds; the current stage
// programs' arrays are materialized into it up front, preserving the
// read-only-on-hot-path invariant. Every runner is confined to the
// iteration context's pre-pulled packet (RxFromCtx), so concurrent
// replicas never race on the World's packet cursor.
func newShardRunners(b Backend, stages []*ir.Program, world *interp.World, plan *shardPlan, shapes []stageShape, base *interp.Store) [][]stageRunner {
	if base == nil {
		base = interp.NewStore(stages...)
	} else {
		base.Materialize(stages...)
	}
	out := make([][]stageRunner, len(stages))
	for s, prog := range stages {
		out[s] = make([]stageRunner, plan.reps[s])
		for j := range out[s] {
			store := base
			if plan.reps[s] > 1 && len(shapes[s].flowArrs) > 0 {
				store = base.Fork(shapes[s].flowArrs)
			}
			if b == BackendInterp {
				r := interp.NewRunnerShared(prog, world, store)
				r.RxFromCtx = true
				out[s][j] = r
			} else {
				r := exec.NewRunnerShared(prog, world, store)
				r.RxFromCtx = true
				out[s][j] = r
			}
		}
	}
	return out
}

// faultReport flushes the per-lane quarantine/shed accounting into one
// report, after the final join — the drain path runs it on cancellation
// too, so partially-served runs still account for every fault they took.
func (e *engine) faultReport() *FaultReport {
	rep := &FaultReport{Delivered: e.m.Packets}
	for k := range e.m.Stages {
		s := &e.m.Stages[k]
		rep.Degraded += s.Degraded
		rep.Shed += s.Shed
		rep.Quarantined += s.Quarantined
		rep.Retries += s.Retries
	}
	for i := range e.recs {
		rep.Records = append(rep.Records, e.recs[i]...)
	}
	sort.Slice(rep.Records, func(i, j int) bool {
		a, b := rep.Records[i], rep.Records[j]
		if a.Iter != b.Iter {
			return a.Iter < b.Iter
		}
		return a.Stage < b.Stage
	})
	return rep
}
