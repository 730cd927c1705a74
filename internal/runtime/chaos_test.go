package runtime_test

import (
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/netbench"
	"repro/internal/runtime"
	"repro/internal/runtime/fault"
)

// The chaos suite drives the serve runtime through deterministic fault
// schedules and asserts exact loss accounting: every packet pulled from the
// source is delivered, shed, or quarantined — and the packets that survive
// still produce a trace byte-identical to the sequential oracle.
//
// Determinism discipline: quarantining faults (poison, panic, transient,
// deadline) are keyed on iteration indices, so their outcomes are exact at
// any interleaving. Overload faults are made exact with a gate — a stalled
// consumer that provably consumes nothing until the producer has finished
// shedding — plus a paced head, so ring occupancy is a function of the
// schedule, not the scheduler.

// partitionIPv4 compiles the IPv4 benchmark and partitions it at degree d.
func partitionIPv4(t *testing.T, d int) (*ir.Program, []*ir.Program) {
	t.Helper()
	pps, ok := netbench.ByName("IPv4")
	if !ok {
		t.Fatal("IPv4 benchmark missing")
	}
	prog, err := pps.Compile()
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Partition(prog, core.Options{Stages: d})
	if err != nil {
		t.Fatal(err)
	}
	return prog, res.Stages
}

func ipv4Traffic(n int) [][]byte {
	pps, _ := netbench.ByName("IPv4")
	return pps.Traffic(n)
}

// stageSegments runs the pipeline sequentially (the oracle) and records the
// events each (iteration, stage) pair produces. The expected trace of any
// faulted run is assembled from these segments: a delivered packet
// contributes every stage's segment, a degraded one only the stages that
// ran, a shed or quarantined one nothing. This is only sound for stateless
// stages (IPv4 has no persistent arrays or queues), where dropping an
// iteration cannot perturb later ones.
func stageSegments(t *testing.T, stages []*ir.Program, traffic [][]byte) [][][]interp.Event {
	t.Helper()
	runners := interp.NewStageRunners(stages, netbench.NewWorld(nil))
	for _, r := range runners {
		r.RxFromCtx = true
	}
	ctx := interp.NewIterCtx()
	segs := make([][][]interp.Event, len(traffic))
	for i, p := range traffic {
		ctx.DeferEvents = true
		ctx.Pending, ctx.HasPending = p, true
		segs[i] = make([][]interp.Event, len(stages))
		var slots []int64
		for k, r := range runners {
			mark := len(ctx.Events)
			out, err := r.RunIteration(ctx, slots)
			if err != nil {
				t.Fatalf("oracle iteration %d stage %d: %v", i, k+1, err)
			}
			slots = out
			segs[i][k] = append([]interp.Event(nil), ctx.Events[mark:]...)
		}
		ctx.Reset()
	}
	return segs
}

// expectedTrace assembles the oracle trace a faulted run should produce,
// given its own fault records: shed and quarantined iterations contribute
// nothing, degraded ones the stages up to and including the marking stage,
// everything else its full segments.
func expectedTrace(segs [][][]interp.Event, rep *runtime.FaultReport) []interp.Event {
	drop := map[int64]bool{}
	deg := map[int64]int{}
	for _, r := range rep.Records {
		switch r.Disposition {
		case "shed", "quarantined":
			drop[r.Iter] = true
		case "degraded":
			deg[r.Iter] = r.Stage
		}
	}
	var want []interp.Event
	for i := range segs {
		if drop[int64(i)] {
			continue
		}
		limit := len(segs[i])
		if s, ok := deg[int64(i)]; ok && s < limit {
			limit = s
		}
		for k := 0; k < limit; k++ {
			want = append(want, segs[i][k]...)
		}
	}
	return want
}

// checkAccounting asserts the report invariant: every packet pulled from
// the source is delivered, shed, or quarantined, and degraded packets are a
// subset of delivered ones.
func checkAccounting(t *testing.T, m *runtime.Metrics) {
	t.Helper()
	rep := m.Faults
	if rep == nil {
		t.Fatal("metrics carry no fault report")
	}
	pulled := m.Stages[0].In
	if got := rep.Accounted(); got != pulled {
		t.Errorf("accounted %d packets (delivered %d, shed %d, quarantined %d), source supplied %d",
			got, rep.Delivered, rep.Shed, rep.Quarantined, pulled)
	}
	if rep.Delivered != m.Packets {
		t.Errorf("report says %d delivered, sink retired %d", rep.Delivered, m.Packets)
	}
	if rep.Degraded > rep.Delivered {
		t.Errorf("degraded %d exceeds delivered %d", rep.Degraded, rep.Delivered)
	}
}

func chaosServe(t *testing.T, stages []*ir.Program, traffic [][]byte, cfg runtime.Config) *runtime.Metrics {
	t.Helper()
	m, err := runtime.Serve(context.Background(), stages, netbench.NewWorld(nil), runtime.Packets(traffic), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestChaosStallsAndDelaysAreLossless: stalls and ring-put delays slow the
// pipeline but never lose packets — the trace stays byte-identical to the
// clean oracle and every fault counter stays zero.
func TestChaosStallsAndDelaysAreLossless(t *testing.T) {
	const n = 32
	prog, stages := partitionIPv4(t, 4)
	traffic := ipv4Traffic(n)
	seq, err := interp.RunSequential(prog, netbench.NewWorld(traffic), n)
	if err != nil {
		t.Fatal(err)
	}
	cfg := runtime.DefaultConfig()
	cfg.Faults = &fault.Plan{Injections: []fault.Injection{
		{Kind: fault.Stall, Stage: 1, Every: 8, Count: 2, Sleep: time.Millisecond},
		{Kind: fault.Stall, Stage: 3, At: 11, Sleep: 2 * time.Millisecond},
		{Kind: fault.Delay, Stage: 2, At: 5, Sleep: time.Millisecond},
	}}
	m := chaosServe(t, stages, traffic, cfg)
	if m.Packets != n {
		t.Fatalf("served %d packets, want %d", m.Packets, n)
	}
	if diff := interp.TraceEqual(seq, m.Trace); diff != "" {
		t.Fatalf("trace diverges under stalls: %s", diff)
	}
	rep := m.Faults
	if rep.Shed+rep.Quarantined+rep.Degraded != 0 {
		t.Fatalf("lossless schedule lost packets: %s", rep)
	}
	checkAccounting(t, m)
}

// TestChaosDeadlineQuarantines: a stall that blows the per-stage deadline
// quarantines exactly the stalled packet, before the stage body runs.
func TestChaosDeadlineQuarantines(t *testing.T) {
	const n = 12
	_, stages := partitionIPv4(t, 2)
	traffic := ipv4Traffic(n)
	segs := stageSegments(t, stages, traffic)
	cfg := runtime.DefaultConfig()
	cfg.StageDeadline = 2 * time.Millisecond
	cfg.Faults = &fault.Plan{Injections: []fault.Injection{
		{Kind: fault.Stall, Stage: 2, At: 5, Sleep: 20 * time.Millisecond},
	}}
	m := chaosServe(t, stages, traffic, cfg)
	rep := m.Faults
	if rep.Quarantined != 1 || rep.Delivered != n-1 {
		t.Fatalf("quarantined %d delivered %d, want 1 and %d\n%s", rep.Quarantined, rep.Delivered, n-1, rep)
	}
	if len(rep.Records) != 1 {
		t.Fatalf("got %d records, want 1\n%s", len(rep.Records), rep)
	}
	rec := rep.Records[0]
	if rec.Iter != 5 || rec.Stage != 2 || rec.Disposition != "quarantined" ||
		!strings.Contains(rec.Reason, "deadline") {
		t.Fatalf("unexpected record: %+v", rec)
	}
	if diff := interp.TraceEqual(expectedTrace(segs, rep), m.Trace); diff != "" {
		t.Fatalf("surviving packets diverge from oracle: %s", diff)
	}
	checkAccounting(t, m)
}

// TestChaosPoisonEveryK: every K-th source packet is corrupted and must be
// quarantined at the head, before it enters the pipeline.
func TestChaosPoisonEveryK(t *testing.T) {
	const n, k = 24, 6
	_, stages := partitionIPv4(t, 2)
	traffic := ipv4Traffic(n)
	segs := stageSegments(t, stages, traffic)
	cfg := runtime.DefaultConfig()
	cfg.Faults = &fault.Plan{Injections: []fault.Injection{
		{Kind: fault.Poison, Every: k},
	}}
	m := chaosServe(t, stages, traffic, cfg)
	rep := m.Faults
	if rep.Quarantined != n/k || rep.Delivered != n-n/k {
		t.Fatalf("quarantined %d delivered %d, want %d and %d\n%s",
			rep.Quarantined, rep.Delivered, n/k, n-n/k, rep)
	}
	for i, rec := range rep.Records {
		wantIter := int64((i+1)*k - 1)
		if rec.Iter != wantIter || rec.Stage != 1 || !strings.Contains(rec.Reason, "poison") {
			t.Fatalf("record %d: %+v, want poison of iteration %d at stage 1", i, rec, wantIter)
		}
	}
	if diff := interp.TraceEqual(expectedTrace(segs, rep), m.Trace); diff != "" {
		t.Fatalf("surviving packets diverge from oracle: %s", diff)
	}
	checkAccounting(t, m)
}

// TestChaosPanicOncePerStage: one injected panic in every stage body; each
// quarantines exactly its own packet and the pipeline keeps serving.
func TestChaosPanicOncePerStage(t *testing.T) {
	const n, d = 16, 4
	_, stages := partitionIPv4(t, d)
	traffic := ipv4Traffic(n)
	segs := stageSegments(t, stages, traffic)
	cfg := runtime.DefaultConfig()
	plan := &fault.Plan{}
	for s := 1; s <= d; s++ {
		plan.Injections = append(plan.Injections,
			fault.Injection{Kind: fault.Panic, Stage: s, At: int64(2 + 3*(s-1))})
	}
	cfg.Faults = plan
	m := chaosServe(t, stages, traffic, cfg)
	rep := m.Faults
	if rep.Quarantined != d || rep.Delivered != n-d {
		t.Fatalf("quarantined %d delivered %d, want %d and %d\n%s",
			rep.Quarantined, rep.Delivered, d, n-d, rep)
	}
	for i, rec := range rep.Records {
		s := i + 1
		if rec.Stage != s || rec.Iter != int64(2+3*(s-1)) ||
			!strings.Contains(rec.Reason, "injected panic") {
			t.Fatalf("record %d: %+v, want injected panic at stage %d", i, rec, s)
		}
	}
	if diff := interp.TraceEqual(expectedTrace(segs, rep), m.Trace); diff != "" {
		t.Fatalf("surviving packets diverge from oracle: %s", diff)
	}
	checkAccounting(t, m)
}

// TestChaosTransientRetryRecovers: a transient fault that clears within the
// retry budget costs retries but loses nothing.
func TestChaosTransientRetryRecovers(t *testing.T) {
	const n = 10
	prog, stages := partitionIPv4(t, 2)
	traffic := ipv4Traffic(n)
	seq, err := interp.RunSequential(prog, netbench.NewWorld(traffic), n)
	if err != nil {
		t.Fatal(err)
	}
	cfg := runtime.DefaultConfig()
	cfg.Retry = 3
	cfg.RetryBackoff = 100 * time.Microsecond
	cfg.Faults = &fault.Plan{Injections: []fault.Injection{
		{Kind: fault.Transient, Stage: 2, At: 3, Count: 2},
	}}
	m := chaosServe(t, stages, traffic, cfg)
	rep := m.Faults
	if rep.Delivered != n || rep.Retries != 2 || rep.Quarantined != 0 {
		t.Fatalf("delivered %d retries %d quarantined %d, want %d, 2, 0\n%s",
			rep.Delivered, rep.Retries, rep.Quarantined, n, rep)
	}
	if diff := interp.TraceEqual(seq, m.Trace); diff != "" {
		t.Fatalf("trace diverges after recovered retries: %s", diff)
	}
	checkAccounting(t, m)
}

// TestChaosRetryExhaustedQuarantines: a transient fault that outlives the
// retry budget quarantines the packet after the configured attempts.
func TestChaosRetryExhaustedQuarantines(t *testing.T) {
	const n = 10
	_, stages := partitionIPv4(t, 2)
	traffic := ipv4Traffic(n)
	segs := stageSegments(t, stages, traffic)
	cfg := runtime.DefaultConfig()
	cfg.Retry = 2
	cfg.RetryBackoff = 50 * time.Microsecond
	cfg.Faults = &fault.Plan{Injections: []fault.Injection{
		{Kind: fault.Transient, Stage: 2, At: 3, Count: 5},
	}}
	m := chaosServe(t, stages, traffic, cfg)
	rep := m.Faults
	if rep.Quarantined != 1 || rep.Retries != 2 || rep.Delivered != n-1 {
		t.Fatalf("quarantined %d retries %d delivered %d, want 1, 2, %d\n%s",
			rep.Quarantined, rep.Retries, rep.Delivered, n-1, rep)
	}
	rec := rep.Records[0]
	if rec.Iter != 3 || rec.Stage != 2 || !strings.Contains(rec.Reason, "transient") {
		t.Fatalf("unexpected record: %+v", rec)
	}
	if diff := interp.TraceEqual(expectedTrace(segs, rep), m.Trace); diff != "" {
		t.Fatalf("surviving packets diverge from oracle: %s", diff)
	}
	checkAccounting(t, m)
}

// TestChaosSaturatedRingSheds saturates the ring between stages 2 and 3 and
// asserts an exact shed count. The schedule: stage 3 is gated on iteration 0
// until the pipeline has shed 17 packets, so it provably consumes nothing
// while the ring is saturated; the head is paced at 2ms per packet so stage
// 2 (which sheds after 2 watermark ticks, ~400µs) is never the bottleneck's
// victim itself. Stage 3 then holds packet 0, the ring holds 1 and 2, and
// stage 2 must shed exactly packets 3..19 — at which point the gate opens
// and the backlog drains.
func TestChaosSaturatedRingSheds(t *testing.T) {
	const n = 20
	_, stages := partitionIPv4(t, 4)
	traffic := ipv4Traffic(n)
	segs := stageSegments(t, stages, traffic)
	cfg := runtime.Config{
		RingCapacity: 2,
		Batch:        1,
		Overload:     runtime.OverloadShed,
		Watermark:    2,
		Faults: &fault.Plan{Injections: []fault.Injection{
			{Kind: fault.Stall, Stage: 1, Every: 1, Sleep: 2 * time.Millisecond},
			{Kind: fault.Stall, Stage: 3, At: 0, UntilOverload: n - 3},
		}},
	}
	m := chaosServe(t, stages, traffic, cfg)
	rep := m.Faults
	if rep.Shed != n-3 || rep.Delivered != 3 || rep.Quarantined != 0 {
		t.Fatalf("shed %d delivered %d quarantined %d, want %d, 3, 0\n%s",
			rep.Shed, rep.Delivered, rep.Quarantined, n-3, rep)
	}
	for i, rec := range rep.Records {
		if rec.Iter != int64(3+i) || rec.Stage != 2 || rec.Disposition != "shed" {
			t.Fatalf("record %d: %+v, want iteration %d shed at stage 2", i, rec, 3+i)
		}
	}
	if diff := interp.TraceEqual(expectedTrace(segs, rep), m.Trace); diff != "" {
		t.Fatalf("delivered packets diverge from oracle: %s", diff)
	}
	checkAccounting(t, m)
}

// TestChaosDegradeShortCircuits: same saturation shape under the degrade
// policy — the blocked packet is delivered with only stages 1..2 executed,
// and nothing is lost. Iterations after the saturated three are admitted
// one at a time, each only once every earlier packet is delivered: they
// meet empty rings, so no scheduling delay — not even the last stage's
// cold first retire, which lands while the released backlog drains — can
// saturate a second ring.
func TestChaosDegradeShortCircuits(t *testing.T) {
	const n = 8
	_, stages := partitionIPv4(t, 4)
	traffic := ipv4Traffic(n)
	segs := stageSegments(t, stages, traffic)
	injs := []fault.Injection{
		{Kind: fault.Stall, Stage: 1, Every: 1, Sleep: 2 * time.Millisecond},
		{Kind: fault.Stall, Stage: 3, At: 0, UntilOverload: 1},
	}
	for i := int64(3); i < n; i++ {
		injs = append(injs, fault.Injection{Kind: fault.Stall, Stage: 1, At: i, UntilDelivered: i})
	}
	cfg := runtime.Config{
		RingCapacity: 1,
		Batch:        1,
		Overload:     runtime.OverloadDegrade,
		Watermark:    2,
		Faults:       &fault.Plan{Injections: injs},
	}
	m := chaosServe(t, stages, traffic, cfg)
	rep := m.Faults
	if rep.Delivered != n || rep.Degraded != 1 || rep.Shed != 0 || rep.Quarantined != 0 {
		t.Fatalf("delivered %d degraded %d shed %d quarantined %d, want %d, 1, 0, 0\n%s",
			rep.Delivered, rep.Degraded, rep.Shed, rep.Quarantined, n, rep)
	}
	rec := rep.Records[0]
	if rec.Iter != 2 || rec.Stage != 2 || rec.Disposition != "degraded" {
		t.Fatalf("unexpected record: %+v", rec)
	}
	if diff := interp.TraceEqual(expectedTrace(segs, rep), m.Trace); diff != "" {
		t.Fatalf("degraded delivery diverges from partial oracle: %s", diff)
	}
	checkAccounting(t, m)
}

// TestChaosShardedLedgerBalances drives a sharded serve (P=4 over the
// stateless IPv4 pipeline, so every stage runs replicated) through a
// deterministic fault schedule and asserts the ledger still balances when
// the counters are aggregated across shards: source poisons quarantine at
// the dispatcher, an in-stage panic quarantines on exactly one replica,
// and Delivered + Shed + Quarantined equals the dispatcher's pull count.
func TestChaosShardedLedgerBalances(t *testing.T) {
	const n, k = 24, 6
	_, stages := partitionIPv4(t, 4)
	traffic := ipv4Traffic(n)
	segs := stageSegments(t, stages, traffic)
	cfg := runtime.DefaultConfig()
	cfg.Shards = 4
	cfg.Faults = &fault.Plan{Injections: []fault.Injection{
		{Kind: fault.Poison, Every: k},
		{Kind: fault.Panic, Stage: 2, At: 3},
	}}
	m := chaosServe(t, stages, traffic, cfg)
	if m.Shards != 4 {
		t.Fatalf("ran at width %d, want 4", m.Shards)
	}
	rep := m.Faults
	wantQ := int64(n/k + 1)
	if rep.Quarantined != wantQ || rep.Delivered != n-wantQ {
		t.Fatalf("quarantined %d delivered %d, want %d and %d\n%s",
			rep.Quarantined, rep.Delivered, wantQ, n-wantQ, rep)
	}
	poisons, panics := 0, 0
	for _, rec := range rep.Records {
		switch {
		case strings.Contains(rec.Reason, "poison"):
			poisons++
			if rec.Stage != 1 || (rec.Iter+1)%k != 0 {
				t.Fatalf("unexpected poison record: %+v", rec)
			}
		case strings.Contains(rec.Reason, "injected panic"):
			panics++
			if rec.Stage != 2 || rec.Iter != 3 {
				t.Fatalf("unexpected panic record: %+v", rec)
			}
		default:
			t.Fatalf("unexpected record: %+v", rec)
		}
	}
	if poisons != n/k || panics != 1 {
		t.Fatalf("got %d poisons and %d panics, want %d and 1\n%s", poisons, panics, n/k, rep)
	}
	if diff := interp.TraceEqual(expectedTrace(segs, rep), m.Trace); diff != "" {
		t.Fatalf("surviving packets diverge from oracle: %s", diff)
	}
	checkAccounting(t, m)
}

// TestChaosSeededPlansAccount is the randomized half of the harness: seeded
// random fault plans across all policies must terminate, never error, and
// account for 100% of the packets the source supplied.
func TestChaosSeededPlansAccount(t *testing.T) {
	const n = 40
	_, stages := partitionIPv4(t, 4)
	traffic := ipv4Traffic(n)
	policies := []runtime.OverloadPolicy{runtime.OverloadBlock, runtime.OverloadShed, runtime.OverloadDegrade}
	for seed := int64(0); seed < 18; seed++ {
		cfg := runtime.Config{
			RingCapacity: 2,
			Batch:        1,
			Overload:     policies[seed%3],
			Retry:        1,
			RetryBackoff: 50 * time.Microsecond,
			Faults:       fault.Seeded(seed, 4, n),
		}
		if cfg.Overload != runtime.OverloadBlock {
			cfg.Watermark = 1
		}
		m, err := runtime.Serve(context.Background(), stages, netbench.NewWorld(nil),
			runtime.Packets(traffic), cfg)
		if err != nil {
			t.Fatalf("seed %d (%v): %v", seed, cfg.Overload, err)
		}
		if m.Stages[0].In != n {
			t.Fatalf("seed %d: head pulled %d packets, want %d", seed, m.Stages[0].In, n)
		}
		checkAccounting(t, m)
	}
}

// TestChaosFusedStageAttribution: fault attribution must survive stage
// fusion. When the injected stage runs mid-way through a fused unit (no
// ring of its own, one goroutine for several stages), a panic and an
// exhausted transient keyed to that stage must still quarantine exactly
// their packets, the records must name the original stage index — not the
// unit — and the ledger must balance to the packet: every packet the
// source supplied is delivered or quarantined, and the survivors' trace
// matches the oracle segments.
func TestChaosFusedStageAttribution(t *testing.T) {
	const n = 24
	_, stages := partitionIPv4(t, 4)
	traffic := ipv4Traffic(n)
	segs := stageSegments(t, stages, traffic)
	for _, tc := range []struct {
		name string
		fuse []bool
	}{
		{"fully_fused", []bool{true, true, true}},
		{"tail_unit", []bool{false, true, true}}, // stage 3 interior to the 2+3+4 unit
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := runtime.DefaultConfig()
			cfg.Retry = 1
			cfg.RetryBackoff = 50 * time.Microsecond
			cfg.FuseCuts = tc.fuse
			cfg.Faults = &fault.Plan{Injections: []fault.Injection{
				{Kind: fault.Panic, Stage: 3, At: 4},
				{Kind: fault.Transient, Stage: 3, At: 9, Count: 5},
			}}
			m := chaosServe(t, stages, traffic, cfg)
			rep := m.Faults
			if rep.Quarantined != 2 || rep.Delivered != n-2 {
				t.Fatalf("quarantined %d delivered %d, want 2 and %d\n%s",
					rep.Quarantined, rep.Delivered, n-2, rep)
			}
			if len(rep.Records) != 2 {
				t.Fatalf("got %d records, want 2\n%s", len(rep.Records), rep)
			}
			for _, rec := range rep.Records {
				if rec.Stage != 3 || rec.Disposition != "quarantined" {
					t.Fatalf("fused unit misattributed the fault: %+v", rec)
				}
			}
			if diff := interp.TraceEqual(expectedTrace(segs, rep), m.Trace); diff != "" {
				t.Fatalf("surviving packets diverge from oracle: %s", diff)
			}
			checkAccounting(t, m)
		})
	}
}
