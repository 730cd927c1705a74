package repro_test

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"repro"
	"repro/internal/errs"
)

// sentinelTable pairs every re-exported sentinel with its internal/errs
// counterpart. TestSentinelsComplete asserts the pairing is identity (the
// facade re-exports, never re-declares) and that the table itself is
// exhaustive, so adding a sentinel to internal/errs without re-exporting
// and covering it here fails the build or the test.
var sentinelTable = []struct {
	name     string
	exported error
	internal error
}{
	{"ErrNilProgram", repro.ErrNilProgram, errs.ErrNilProgram},
	{"ErrBadDegree", repro.ErrBadDegree, errs.ErrBadDegree},
	{"ErrBadEpsilon", repro.ErrBadEpsilon, errs.ErrBadEpsilon},
	{"ErrUnbalanced", repro.ErrUnbalanced, errs.ErrUnbalanced},
	{"ErrBadBudget", repro.ErrBadBudget, errs.ErrBadBudget},
	{"ErrArchMismatch", repro.ErrArchMismatch, errs.ErrArchMismatch},
	{"ErrNoStages", repro.ErrNoStages, errs.ErrNoStages},
	{"ErrNilStage", repro.ErrNilStage, errs.ErrNilStage},
	{"ErrNilWorld", repro.ErrNilWorld, errs.ErrNilWorld},
	{"ErrNilSource", repro.ErrNilSource, errs.ErrNilSource},
	{"ErrBadRing", repro.ErrBadRing, errs.ErrBadRing},
	{"ErrBadBatch", repro.ErrBadBatch, errs.ErrBadBatch},
	{"ErrNotServable", repro.ErrNotServable, errs.ErrNotServable},
	{"ErrBadThreads", repro.ErrBadThreads, errs.ErrBadThreads},
	{"ErrBadArrival", repro.ErrBadArrival, errs.ErrBadArrival},
	{"ErrBadIterations", repro.ErrBadIterations, errs.ErrBadIterations},
	{"ErrBadPolicy", repro.ErrBadPolicy, errs.ErrBadPolicy},
	{"ErrBadWatermark", repro.ErrBadWatermark, errs.ErrBadWatermark},
	{"ErrBadDeadline", repro.ErrBadDeadline, errs.ErrBadDeadline},
	{"ErrBadRetry", repro.ErrBadRetry, errs.ErrBadRetry},
	{"ErrConflictingOptions", repro.ErrConflictingOptions, errs.ErrConflictingOptions},
	{"ErrBadFaultPlan", repro.ErrBadFaultPlan, errs.ErrBadFaultPlan},
	{"ErrStagePanic", repro.ErrStagePanic, errs.ErrStagePanic},
	{"ErrPoisonPacket", repro.ErrPoisonPacket, errs.ErrPoisonPacket},
	{"ErrStageDeadline", repro.ErrStageDeadline, errs.ErrStageDeadline},
	{"ErrTransientFault", repro.ErrTransientFault, errs.ErrTransientFault},
	{"ErrBadObserver", repro.ErrBadObserver, errs.ErrBadObserver},
	{"ErrBadBackend", repro.ErrBadBackend, errs.ErrBadBackend},
	{"ErrBadShards", repro.ErrBadShards, errs.ErrBadShards},
	{"ErrBadCalibration", repro.ErrBadCalibration, errs.ErrBadCalibration},
	{"ErrBadObjective", repro.ErrBadObjective, errs.ErrBadObjective},
	{"ErrBadAutotune", repro.ErrBadAutotune, errs.ErrBadAutotune},
	{"ErrBadSource", repro.ErrBadSource, errs.ErrBadSource},
}

func TestSentinelsComplete(t *testing.T) {
	for _, s := range sentinelTable {
		if s.exported != s.internal {
			t.Errorf("%s: facade re-declares instead of re-exporting", s.name)
		}
		if s.exported.Error() == "" {
			t.Errorf("%s: empty message", s.name)
		}
	}
	// internal/errs currently declares 33 sentinels; bump this alongside the
	// table when adding one.
	if len(sentinelTable) != 33 {
		t.Errorf("sentinel table covers %d errors", len(sentinelTable))
	}
}

// TestOptionsRejectInvalid drives every validation sentinel through the
// central validator via the public entry points: each invalid or
// conflicting option value must surface as its typed error no matter which
// entry point receives it.
func TestOptionsRejectInvalid(t *testing.T) {
	prog := repro.MustCompile(facadeSrc)
	cases := []struct {
		name string
		opts []repro.Option
		want error
	}{
		{"negative degree", []repro.Option{repro.WithStages(-1)}, repro.ErrBadDegree},
		{"huge degree", []repro.Option{repro.WithStages(repro.MaxStages + 1)}, repro.ErrBadDegree},
		{"negative max PEs", []repro.Option{repro.WithMaxPEs(-1)}, repro.ErrBadDegree},
		{"epsilon above one", []repro.Option{repro.WithEpsilon(1.5)}, repro.ErrBadEpsilon},
		{"negative epsilon", []repro.Option{repro.WithEpsilon(-0.5)}, repro.ErrBadEpsilon},
		{"negative budget", []repro.Option{repro.WithBudget(-5)}, repro.ErrBadBudget},
		{"negative ring", []repro.Option{repro.WithRing(repro.NNRing, -2)}, repro.ErrBadRing},
		{"negative batch", []repro.Option{repro.WithBatch(-1)}, repro.ErrBadBatch},
		{"negative threads", []repro.Option{repro.WithThreads(-1)}, repro.ErrBadThreads},
		{"negative arrival", []repro.Option{repro.WithArrivalInterval(-10)}, repro.ErrBadArrival},
		{"negative iterations", []repro.Option{repro.WithIterations(-1)}, repro.ErrBadIterations},
		{"unknown policy", []repro.Option{repro.WithOverload(repro.OverloadPolicy(9))}, repro.ErrBadPolicy},
		{"negative watermark", []repro.Option{repro.WithWatermark(-1)}, repro.ErrBadWatermark},
		{"negative deadline", []repro.Option{repro.WithDeadline(-time.Second)}, repro.ErrBadDeadline},
		{"negative retry", []repro.Option{repro.WithRetry(-1, 0)}, repro.ErrBadRetry},
		{"negative backoff", []repro.Option{repro.WithRetry(1, -time.Millisecond)}, repro.ErrBadRetry},
		{"watermark without shedding policy",
			[]repro.Option{repro.WithWatermark(2)}, repro.ErrConflictingOptions},
		{"backoff without retries",
			[]repro.Option{repro.WithRetry(0, time.Millisecond)}, repro.ErrConflictingOptions},
		{"batch exceeds ring under shed",
			[]repro.Option{repro.WithOverload(repro.OverloadShed), repro.WithBatch(20)},
			repro.ErrConflictingOptions},
		{"fault plan stage zero",
			[]repro.Option{repro.WithFaults(&repro.FaultPlan{Injections: []repro.FaultInjection{
				{Kind: repro.FaultStall, Stage: 0},
			}})}, repro.ErrBadFaultPlan},
		{"fault plan negative trigger",
			[]repro.Option{repro.WithFaults(&repro.FaultPlan{Injections: []repro.FaultInjection{
				{Kind: repro.FaultPanic, Stage: 1, At: -3},
			}})}, repro.ErrBadFaultPlan},
		{"negative log interval",
			[]repro.Option{repro.WithObserver(&repro.Observer{LogEvery: -time.Second})},
			repro.ErrBadObserver},
		{"unknown execution backend",
			[]repro.Option{repro.WithBackend(repro.Backend(99))},
			repro.ErrBadBackend},
		{"negative shard count",
			[]repro.Option{repro.WithShards(-1)}, repro.ErrBadShards},
		{"huge shard count",
			[]repro.Option{repro.WithShards(repro.MaxShards + 1)}, repro.ErrBadShards},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := repro.Partition(prog, tc.opts...); !errors.Is(err, tc.want) {
				t.Errorf("Partition err = %v, want %v", err, tc.want)
			}
		})
	}

	// The same validator guards the per-call option layers of the Pipeline
	// methods, not just Partition.
	pipe, err := repro.Partition(prog, repro.WithStages(2))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	src := repro.PacketSource(testPackets(1))
	if _, err := pipe.Serve(ctx, src, repro.WithWatermark(-1)); !errors.Is(err, repro.ErrBadWatermark) {
		t.Errorf("Serve(WithWatermark(-1)) err = %v, want ErrBadWatermark", err)
	}
	if _, err := pipe.Serve(ctx, src, repro.WithOverload(repro.OverloadDegrade),
		repro.WithBatch(64)); !errors.Is(err, repro.ErrConflictingOptions) {
		t.Errorf("Serve(batch > ring, degrade) err = %v, want ErrConflictingOptions", err)
	}
	if _, err := pipe.Simulate(ctx, repro.NewWorld(nil), repro.WithThreads(-2)); !errors.Is(err, repro.ErrBadThreads) {
		t.Errorf("Simulate(WithThreads(-2)) err = %v, want ErrBadThreads", err)
	}
}

// TestStructuralSentinels covers the sentinels reported for malformed
// inputs rather than bad option values.
func TestStructuralSentinels(t *testing.T) {
	prog := repro.MustCompile(facadeSrc)
	ctx := context.Background()

	if _, err := repro.Partition(nil); !errors.Is(err, repro.ErrNilProgram) {
		t.Errorf("Partition(nil) err = %v, want ErrNilProgram", err)
	}

	pipe, err := repro.Partition(prog, repro.WithStages(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pipe.Run(ctx, nil); !errors.Is(err, repro.ErrNilWorld) {
		t.Errorf("Run(nil world) err = %v, want ErrNilWorld", err)
	}
	if _, err := pipe.Serve(ctx, nil); !errors.Is(err, repro.ErrNilSource) {
		t.Errorf("Serve(nil source) err = %v, want ErrNilSource", err)
	}

	// A cost model differing from the one the analysis was built with.
	a, err := repro.Analyze(prog)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Partition(repro.WithStages(2), repro.WithArch(repro.DefaultArch())); !errors.Is(err, repro.ErrArchMismatch) {
		t.Errorf("Partition(other arch) err = %v, want ErrArchMismatch", err)
	}

	// Explore requires a positive per-packet budget.
	if _, err := a.Explore(); !errors.Is(err, repro.ErrBadBudget) {
		t.Errorf("Explore() without budget err = %v, want ErrBadBudget", err)
	}

	// A pipeline with no pkt_rx site cannot pace a packet stream.
	norx, err := repro.Partition(repro.MustCompile(`pps NoRx { loop { trace(1); } }`), repro.WithStages(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := norx.Serve(ctx, repro.PacketSource(testPackets(1))); !errors.Is(err, repro.ErrNotServable) {
		t.Errorf("Serve(no rx) err = %v, want ErrNotServable", err)
	}

	// ErrUnbalanced guards the cut search against infeasible balance bands;
	// the heuristic's best-effort fallback makes it unreachable for
	// realistic programs, so pin the degraded form: over-partitioning either
	// succeeds or reports exactly this sentinel.
	if _, err := repro.Partition(prog, repro.WithStages(40)); err != nil && !errors.Is(err, repro.ErrUnbalanced) {
		t.Errorf("over-partitioning err = %v, want ErrUnbalanced (or success)", err)
	}
}

// TestFaultSentinelsSurfaceInReport drives the four runtime fault sentinels
// (panic, poison, deadline, transient) through the public facade: a served
// chaos schedule must quarantine each offending packet and embed the
// sentinel's message in its fault record, while Serve itself still returns
// success.
func TestFaultSentinelsSurfaceInReport(t *testing.T) {
	const n = 12
	pipe, err := repro.Partition(repro.MustCompile(facadeSrc), repro.WithStages(2))
	if err != nil {
		t.Fatal(err)
	}
	m, err := pipe.Serve(context.Background(), repro.PacketSource(testPackets(n)),
		repro.WithRetry(1, 50*time.Microsecond),
		repro.WithDeadline(2*time.Millisecond),
		repro.WithFaults(&repro.FaultPlan{Injections: []repro.FaultInjection{
			{Kind: repro.FaultPoison, At: 0},
			{Kind: repro.FaultPanic, Stage: 2, At: 2},
			{Kind: repro.FaultTransient, Stage: 1, At: 4, Count: 3},
			{Kind: repro.FaultStall, Stage: 2, At: 6, Sleep: 20 * time.Millisecond},
		}}))
	if err != nil {
		t.Fatal(err)
	}
	rep := m.Faults
	if rep == nil {
		t.Fatal("serve metrics carry no fault report")
	}
	if rep.Quarantined != 4 || rep.Delivered != n-4 {
		t.Fatalf("quarantined %d delivered %d, want 4 and %d\n%s", rep.Quarantined, rep.Delivered, n-4, rep)
	}
	wantReasons := map[int64]error{
		0: repro.ErrPoisonPacket,
		2: repro.ErrStagePanic,
		4: repro.ErrTransientFault,
		6: repro.ErrStageDeadline,
	}
	for _, rec := range rep.Records {
		want, ok := wantReasons[rec.Iter]
		if !ok {
			t.Errorf("unexpected fault record: %+v", rec)
			continue
		}
		if !strings.Contains(rec.Reason, want.Error()) {
			t.Errorf("iteration %d: reason %q does not mention %q", rec.Iter, rec.Reason, want.Error())
		}
		delete(wantReasons, rec.Iter)
	}
	for iter, want := range wantReasons {
		t.Errorf("no fault record for iteration %d (%v)", iter, want)
	}
}
