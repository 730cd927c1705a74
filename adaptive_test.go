package repro_test

import (
	"context"
	"errors"
	gort "runtime"
	"strings"
	"testing"
	"time"

	"repro"
)

// adaptSrc is a PPS with enough heterogeneous work (table lookups, header
// arithmetic, a persistent counter) that calibration sees several op
// classes and re-cutting has real choices to make.
const adaptSrc = `pps Adapt {
	var total[1];
	loop {
		var n = pkt_rx();
		if (n < 0) { continue; }
		var b0 = pkt_byte(0);
		var h = hash_crc(b0 * 31 + n);
		var hop = rt_lookup(h & 0xFF);
		var c = csum_fold(h + hop);
		total[0] = total[0] + 1;
		meta_set(0, c & 0xFFFF);
		trace((hop + c + total[0]) & 0xFF);
		pkt_send(hop & 1);
	}
}`

// TestAdaptiveServeTraceIdentity is the tentpole's correctness gate: a
// WithAutotune serve — probe, calibrate, re-cut, candidate probes, commit,
// all mid-stream — must produce a trace byte-identical to the sequential
// oracle over the whole stream. Run under -race via ci.sh.
func TestAdaptiveServeTraceIdentity(t *testing.T) {
	prog := repro.MustCompile(adaptSrc)
	const n = 6000
	packets := testPackets(n)
	seq := seqTrace(t, prog, packets, n)

	pipe, err := repro.Partition(prog, repro.WithStages(3))
	if err != nil {
		t.Fatal(err)
	}
	m, err := pipe.Serve(context.Background(), repro.PacketSource(packets),
		repro.WithAutotune(repro.Autotune{ProbePackets: 500, TopK: 2, MaxDegree: 4, Batches: []int{1, 8}, Shards: []int{1, 2}}))
	if err != nil {
		t.Fatal(err)
	}
	if m.Packets != n {
		t.Fatalf("served %d packets, want %d", m.Packets, n)
	}
	if diff := repro.TraceEqual(seq, m.Trace); diff != "" {
		t.Fatalf("adaptive serve diverged from the sequential oracle: %s", diff)
	}
	if m.Faults.Accounted() != n {
		t.Errorf("accounting hole: %s", m.Faults)
	}

	plan := pipe.Plan()
	if plan == nil {
		t.Fatal("no plan published")
	}
	if plan.Why == "" || plan.Degree < 1 || plan.Batch < 1 || plan.Shards < 1 {
		t.Errorf("implausible plan: %+v", plan)
	}
	if !plan.Calibrated {
		t.Errorf("plan not calibrated: %s", plan.Why)
	}
	if plan.R2 <= 0 || plan.NsPerWeight <= 0 {
		t.Errorf("calibration fit missing from plan: R2=%v ns/w=%v", plan.R2, plan.NsPerWeight)
	}
	if len(plan.StageWeights) != plan.Degree {
		t.Errorf("plan has %d stage weights for degree %d", len(plan.StageWeights), plan.Degree)
	}
}

// TestAdaptiveServeShortStream: a stream shorter than one probe window
// must still be served completely and exactly, with nothing to adapt.
func TestAdaptiveServeShortStream(t *testing.T) {
	prog := repro.MustCompile(adaptSrc)
	const n = 40
	packets := testPackets(n)
	seq := seqTrace(t, prog, packets, n)

	pipe, err := repro.Partition(prog, repro.WithStages(2))
	if err != nil {
		t.Fatal(err)
	}
	m, err := pipe.Serve(context.Background(), repro.PacketSource(packets),
		repro.WithAutotune(repro.Autotune{ProbePackets: 1000}))
	if err != nil {
		t.Fatal(err)
	}
	if m.Packets != n {
		t.Fatalf("served %d packets, want %d", m.Packets, n)
	}
	if diff := repro.TraceEqual(seq, m.Trace); diff != "" {
		t.Fatalf("short adaptive serve diverged: %s", diff)
	}
	// The loop never reached a decision, so the plan still reflects the
	// static cut.
	if pipe.Plan().Calibrated {
		t.Error("plan claims calibration on an unadapted run")
	}
}

// TestAdaptiveServeP99Objective exercises the latency-bounded objective
// end to end: the loop must still be exact, and the plan must carry the
// declared objective.
func TestAdaptiveServeP99Objective(t *testing.T) {
	prog := repro.MustCompile(adaptSrc)
	const n = 4000
	packets := testPackets(n)
	seq := seqTrace(t, prog, packets, n)

	pipe, err := repro.Partition(prog, repro.WithStages(2))
	if err != nil {
		t.Fatal(err)
	}
	m, err := pipe.Serve(context.Background(), repro.PacketSource(packets),
		repro.WithObjective(repro.ThroughputUnderP99(50*time.Millisecond)),
		repro.WithAutotune(repro.Autotune{ProbePackets: 400, TopK: 2, MaxDegree: 3, Batches: []int{1, 16}, Shards: []int{1}}))
	if err != nil {
		t.Fatal(err)
	}
	if diff := repro.TraceEqual(seq, m.Trace); diff != "" {
		t.Fatalf("p99-bounded adaptive serve diverged: %s", diff)
	}
	if got := pipe.Plan().Objective; got != "throughput-under-p99 50ms" {
		t.Errorf("plan objective = %q", got)
	}
}

// TestAdaptiveServeDeterministicPlan: with a fixed seed and fixed
// candidate space, two adaptive serves over identical streams must commit
// to the same configuration (measured throughput varies run to run, but
// the satellite requires the decision machinery itself to be seeded; the
// probe set is, and with one candidate topping every ranking the committed
// plan is stable).
func TestAdaptiveServeDeterministicPlan(t *testing.T) {
	prog := repro.MustCompile(adaptSrc)
	const n = 3000
	packets := testPackets(n)

	serve := func() *repro.Plan {
		pipe, err := repro.Partition(prog, repro.WithStages(2))
		if err != nil {
			t.Fatal(err)
		}
		_, err = pipe.Serve(context.Background(), repro.PacketSource(packets),
			repro.WithAutotune(repro.Autotune{
				ProbePackets: 400, TopK: 1, Seed: 7,
				MaxDegree: 1, Batches: []int{32}, Shards: []int{1},
			}))
		if err != nil {
			t.Fatal(err)
		}
		return pipe.Plan()
	}
	a, b := serve(), serve()
	if a.Degree != b.Degree || a.Batch != b.Batch || a.Shards != b.Shards {
		t.Errorf("plans diverged: %+v vs %+v", a, b)
	}
	if a.Degree != 1 || a.Batch != 32 {
		t.Errorf("constrained search chose %+v, want d1/b32", a)
	}
}

// TestObjectiveAndAutotuneValidation pins the new sentinels.
func TestObjectiveAndAutotuneValidation(t *testing.T) {
	prog := repro.MustCompile(adaptSrc)
	pipe, err := repro.Partition(prog, repro.WithStages(2))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	src := repro.PacketSource(testPackets(1))

	if _, err := pipe.Serve(ctx, src, repro.WithObjective(repro.ThroughputUnderP99(0))); !errors.Is(err, repro.ErrBadObjective) {
		t.Errorf("zero p99 bound err = %v, want ErrBadObjective", err)
	}
	if _, err := pipe.Serve(ctx, src, repro.WithAutotune(repro.Autotune{ProbePackets: -1})); !errors.Is(err, repro.ErrBadAutotune) {
		t.Errorf("negative probe window err = %v, want ErrBadAutotune", err)
	}
	if _, err := pipe.Serve(ctx, src, repro.WithAutotune(repro.Autotune{Shards: []int{99}})); !errors.Is(err, repro.ErrBadAutotune) {
		t.Errorf("oversized shard candidate err = %v, want ErrBadAutotune", err)
	}
	if _, err := pipe.Serve(ctx, src, repro.WithAutotune(repro.Autotune{Batches: []int{0}})); !errors.Is(err, repro.ErrBadAutotune) {
		t.Errorf("zero batch candidate err = %v, want ErrBadAutotune", err)
	}

	// MaxThroughput is always valid, with or without autotune.
	if _, err := pipe.Serve(ctx, repro.PacketSource(testPackets(4)), repro.WithObjective(repro.MaxThroughput())); err != nil {
		t.Errorf("MaxThroughput serve err = %v", err)
	}
}

// TestPlanStatic: before any adaptive serve, Plan reflects the static cut.
func TestPlanStatic(t *testing.T) {
	prog := repro.MustCompile(adaptSrc)
	pipe, err := repro.Partition(prog, repro.WithStages(3), repro.WithBatch(16))
	if err != nil {
		t.Fatal(err)
	}
	plan := pipe.Plan()
	if plan == nil {
		t.Fatal("nil static plan")
	}
	if plan.Degree != 3 || plan.Batch != 16 || plan.Shards != 1 {
		t.Errorf("static plan = %+v, want d3/b16/p1", plan)
	}
	if plan.Calibrated {
		t.Error("static plan claims calibration")
	}
	if plan.Objective != "max-throughput" {
		t.Errorf("static objective = %q", plan.Objective)
	}
	if len(plan.StageWeights) != 3 {
		t.Errorf("static plan has %d stage weights", len(plan.StageWeights))
	}
}

// TestAdaptiveServeCancelDrainsCleanly cancels a WithAutotune serve from
// inside its source at a packet that lands in each phase of the loop —
// the calibration probe, a candidate probe, and the committed round. Serve
// must return context.Canceled without draining the source, the trace
// served so far must be a prefix of the sequential oracle, and every
// goroutine the loop started must be gone.
func TestAdaptiveServeCancelDrainsCleanly(t *testing.T) {
	prog := repro.MustCompile(adaptSrc)
	// Round 1 serves [0, probe); TopK 2 plus one exploration pick probe
	// [probe, 4·probe); the committed round serves the rest.
	const probe, n = 200, 1500
	packets := testPackets(n)
	seq := seqTrace(t, prog, packets, n)
	for _, tc := range []struct {
		phase     string
		cancelAt  int
		committed bool
	}{
		{"calibration probe", probe / 2, false},
		{"candidate probe", probe + probe/2, false},
		{"committed round", 6 * probe, true},
	} {
		t.Run(tc.phase, func(t *testing.T) {
			pipe, err := repro.Partition(prog, repro.WithStages(3))
			if err != nil {
				t.Fatal(err)
			}
			before := gort.NumGoroutine()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			next := 0
			src := repro.SourceFunc(func() ([]byte, bool) {
				if next == tc.cancelAt {
					cancel()
				}
				if next == n {
					return nil, false
				}
				next++
				return packets[next-1], true
			})
			world := repro.NewWorld(nil)
			_, err = pipe.Serve(ctx, src, repro.WithWorld(world),
				repro.WithAutotune(repro.Autotune{ProbePackets: probe, TopK: 2, MaxDegree: 4, Batches: []int{1, 8}, Shards: []int{1, 2}}))
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			if next >= n {
				t.Fatalf("source drained (%d packets) despite the cancel at %d", next, tc.cancelAt)
			}
			// World.Trace holds every round that completed; the canceled
			// round publishes nothing, so the calibration case serves an
			// empty prefix.
			if got := len(world.Trace); got >= len(seq) || (got == 0) != (tc.cancelAt < probe) {
				t.Fatalf("served %d of %d oracle events after a cancel at %d", got, len(seq), tc.cancelAt)
			}
			if diff := repro.TraceEqual(seq[:len(world.Trace)], world.Trace); diff != "" {
				t.Fatalf("served trace is not a prefix of the oracle: %s", diff)
			}
			static := strings.HasPrefix(pipe.Plan().Why, "static cut")
			if static == tc.committed {
				t.Fatalf("plan %q: cancel at %d did not land in the %s", pipe.Plan().Why, tc.cancelAt, tc.phase)
			}
			deadline := time.Now().Add(2 * time.Second)
			for gort.NumGoroutine() > before && time.Now().Before(deadline) {
				time.Sleep(5 * time.Millisecond)
			}
			if g := gort.NumGoroutine(); g > before {
				buf := make([]byte, 1<<16)
				t.Fatalf("goroutine leak: %d > %d\n%s", g, before, buf[:gort.Stack(buf, true)])
			}
		})
	}
}
