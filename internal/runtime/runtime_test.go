package runtime_test

import (
	"context"
	"errors"
	"fmt"
	gort "runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/errs"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/netbench"
	"repro/internal/runtime"
)

// allApps returns every netbench PPS (deduplicated by name).
func allApps() []netbench.PPS {
	seen := map[string]bool{}
	var out []netbench.PPS
	for _, p := range append(netbench.IPv4Forwarding(), netbench.IPForwarding()...) {
		if !seen[p.Name] {
			seen[p.Name] = true
			out = append(out, p)
		}
	}
	return out
}

// TestServeMatchesOracle is the tentpole correctness check: for every
// benchmark PPS, at D in {2,4,8}, batched and unbatched, the concurrently
// served trace must be byte-identical to the sequential oracle's.
func TestServeMatchesOracle(t *testing.T) {
	const n = 48
	for _, pps := range allApps() {
		prog, err := pps.Compile()
		if err != nil {
			t.Fatalf("%s: %v", pps.Name, err)
		}
		a, err := core.Analyze(prog, nil)
		if err != nil {
			t.Fatalf("%s: %v", pps.Name, err)
		}
		traffic := pps.Traffic(n)
		seq, err := interp.RunSequential(prog, netbench.NewWorld(traffic), n)
		if err != nil {
			t.Fatalf("%s: sequential: %v", pps.Name, err)
		}
		for _, d := range []int{2, 4, 8} {
			res, err := a.Partition(core.Options{Stages: d})
			if err != nil {
				t.Fatalf("%s D=%d: %v", pps.Name, d, err)
			}
			for _, batch := range []int{1, 8} {
				name := fmt.Sprintf("%s/D=%d/batch=%d", pps.Name, d, batch)
				world := netbench.NewWorld(nil)
				cfg := runtime.DefaultConfig()
				cfg.Batch = batch
				m, err := runtime.Serve(context.Background(), res.Stages, world, runtime.Packets(traffic), cfg)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if m.Packets != n {
					t.Errorf("%s: served %d packets, want %d", name, m.Packets, n)
				}
				if diff := interp.TraceEqual(seq, m.Trace); diff != "" {
					t.Errorf("%s: trace diverges from oracle: %s", name, diff)
				}
				if diff := interp.TraceEqual(seq, world.Trace); diff != "" {
					t.Errorf("%s: world trace diverges: %s", name, diff)
				}
				for _, s := range m.Stages {
					if s.In != n || s.Out != n {
						t.Errorf("%s: stage %d counters in=%d out=%d, want %d",
							name, s.Stage, s.In, s.Out, n)
					}
				}
			}
		}
	}
}

// TestServeBackpressure squeezes the rings to a single entry so upstream
// stages must repeatedly wait on downstream ones; behaviour must be
// unaffected and the counters consistent.
func TestServeBackpressure(t *testing.T) {
	const n = 200
	pps, _ := netbench.ByName("IPv4")
	prog, err := pps.Compile()
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Partition(prog, core.Options{Stages: 4})
	if err != nil {
		t.Fatal(err)
	}
	traffic := pps.Traffic(n)
	seq, err := interp.RunSequential(prog, netbench.NewWorld(traffic), n)
	if err != nil {
		t.Fatal(err)
	}
	cfg := runtime.Config{RingCapacity: 1, Batch: 1}
	m, err := runtime.Serve(context.Background(), res.Stages, netbench.NewWorld(nil), runtime.Packets(traffic), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if diff := interp.TraceEqual(seq, m.Trace); diff != "" {
		t.Fatalf("trace diverges under backpressure: %s", diff)
	}
	if m.Packets != n {
		t.Fatalf("served %d packets, want %d", m.Packets, n)
	}
}

// TestServeCancelDrainsCleanly is the leak check over every Serve exit
// path — cancel mid-stream, source exhausted, a fatal stage error (the
// step limit) — on every realization shape: a lone head unit, a ringed and
// a fully fused D=4 pipeline, a dispatched IPv4 pipeline, and the sharded
// QM pipeline (dispatcher → fan-in → scatter → fan-in). Each case must
// return the right error promptly and leave no goroutine behind.
func TestServeCancelDrainsCleanly(t *testing.T) {
	partition := func(prog *ir.Program, d int) []*ir.Program {
		t.Helper()
		res, err := core.Partition(prog, core.Options{Stages: d})
		if err != nil {
			t.Fatal(err)
		}
		return res.Stages
	}
	app := func(name string) *ir.Program {
		t.Helper()
		pps, _ := netbench.ByName(name)
		prog, err := pps.Compile()
		if err != nil {
			t.Fatal(err)
		}
		return prog
	}
	// Spinning stages that blow the step limit on their first iteration:
	// a head (it owns the pkt_rx site), a stateless stage, and a
	// cross-flow one (a persistent counter keeps it unreplicated), so a
	// realization keeps its shape when its last stage is swapped for one.
	spinHead := partition(mustCompile(t, `pps S { loop { var n = pkt_rx(); while (1) { n = n + 1; } } }`), 1)[0]
	spin := partition(mustCompile(t, `pps S { loop { var i = 0; while (1) { i = i + 1; } } }`), 1)[0]
	spinCross := partition(mustCompile(t, `pps S { persistent var c = 0; loop { c = c + 1; while (c > 0) { c = c + 1; } } }`), 1)[0]

	ipv4, qm := app("IPv4"), app("QM")
	realizations := []struct {
		name   string
		stages []*ir.Program
		spin   *ir.Program // replaces the last stage on the fatal path
		shards int
		fuse   bool
		reps   []int // per-stage replica widths the realization runs
	}{
		{"D=1/head", partition(ipv4, 1), spinHead, 1, false, []int{1}},
		{"D=4/ringed", partition(ipv4, 4), spin, 1, false, []int{1, 1, 1, 1}},
		{"D=4/fused", partition(ipv4, 4), spin, 1, true, []int{1, 1, 1, 1}},
		{"IPv4/D=2/P=2", partition(ipv4, 2), spin, 2, false, []int{2, 2}},
		{"QM/D=4/P=2", partition(qm, 4), spinCross, 2, false, []int{2, 1, 2, 1}},
	}
	traffic := netbench.IPv4Stream(64)
	const exhaustN = 1000
	for _, r := range realizations {
		for _, exit := range []string{"cancel", "exhausted", "fatal"} {
			t.Run(r.name+"/"+exit, func(t *testing.T) {
				before := gort.NumGoroutine()
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				stages := r.stages
				served := 0
				var src runtime.Source = runtime.SourceFunc(func() ([]byte, bool) {
					served++
					if exit == "cancel" && served == 500 {
						cancel() // the pipeline is demonstrably mid-stream
					}
					return traffic[served%len(traffic)], true // endless stream
				})
				switch exit {
				case "exhausted":
					src = runtime.Repeat(traffic, exhaustN)
				case "fatal":
					stages = append(append([]*ir.Program(nil), stages[:len(stages)-1]...), r.spin)
				}
				cfg := runtime.DefaultConfig()
				cfg.Batch = 8
				cfg.Shards = r.shards
				if r.fuse {
					cfg.FuseCuts = fuseShape("all", len(stages))
				}
				m, err := runtime.Serve(ctx, stages, netbench.NewWorld(nil), src, cfg)
				switch exit {
				case "cancel":
					if !errors.Is(err, context.Canceled) {
						t.Fatalf("err = %v, want context.Canceled", err)
					}
					if m == nil {
						t.Fatal("expected partial metrics on cancellation")
					}
				case "exhausted":
					if err != nil {
						t.Fatal(err)
					}
					if m.Packets != exhaustN {
						t.Fatalf("served %d packets, want %d", m.Packets, exhaustN)
					}
					for k, st := range m.Stages {
						if st.Replicas != r.reps[k] {
							t.Fatalf("stage %d ran %d replicas, want %d", k+1, st.Replicas, r.reps[k])
						}
					}
				case "fatal":
					if err == nil || !strings.Contains(err.Error(), "step limit") {
						t.Fatalf("err = %v, want a step-limit failure", err)
					}
				}
				// Every goroutine Serve started must be gone (allow the
				// scheduler a moment).
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
}

// TestValidateRejectsUnservable covers the servability contract.
func TestValidateRejectsUnservable(t *testing.T) {
	pps, _ := netbench.ByName("IPv4")
	prog, err := pps.Compile()
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Partition(prog, core.Options{Stages: 2})
	if err != nil {
		t.Fatal(err)
	}
	world := netbench.NewWorld(nil)
	src := runtime.Packets(nil)
	cases := []struct {
		name   string
		stages []*ir.Program
		world  *interp.World
		src    runtime.Source
		cfg    runtime.Config
		want   error
	}{
		{"no stages", nil, world, src, runtime.Config{}, errs.ErrNoStages},
		{"nil stage", []*ir.Program{nil}, world, src, runtime.Config{}, errs.ErrNilStage},
		{"two rx sites", []*ir.Program{res.Stages[0], res.Stages[0]}, world, src, runtime.Config{}, errs.ErrNotServable},
		{"nil world", res.Stages, nil, src, runtime.Config{}, errs.ErrNilWorld},
		{"nil source", res.Stages, world, nil, runtime.Config{}, errs.ErrNilSource},
		{"bad ring", res.Stages, world, src, runtime.Config{RingCapacity: -1}, errs.ErrBadRing},
		{"bad batch", res.Stages, world, src, runtime.Config{Batch: -1}, errs.ErrBadBatch},
	}
	for _, c := range cases {
		if _, err := runtime.Serve(context.Background(), c.stages, c.world, c.src, c.cfg); !errors.Is(err, c.want) {
			t.Errorf("%s: err = %v, want %v", c.name, err, c.want)
		}
	}

	// A stage list with no pkt_rx at all cannot pace the stream.
	norx, err := core.Partition(mustCompile(t, `pps NoRx { loop { trace(1); } }`), core.Options{Stages: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := runtime.Validate(norx.Stages); !errors.Is(err, errs.ErrNotServable) {
		t.Errorf("no-rx pipeline: err = %v, want ErrNotServable", err)
	}
}

func mustCompile(t *testing.T, src string) *ir.Program {
	t.Helper()
	pps := netbench.PPS{Name: "test", Source: src}
	prog, err := pps.Compile()
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// TestServeSourceExhaustionDrains checks the graceful-shutdown path: a
// source shorter than one batch still drains fully.
func TestServeSourceExhaustionDrains(t *testing.T) {
	pps, _ := netbench.ByName("RX")
	prog, err := pps.Compile()
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Partition(prog, core.Options{Stages: 3})
	if err != nil {
		t.Fatal(err)
	}
	traffic := pps.Traffic(5)
	cfg := runtime.DefaultConfig()
	cfg.Batch = 32 // much larger than the stream
	m, err := runtime.Serve(context.Background(), res.Stages, netbench.NewWorld(nil), runtime.Packets(traffic), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m.Packets != 5 {
		t.Fatalf("served %d packets, want 5", m.Packets)
	}
	seq, err := interp.RunSequential(prog, netbench.NewWorld(traffic), 5)
	if err != nil {
		t.Fatal(err)
	}
	if diff := interp.TraceEqual(seq, m.Trace); diff != "" {
		t.Fatal(diff)
	}
}

// TestHeadBusyIncludesSourcePulls pins the Busy contract the benchmark's
// per-layer ledger relies on: with no dispatcher, stage 1's unit pulls
// from the Source itself, so the time spent inside Source.Next is part of
// Stages[0].Busy; with a dispatcher the pulls happen on the dispatcher's
// goroutine and stage 1's Busy is execution only.
func TestHeadBusyIncludesSourcePulls(t *testing.T) {
	const n, nap = 100, 200 * time.Microsecond
	_, stages := partitionIPv4(t, 1)
	traffic := ipv4Traffic(n)
	for _, shards := range []int{1, 2} {
		pulled := 0
		src := runtime.SourceFunc(func() ([]byte, bool) {
			if pulled == n {
				return nil, false
			}
			time.Sleep(nap)
			pulled++
			return traffic[pulled-1], true
		})
		cfg := runtime.DefaultConfig()
		cfg.Batch = 8
		cfg.Shards = shards
		m, err := runtime.Serve(context.Background(), stages, netbench.NewWorld(nil), src, cfg)
		if err != nil {
			t.Fatal(err)
		}
		slept := time.Duration(n) * nap
		busy := m.Stages[0].Busy
		if shards == 1 && busy < slept {
			t.Errorf("P=1: stage 1 busy %v < %v slept inside Source.Next", busy, slept)
		}
		if shards == 2 && busy >= slept/2 {
			t.Errorf("P=2: stage 1 busy %v, want well under the %v the dispatcher slept", busy, slept)
		}
	}
}
