package runtime_test

// Black-box coverage of the inter-stage rings through the public Config
// surface: served traces byte-identical to the sequential oracle for
// every benchmark pipeline, at every realization (ringed and fused) and
// shard width the matrix sweeps; blocked waits accounted exactly once;
// and stages that actually overlap when the host has the cores for it.

import (
	"context"
	"fmt"
	gort "runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/interp"
	"repro/internal/netbench"
	"repro/internal/runtime"
)

// TestRingOracleMatrix is the ring check: allApps × {ringed, fused} × P
// in {1, 4}, each point's merged trace byte-identical to the sequential
// oracle and its fault ledger balanced. The matrix is deliberately -race
// and -count=2 safe: every serve is self-contained (fresh world, fresh
// config), so the CI ring gate runs it under both to shake out ordering
// bugs in the handoff, close and drain protocol that a single quiet pass
// would miss.
func TestRingOracleMatrix(t *testing.T) {
	const n = 32
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
		const d = 4
		res, err := a.Partition(core.Options{Stages: d})
		if err != nil {
			t.Fatalf("%s D=%d: %v", pps.Name, d, err)
		}
		fuseAll := make([]bool, d-1)
		for k := range fuseAll {
			fuseAll[k] = true
		}
		for fi, fuse := range [][]bool{nil, fuseAll} {
			tag := []string{"ringed", "fused"}[fi]
			for _, p := range []int{1, 4} {
				name := fmt.Sprintf("%s/%s/P=%d", pps.Name, tag, p)
				world := netbench.NewWorld(nil)
				cfg := runtime.DefaultConfig()
				cfg.FuseCuts = fuse
				cfg.Shards = p
				m, err := runtime.Serve(context.Background(), res.Stages, world,
					runtime.Packets(traffic), cfg)
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
				if rep := m.Faults; rep.Accounted() != m.Stages[0].In {
					t.Errorf("%s: accounting hole: %s", name, rep)
				}
			}
		}
	}
}

// TestRingWaitCountersAccount checks the blocked-wait accounting is
// actually populated under backpressure: with single-entry rings and a
// deep pipeline, blocked waits must happen, and every blocked wait must be
// counted exactly once (SpinWait + ParkWait is the whole handoff wait,
// split the other way as TxWait + RxWait). A blocked channel operation
// parks at once, so the spin columns must stay empty.
func TestRingWaitCountersAccount(t *testing.T) {
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
	cfg := runtime.Config{RingCapacity: 1, Batch: 1}
	m, err := runtime.Serve(context.Background(), res.Stages, netbench.NewWorld(nil),
		runtime.Packets(pps.Traffic(n)), cfg)
	if err != nil {
		t.Fatal(err)
	}
	var waits int64
	for _, s := range m.Stages {
		waits += s.Parks
		if s.Spins != 0 || s.SpinWait != 0 {
			t.Errorf("stage %d: spin columns populated (spins=%d spin=%v); channel waits always park",
				s.Stage, s.Spins, s.SpinWait)
		}
		if s.SpinWait+s.ParkWait != s.TxWait+s.RxWait {
			t.Errorf("stage %d: spin/park split %v+%v disagrees with tx/rx split %v+%v",
				s.Stage, s.SpinWait, s.ParkWait, s.TxWait, s.RxWait)
		}
		if s.Parks == 0 && s.ParkWait > 0 {
			t.Errorf("stage %d: wait time %v without a counted wait", s.Stage, s.ParkWait)
		}
	}
	if waits == 0 {
		t.Error("single-entry rings over a deep pipeline produced no blocked waits")
	}
}

// TestRingMultiCorePipelineWins is the overlap check the rings exist for:
// on a host with enough cores to actually run stages concurrently, a D=4
// batched pipeline must at least match the D=1 realization of the same
// program. On narrower hosts the premise is false — the stages
// time-slice one core and the deep pipeline's handoffs are pure overhead
// — so the test skips honestly rather than asserting a property the
// hardware cannot exhibit.
func TestRingMultiCorePipelineWins(t *testing.T) {
	if testing.Short() {
		t.Skip("timing assertion; skipped in -short")
	}
	if ncpu := gort.NumCPU(); ncpu < 4 {
		t.Skipf("host has %d CPU(s); pipeline overlap needs >= 4", ncpu)
	}
	const n = 120000
	pps, _ := netbench.ByName("IPv4")
	prog, err := pps.Compile()
	if err != nil {
		t.Fatal(err)
	}
	a, err := core.Analyze(prog, nil)
	if err != nil {
		t.Fatal(err)
	}
	traffic := pps.Traffic(256)
	serve := func(d int) float64 {
		res, err := a.Partition(core.Options{Stages: d})
		if err != nil {
			t.Fatalf("D=%d: %v", d, err)
		}
		cfg := runtime.Config{Batch: 32}
		m, err := runtime.Serve(context.Background(), res.Stages, netbench.NewWorld(nil),
			runtime.Repeat(traffic, n), cfg)
		if err != nil {
			t.Fatalf("D=%d: %v", d, err)
		}
		return m.PacketsPerSecond()
	}
	d1, d4 := serve(1), serve(4)
	// 0.9: same-host timing noise allowance; the point is that the deep
	// pipeline is in the same league as D=1, not strictly above it on a
	// loaded CI box.
	if d4 < d1*0.9 {
		t.Errorf("D=4 pipeline serves %.0f pkt/s, below D=1's %.0f pkt/s on %d cores",
			d4, d1, gort.NumCPU())
	}
}
