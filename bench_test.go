// Benchmark harness: one benchmark per table/figure of the paper's
// evaluation (PLDI 2005, section 4), plus the ablations catalogued in
// DESIGN.md. Figure metrics (speedup, overhead, slots) are attached with
// b.ReportMetric; `go test -bench=. -benchmem` regenerates every series,
// and `cmd/pipebench` prints them as tables.
package repro_test

import (
	"context"
	"fmt"
	"testing"

	"repro"
	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/experiments"
	"repro/internal/netbench"
	"repro/internal/npsim"
)

// reportSeries attaches a sweep's per-degree metric to the benchmark.
func reportSeries(b *testing.B, series []experiments.Series, metric func(experiments.Series, int) float64, unit string) {
	b.Helper()
	for _, s := range series {
		for i, d := range s.Degrees {
			b.ReportMetric(metric(s, i), fmt.Sprintf("%s_%s_d%d", unit, s.PPS, d))
		}
	}
}

// BenchmarkFig19SpeedupIPv4Forwarding regenerates figure 19: speedup of
// the RX, IPv4, Scheduler, QM and TX stages versus pipelining degree.
func BenchmarkFig19SpeedupIPv4Forwarding(b *testing.B) {
	var series []experiments.Series
	for i := 0; i < b.N; i++ {
		var err error
		series, err = experiments.Fig19SpeedupIPv4(0, 0)
		if err != nil {
			b.Fatal(err)
		}
	}
	reportSeries(b, series, func(s experiments.Series, i int) float64 { return s.Speedup[i] }, "speedup")
}

// BenchmarkFig20SpeedupIPForwarding regenerates figure 20: speedup of the
// RX, IP (IPv4 traffic), IP (IPv6 traffic) and TX stages.
func BenchmarkFig20SpeedupIPForwarding(b *testing.B) {
	var series []experiments.Series
	for i := 0; i < b.N; i++ {
		var err error
		series, err = experiments.Fig20SpeedupIP(0, 0)
		if err != nil {
			b.Fatal(err)
		}
	}
	reportSeries(b, series, func(s experiments.Series, i int) float64 { return s.Speedup[i] }, "speedup")
}

// BenchmarkFig21OverheadIPv4Forwarding regenerates figure 21: the live-set
// transmission overhead ratio in the longest stage.
func BenchmarkFig21OverheadIPv4Forwarding(b *testing.B) {
	var series []experiments.Series
	for i := 0; i < b.N; i++ {
		var err error
		series, err = experiments.Fig21OverheadIPv4(0, 0)
		if err != nil {
			b.Fatal(err)
		}
	}
	reportSeries(b, series, func(s experiments.Series, i int) float64 { return s.Overhead[i] }, "overhead")
}

// BenchmarkFig22OverheadIPForwarding regenerates figure 22.
func BenchmarkFig22OverheadIPForwarding(b *testing.B) {
	var series []experiments.Series
	for i := 0; i < b.N; i++ {
		var err error
		series, err = experiments.Fig22OverheadIP(0, 0)
		if err != nil {
			b.Fatal(err)
		}
	}
	reportSeries(b, series, func(s experiments.Series, i int) float64 { return s.Overhead[i] }, "overhead")
}

// BenchmarkAblationTransmissionModes compares packed, naive-interference
// and naive-unified transmission (paper figures 10-16) on the IP PPS.
func BenchmarkAblationTransmissionModes(b *testing.B) {
	var abl []experiments.TxAblation
	for i := 0; i < b.N; i++ {
		var err error
		abl, err = experiments.AblationTransmission("IP(v4)", 4, 0)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, a := range abl {
		b.ReportMetric(float64(a.Slots), "slots_"+a.Mode.String())
		b.ReportMetric(a.Overhead, "overhead_"+a.Mode.String())
	}
}

// BenchmarkAblationBalanceVariance sweeps ε (paper section 3.3: the
// balance/cut-cost trade-off; the product used 1/16).
func BenchmarkAblationBalanceVariance(b *testing.B) {
	var pts []experiments.EpsilonPoint
	for i := 0; i < b.N; i++ {
		var err error
		pts, err = experiments.AblationEpsilon("IPv4", 6, []float64{1.0 / 64, 1.0 / 16, 1.0 / 4, 0.5}, 0)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, p := range pts {
		b.ReportMetric(float64(p.CutCost), fmt.Sprintf("cutcost_eps%.4f", p.Epsilon))
		b.ReportMetric(p.Imbalance, fmt.Sprintf("imbalance_eps%.4f", p.Epsilon))
	}
}

// BenchmarkAblationChannelKind compares nearest-neighbor and scratch rings
// (paper section 2.1).
func BenchmarkAblationChannelKind(b *testing.B) {
	var pts []experiments.ChannelPoint
	for i := 0; i < b.N; i++ {
		var err error
		pts, err = experiments.AblationChannel("IPv4", 6, 0)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, p := range pts {
		b.ReportMetric(p.Speedup, "speedup_"+p.Channel.String())
	}
}

// BenchmarkAblationWeightMode compares the production weight function
// (instruction count) with the paper's proposed future-work extension
// (distributing IO latency over the stages, §6).
func BenchmarkAblationWeightMode(b *testing.B) {
	var pts []experiments.WeightModePoint
	for i := 0; i < b.N; i++ {
		var err error
		pts, err = experiments.AblationWeightMode("IPv4", 6, 0)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, p := range pts {
		b.ReportMetric(p.LatencySkew, "latency_skew_"+p.Mode.String())
		b.ReportMetric(p.InstrSpeedup, "speedup_"+p.Mode.String())
	}
}

// BenchmarkAblationInterference measures the interference relations
// directly: exact (impossible paths excluded) versus naive, on a program
// with the paper's t2/t3 exclusive-arm structure.
func BenchmarkAblationInterference(b *testing.B) {
	// The paper's figure 9 shape: t2 and t3 are defined in exclusive arms
	// whose bodies are heavy enough that the balanced cut splits BOTH arms
	// mid-way. With impossible paths excluded, t2 and t3 never cross the
	// cut on the same execution, so packing shares one slot; without the
	// exclusion (figure 13) they falsely interfere and travel separately.
	src := `pps P { loop {
		var p = pkt_rx();
		if (p > 0) {
			var t2 = hash_crc(p * 11);
			var a1 = hash_crc(t2 ^ 1);
			var a2 = hash_crc(a1 + 2);
			var a3 = hash_crc(a2 ^ 3);
			trace(t2 ^ a3);
		} else {
			var t3 = hash_crc(p * 13);
			var b1 = hash_crc(t3 ^ 4);
			var b2 = hash_crc(b1 + 5);
			var b3 = hash_crc(b2 ^ 6);
			trace(t3 ^ b3);
		}
	} }`
	prog := repro.MustCompile(src)
	var packed, naive int
	for i := 0; i < b.N; i++ {
		rp, err := repro.Partition(prog, repro.WithStages(2), repro.WithTxMode(repro.TxPacked))
		if err != nil {
			b.Fatal(err)
		}
		rn, err := repro.Partition(prog, repro.WithStages(2), repro.WithTxMode(repro.TxNaiveUnified))
		if err != nil {
			b.Fatal(err)
		}
		packed, naive = rp.Report().Cuts[0].Slots, rn.Report().Cuts[0].Slots
	}
	b.ReportMetric(float64(packed), "slots_packed")
	b.ReportMetric(float64(naive), "slots_naive")
}

// BenchmarkSimThroughput runs the dynamic (cycle-simulator) counterpart of
// figures 19/20 for the IPv4 PPS.
func BenchmarkSimThroughput(b *testing.B) {
	var pts []experiments.ThroughputPoint
	for i := 0; i < b.N; i++ {
		var err error
		pts, err = experiments.SimThroughput("IPv4", []int{1, 2, 4, 8}, 200, 0)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, p := range pts {
		b.ReportMetric(p.CyclesPerPacket, fmt.Sprintf("cyc_per_pkt_d%d", p.Degree))
	}
}

// BenchmarkPartitionIPv4 measures the compiler itself: the cost of
// partitioning the largest benchmark PPS nine ways.
func BenchmarkPartitionIPv4(b *testing.B) {
	p, _ := netbench.ByName("IPv4")
	prog, err := p.Compile()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Partition(prog, core.Options{Stages: 9}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAnalyzeOnceCutMany measures the two-phase API the way the
// experiment sweeps use it: one Analyze, then a full degree sweep of cheap
// Partition calls against the shared analysis. Compare with
// BenchmarkPartitionIPv4 (which re-analyzes on every call) for the payoff
// of the phase split.
func BenchmarkAnalyzeOnceCutMany(b *testing.B) {
	p, _ := netbench.ByName("IPv4")
	prog, err := p.Compile()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a, err := core.Analyze(prog, nil)
		if err != nil {
			b.Fatal(err)
		}
		for _, d := range experiments.Degrees {
			if _, err := a.Partition(core.Options{Stages: d}); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkExploreParallel measures the budget exploration with the degree
// fan-out enabled (one worker per CPU; on a single-core machine this
// coincides with the sequential path).
func BenchmarkExploreParallel(b *testing.B) {
	p, _ := netbench.ByName("IPv4")
	prog, err := p.Compile()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Explore(prog, core.ExploreOptions{Budget: 200, Workers: 0}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkInterpreter measures the execution substrate: sequential
// interpretation of the IPv4 PPS per packet.
func BenchmarkInterpreter(b *testing.B) {
	p, _ := netbench.ByName("IPv4")
	prog, err := p.Compile()
	if err != nil {
		b.Fatal(err)
	}
	oracle, err := repro.Partition(prog, repro.WithStages(1))
	if err != nil {
		b.Fatal(err)
	}
	world := netbench.NewWorld(p.Traffic(b.N))
	b.ResetTimer()
	if _, err := oracle.Run(context.Background(), world, repro.WithIterations(b.N)); err != nil {
		b.Fatal(err)
	}
}

// benchmarkServe measures the host-native streaming runtime on the IPv4
// PPS: packets per second through a D-stage goroutine pipeline executing
// stages on the given backend. Extra serve options (fusion mode, shards)
// are passed through.
func benchmarkServe(b *testing.B, degree, batch int, backend repro.Backend, opts ...repro.Option) {
	p, _ := netbench.ByName("IPv4")
	prog, err := p.Compile()
	if err != nil {
		b.Fatal(err)
	}
	pipe, err := repro.Partition(prog, repro.WithStages(degree))
	if err != nil {
		b.Fatal(err)
	}
	traffic := p.Traffic(256)
	world := netbench.NewWorld(nil)
	b.ResetTimer()
	m, err := pipe.Serve(context.Background(), repro.RepeatSource(traffic, b.N),
		append([]repro.Option{repro.WithWorld(world), repro.WithBatch(batch), repro.WithBackend(backend)}, opts...)...)
	if err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	if m.Packets != int64(b.N) {
		b.Fatalf("served %d packets, want %d", m.Packets, b.N)
	}
	b.ReportMetric(m.PacketsPerSecond(), "pkt/s")
}

// BenchmarkServeIPv4Sequential is the single-stage host baseline the
// pipelined serve benchmarks are compared against (compiled backend — the
// serve default).
func BenchmarkServeIPv4Sequential(b *testing.B) { benchmarkServe(b, 1, 1, repro.BackendCompiled) }

// BenchmarkServeIPv4D2 serves through a 2-stage goroutine pipeline.
func BenchmarkServeIPv4D2(b *testing.B) { benchmarkServe(b, 2, 1, repro.BackendCompiled) }

// BenchmarkServeIPv4D4 serves through a 4-stage goroutine pipeline — the
// configuration EXPERIMENTS.md tabulates.
func BenchmarkServeIPv4D4(b *testing.B) { benchmarkServe(b, 4, 1, repro.BackendCompiled) }

// BenchmarkServeIPv4D4Batch32 adds transmission batching, amortizing ring
// synchronization over 32 iterations per ring entry.
func BenchmarkServeIPv4D4Batch32(b *testing.B) { benchmarkServe(b, 4, 32, repro.BackendCompiled) }

// BenchmarkServeIPv4D4Fused and BenchmarkServeIPv4D4Unfused are the
// fusion-comparison pair at the perf-gate shape (D=4, batch 32): Fused
// lets the valuator realize ring-unworthy cuts as fused units
// (FusionAuto, the serve default); Unfused pins every cut to a
// ring. On hosts where the valuator fuses (few cores, or stage work far
// below the ring tax), Fused measures the zero-copy handoff path.
func BenchmarkServeIPv4D4Fused(b *testing.B) { benchmarkServe(b, 4, 32, repro.BackendCompiled) }

func BenchmarkServeIPv4D4Unfused(b *testing.B) {
	benchmarkServe(b, 4, 32, repro.BackendCompiled, repro.WithFusion(repro.FusionOff))
}

// BenchmarkServeIPv4D1Batch32Compiled and its Interp twin are the
// backend-comparison pair: one stage, batch 32, so ring synchronization is
// amortized and the measurement isolates the stage-execution substrate
// (EXPERIMENTS.md §Host throughput tabulates the pair; the 50k-packet
// pipebench run is the canonical ratio — at b.N≈10⁶ here, trace
// retention compresses it).
func BenchmarkServeIPv4D1Batch32Compiled(b *testing.B) {
	benchmarkServe(b, 1, 32, repro.BackendCompiled)
}

// BenchmarkServeIPv4D1Batch32Interp is the interpreter half of the
// backend-comparison pair.
func BenchmarkServeIPv4D1Batch32Interp(b *testing.B) { benchmarkServe(b, 1, 32, repro.BackendInterp) }

// BenchmarkServeIPv4D4Batch32Interp serves the EXPERIMENTS.md pipeline
// configuration on the interpreter, for before/after comparison with
// BenchmarkServeIPv4D4Batch32.
func BenchmarkServeIPv4D4Batch32Interp(b *testing.B) { benchmarkServe(b, 4, 32, repro.BackendInterp) }

// BenchmarkSimulator measures the npsim substrate end to end.
func BenchmarkSimulator(b *testing.B) {
	p, _ := netbench.ByName("IPv4")
	prog, err := p.Compile()
	if err != nil {
		b.Fatal(err)
	}
	res, err := core.Partition(prog, core.Options{Stages: 4})
	if err != nil {
		b.Fatal(err)
	}
	cfg := npsim.DefaultConfig()
	cfg.Arch = costmodel.Default()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := npsim.Simulate(res.Stages, netbench.NewWorld(p.Traffic(50)), 50, cfg); err != nil {
			b.Fatal(err)
		}
	}
}
