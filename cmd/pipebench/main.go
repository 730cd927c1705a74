// Command pipebench regenerates the paper's evaluation: figures 19-22 (PPS
// speedup and live-set transmission overhead versus pipelining degree for
// the NPF IPv4 forwarding and IP forwarding benchmarks), the headline >4x
// claim, and the ablations catalogued in DESIGN.md.
//
// Usage:
//
//	pipebench [-experiment all|fig19|fig20|fig21|fig22|headline|ablations|sim|serve|adapt|chaos|profile|replay|burst]
//	          [-j N] [-json FILE] [-backend compiled|interp] [-shards LIST] [-baseline FILE]
//	          [-pcap FILE] [-pcap-loops N] [-burst-packets N] [-cpuprofile FILE] [-memprofile FILE]
//
// Every PPS is analyzed once and the independent (PPS × degree) and
// ablation configurations are measured on -j worker goroutines (0, the
// default, selects one per CPU; 1 reproduces the sequential seed driver).
// The printed tables are byte-identical for every -j value.
//
// -experiment serve measures the host-native streaming runtime (wall-clock
// packets per second through goroutine pipelines); every multi-stage shape
// is measured both ringed and fused (all cuts realized as in-goroutine
// handoffs); -json FILE additionally writes those points as JSON (CI emits
// BENCH_serve.json this way).
// -experiment adapt runs the closed-loop adaptive serving experiment:
// hand-picked reference configurations are measured directly, then a
// deliberately mis-tuned pipeline is handed to Serve(WithAutotune) and the
// committed choice is re-measured; with -baseline FILE the auto-selected
// configuration must reach 90% of the best checked-in serve point.
// -experiment chaos sweeps the runtime's fault-injection layer, reporting
// delivery accounting and surviving throughput versus injected fault rate.
// -experiment replay streams the capture named by -pcap through the full
// sharded+fused pipeline, proves the served trace byte-identical to the
// sequential oracle over the decoded packets, then times -pcap-loops
// unpaced passes beside a matched-size synthetic generator run.
// -experiment burst sweeps the bursty paced generator's peak rate against
// the shed and degrade overload policies with a deliberately stalled
// stage, reporting the loss accounting per point (see EXPERIMENTS.md for
// the honest reading of the source-drop column).
// -experiment profile serves with the observability layer fully attached
// and prints a per-stage attribution table: measured host time (execute /
// ring-wait / transmit) beside the cost model's predicted balance, the
// table an operator reads to decide which knob to turn (see DESIGN.md §8).
// All three are excluded from -experiment all because their timing output
// is inherently not byte-stable, while all's tables are.
//
// -backend selects the serve experiment's stage-execution backend
// (compiled, the default, or interp — the reference interpreter).
// -shards gives the serve experiment's shard-width sweep as a
// comma-separated list (default "1,2,4": each pipeline configuration is
// also measured replicated P ways behind the flow-hash dispatcher).
// -baseline FILE gates the serve experiment against a checked-in
// BENCH_serve.json: a >10% pkt/s regression at any guarded point — (D=1,
// batch=32, P=1), (D=1, batch=32, P=4), (D=4, batch=32, P=1), or the
// fused (D=4, batch=32, P=1) realization — fails the run before -json
// overwrites the file. -cpuprofile and -memprofile
// write pprof profiles of whatever experiment ran.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime/pprof"
	"strconv"
	"strings"

	"repro/internal/experiments"
	"repro/internal/runtime"
)

func main() { os.Exit(realMain()) }

// parseShards parses the -shards sweep list ("1,2,4").
func parseShards(s string) ([]int, error) {
	var out []int
	for _, f := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad -shards entry %q (want positive integers, comma-separated)", f)
		}
		out = append(out, n)
	}
	return out, nil
}

func realMain() int {
	which := flag.String("experiment", "all", "which experiment to run")
	jobs := flag.Int("j", 0, "worker goroutines for independent configurations (0 = one per CPU, 1 = sequential)")
	jsonOut := flag.String("json", "", "write the serve experiment's points to this file as JSON")
	servePkts := flag.Int("serve-packets", 200000, "packets streamed per serve configuration")
	backendName := flag.String("backend", "compiled", "serve stage-execution backend: compiled|interp")
	shardsList := flag.String("shards", "1,2,4", "comma-separated shard widths the serve experiment sweeps")
	baseline := flag.String("baseline", "", "fail the serve experiment if a guarded point's pkt/s regresses >10% below this JSON baseline")
	pcapPath := flag.String("pcap", "testdata/flows.pcap", "capture file the replay experiment streams")
	pcapLoops := flag.Int("pcap-loops", 8, "passes over the capture for the replay experiment's timed run")
	burstPkts := flag.Int("burst-packets", 20000, "packets per burst-resilience point")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile of the run to this file")
	flag.Parse()

	var backend runtime.Backend
	switch *backendName {
	case "compiled":
		backend = runtime.BackendCompiled
	case "interp":
		backend = runtime.BackendInterp
	default:
		fmt.Fprintf(os.Stderr, "pipebench: unknown -backend %q (want compiled|interp)\n", *backendName)
		return 2
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "pipebench: %v\n", err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "pipebench: %v\n", err)
			return 1
		}
		defer func() {
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "pipebench: %v\n", err)
			}
		}()
	}
	defer func() {
		if *memProfile == "" {
			return
		}
		f, err := os.Create(*memProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "pipebench: %v\n", err)
			return
		}
		defer f.Close()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "pipebench: %v\n", err)
		}
	}()

	exit := 0
	run := func(name string, fn func() error) {
		if exit != 0 || (*which != "all" && *which != name) {
			return
		}
		if err := fn(); err != nil {
			fmt.Fprintf(os.Stderr, "pipebench %s: %v\n", name, err)
			exit = 1
		}
	}

	run("fig19", func() error {
		s, err := experiments.Fig19SpeedupIPv4(0, *jobs)
		if err != nil {
			return err
		}
		fmt.Println(experiments.SpeedupTable(
			"Figure 19: speedup of the IPv4 forwarding PPSes vs pipelining degree", s))
		return nil
	})
	run("fig20", func() error {
		s, err := experiments.Fig20SpeedupIP(0, *jobs)
		if err != nil {
			return err
		}
		fmt.Println(experiments.SpeedupTable(
			"Figure 20: speedup of the IP forwarding PPSes vs pipelining degree", s))
		return nil
	})
	run("fig21", func() error {
		s, err := experiments.Fig21OverheadIPv4(0, *jobs)
		if err != nil {
			return err
		}
		fmt.Println(experiments.OverheadTable(
			"Figure 21: live-set transmission overhead, IPv4 forwarding PPSes", s))
		return nil
	})
	run("fig22", func() error {
		s, err := experiments.Fig22OverheadIP(0, *jobs)
		if err != nil {
			return err
		}
		fmt.Println(experiments.OverheadTable(
			"Figure 22: live-set transmission overhead, IP forwarding PPSes", s))
		return nil
	})
	run("headline", func() error {
		h, err := experiments.HeadlineClaim(*jobs)
		if err != nil {
			return err
		}
		fmt.Println("Headline claim (abstract): speedup at 9 pipeline stages")
		for _, k := range experiments.SortedKeys(h) {
			fmt.Printf("  %-8s %.2fx\n", k, h[k])
		}
		fmt.Println()
		return nil
	})
	run("ablations", func() error {
		fmt.Println("Ablation: transmission strategy (IP PPS, 4 stages)")
		tx, err := experiments.AblationTransmission("IP(v4)", 4, *jobs)
		if err != nil {
			return err
		}
		for _, a := range tx {
			fmt.Printf("  %-20s objects %3d  slots %3d  overhead %.3f\n",
				a.Mode, a.Objects, a.Slots, a.Overhead)
		}
		fmt.Println()

		fmt.Println("Ablation: balance variance ε (IPv4 PPS, 6 stages)")
		eps, err := experiments.AblationEpsilon("IPv4", 6,
			[]float64{1.0 / 64, 1.0 / 16, 1.0 / 4, 0.5}, *jobs)
		if err != nil {
			return err
		}
		for _, p := range eps {
			fmt.Printf("  eps %-7.4f speedup %.2fx  cut cost %4d  imbalance %.3f\n",
				p.Epsilon, p.Speedup, p.CutCost, p.Imbalance)
		}
		fmt.Println()

		fmt.Println("Ablation: balance weight function (IPv4 PPS, 6 stages; paper §6 future work)")
		wm, err := experiments.AblationWeightMode("IPv4", 6, *jobs)
		if err != nil {
			return err
		}
		for _, p := range wm {
			fmt.Printf("  %-8s max stage latency %5d  mean %7.1f  skew %.2f  instr speedup %.2fx\n",
				p.Mode, p.MaxStageLat, p.MeanStageLat, p.LatencySkew, p.InstrSpeedup)
		}
		fmt.Println()

		fmt.Println("Ablation: inter-stage ring kind (IPv4 PPS, 6 stages)")
		ch, err := experiments.AblationChannel("IPv4", 6, *jobs)
		if err != nil {
			return err
		}
		for _, p := range ch {
			fmt.Printf("  %-8s speedup %.2fx  overhead %.3f\n", p.Channel, p.Speedup, p.Overhead)
		}
		fmt.Println()
		return nil
	})
	// serve and chaos are opt-in only: unlike every table above, they print
	// measured wall-clock throughput, which would break the byte-identity
	// invariant of `-experiment all` output.
	runTimed := func(name string, fn func() error) {
		if exit != 0 || *which != name {
			return
		}
		if err := fn(); err != nil {
			fmt.Fprintf(os.Stderr, "pipebench %s: %v\n", name, err)
			exit = 1
		}
	}
	runTimed("serve", func() error {
		shards, err := parseShards(*shardsList)
		if err != nil {
			return err
		}
		fmt.Printf("Host runtime throughput (IPv4 PPS, goroutine-per-stage serve, %s backend)\n", backend)
		pts, err := experiments.ServeThroughput("IPv4", []int{1, 2, 4, 8}, []int{1, 32}, shards, *servePkts, backend)
		if err != nil {
			return err
		}
		for _, p := range pts {
			tag := "      "
			if p.Fused {
				tag = " fused"
			}
			fmt.Printf("  %d stage(s), batch %2d, P=%d%s: %12.0f pkt/s  (%.2fx vs sequential)\n",
				p.Degree, p.Batch, p.Shards, tag, p.PktPerS, p.Speedup)
		}
		fmt.Println()
		// Gate against the checked-in baseline before -json may overwrite it.
		if *baseline != "" {
			if err := experiments.CheckServeBaseline(pts, *baseline); err != nil {
				return err
			}
			fmt.Printf("baseline %s: within tolerance\n", *baseline)
		}
		if *jsonOut != "" {
			data, err := json.MarshalIndent(pts, "", "  ")
			if err != nil {
				return err
			}
			if err := os.WriteFile(*jsonOut, append(data, '\n'), 0o644); err != nil {
				return err
			}
			fmt.Printf("wrote %s\n", *jsonOut)
		}
		return nil
	})
	runTimed("adapt", func() error {
		fmt.Println("Closed-loop adaptive serving (IPv4 PPS, mis-tuned start: D=4, batch=1)")
		rep, err := experiments.Adapt("IPv4", *servePkts)
		if err != nil {
			return err
		}
		fmt.Println("  hand-picked points:")
		for _, h := range rep.Hand {
			fmt.Printf("    %-22s %12.0f pkt/s\n", h.Label, h.PktPerS)
		}
		fit := "uncalibrated"
		if rep.Calibrated {
			fit = fmt.Sprintf("calibrated, R²=%.3f, %.2f ns/weight", rep.R2, rep.NsPerWeight)
		}
		fmt.Printf("  adaptive run (probes + swap): %12.0f pkt/s  (%s)\n", rep.AdaptivePktPerS, fit)
		fmt.Printf("  auto-selected, re-measured:\n    %-22s %12.0f pkt/s\n", rep.Auto.Label, rep.Auto.PktPerS)
		fmt.Printf("  decision: %s\n", rep.Why)
		fmt.Println()
		if *baseline != "" {
			if err := experiments.CheckAdaptGate(rep, *baseline); err != nil {
				return err
			}
			fmt.Printf("adapt gate vs %s: within tolerance\n", *baseline)
		}
		if *jsonOut != "" {
			data, err := json.MarshalIndent(rep, "", "  ")
			if err != nil {
				return err
			}
			if err := os.WriteFile(*jsonOut, append(data, '\n'), 0o644); err != nil {
				return err
			}
			fmt.Printf("wrote %s\n", *jsonOut)
		}
		return nil
	})
	runTimed("profile", func() error {
		var results []*experiments.ProfileResult
		for _, d := range []int{2, 4, 8} {
			r, err := experiments.Profile("IPv4", d, 32, *servePkts)
			if err != nil {
				return err
			}
			results = append(results, r)
			fmt.Println(experiments.ProfileTable(r))
		}
		if *jsonOut != "" {
			data, err := json.MarshalIndent(results, "", "  ")
			if err != nil {
				return err
			}
			if err := os.WriteFile(*jsonOut, append(data, '\n'), 0o644); err != nil {
				return err
			}
			fmt.Printf("wrote %s\n", *jsonOut)
		}
		return nil
	})
	runTimed("replay", func() error {
		rep, err := experiments.Replay("IPv4", *pcapPath, *pcapLoops, backend)
		if err != nil {
			return err
		}
		fmt.Printf("Pcap replay through the full pipeline (IPv4 PPS, D=%d, P=%d, fused, %s backend)\n",
			rep.Degree, rep.Shards, backend)
		fmt.Printf("  capture %s: %d packets / %d bytes per pass, trace verified against the oracle\n",
			rep.Pcap, rep.Packets, rep.Bytes)
		fmt.Printf("  replay  x%d passes: %12.0f pkt/s\n", rep.Loops, rep.ReplayPktPerS)
		fmt.Printf("  synthetic twin     : %12.0f pkt/s  (generator, same packet count)\n", rep.SynthPktPerS)
		fmt.Println()
		if *jsonOut != "" {
			data, err := json.MarshalIndent(rep, "", "  ")
			if err != nil {
				return err
			}
			if err := os.WriteFile(*jsonOut, append(data, '\n'), 0o644); err != nil {
				return err
			}
			fmt.Printf("wrote %s\n", *jsonOut)
		}
		return nil
	})
	runTimed("burst", func() error {
		fmt.Println("Burst resilience (IPv4 PPS, D=4, stage 2 stalled to ~60k pkt/s, paced bursty source)")
		pts, err := experiments.BurstResilience("IPv4", []float64{20_000, 100_000, 400_000}, *burstPkts)
		if err != nil {
			return err
		}
		for _, p := range pts {
			fmt.Printf("  peak %7.0f pkt/s  %-8s delivered %6d/%6d  shed %6d  degraded %6d  source drops %d\n",
				p.PeakRate, p.Policy, p.Delivered, p.Packets, p.Shed, p.Degraded, p.SourceDrops)
		}
		fmt.Println()
		if *jsonOut != "" {
			data, err := json.MarshalIndent(pts, "", "  ")
			if err != nil {
				return err
			}
			if err := os.WriteFile(*jsonOut, append(data, '\n'), 0o644); err != nil {
				return err
			}
			fmt.Printf("wrote %s\n", *jsonOut)
		}
		return nil
	})
	runTimed("chaos", func() error {
		fmt.Println("Graceful degradation under injected faults (IPv4 PPS, 4 stages)")
		pts, err := experiments.ChaosResilience("IPv4", 4, []int64{0, 100, 20, 10, 5}, *servePkts)
		if err != nil {
			return err
		}
		for _, p := range pts {
			label := "clean"
			if p.Every > 0 {
				label = fmt.Sprintf("%4.1f%% faults", p.FaultPct)
			}
			fmt.Printf("  %-12s delivered %7d/%7d  quarantined %6d  retries %4d  %12.0f pkt/s (%.2fx of clean)\n",
				label, p.Delivered, p.Packets, p.Quarantined, p.Retries, p.PktPerS, p.Relative)
		}
		fmt.Println()
		if *jsonOut != "" {
			data, err := json.MarshalIndent(pts, "", "  ")
			if err != nil {
				return err
			}
			if err := os.WriteFile(*jsonOut, append(data, '\n'), 0o644); err != nil {
				return err
			}
			fmt.Printf("wrote %s\n", *jsonOut)
		}
		return nil
	})
	run("sim", func() error {
		fmt.Println("Simulator throughput (IPv4 PPS, saturated arrivals)")
		pts, err := experiments.SimThroughput("IPv4", []int{1, 2, 4, 6, 8, 10}, 300, *jobs)
		if err != nil {
			return err
		}
		for _, p := range pts {
			fmt.Printf("  %2d stages: %8.1f cycles/packet  (dynamic speedup %.2fx)\n",
				p.Degree, p.CyclesPerPacket, p.SpeedupDynamic)
		}
		fmt.Println()

		fmt.Println("Thread-level simulator: latency hiding (IPv4 PPS, 4 stages)")
		tp, err := experiments.ThreadLatencyHiding("IPv4", 4, 200, *jobs)
		if err != nil {
			return err
		}
		for _, p := range tp {
			fmt.Printf("  %d thread(s)/PE: %8.1f cycles/packet  (issue busy %.0f%%)\n",
				p.Threads, p.CyclesPerPacket, p.IssueBusy*100)
		}
		fmt.Println()
		return nil
	})
	return exit
}
