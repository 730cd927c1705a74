package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"repro"
	"repro/internal/netbench"
	"repro/internal/obsv"
)

// The IPv4 workloads serve the NPF IPv4 PPS in rounds. Each round starts
// from PPC source text (compile, analyze, partition, serve start-up: the
// set-up), serves one copy of the packet set to exhaustion, and is then
// checked against the oracle outside the timed window. Rounds repeat until
// the run's time is spent, and the run reports medians over rounds, so a
// noisy moment moves one sample rather than the result. The first round
// only warms up and is not counted.
const (
	closedPackets = 1 << 17 // packets per round, closed loop
	openPackets   = 1 << 16 // packets per round, open loop (~0.33 s of schedule)
	serveBatch    = 32
	minRounds     = 3
	maxExplore    = 8 // the explore sweep cuts at D = 1..maxExplore
)

// p2Schedule is ipv4-p2-open's offered load: a third or less of what one
// stage serves closed-loop on a 2-core host, in bursts at twice the mean.
var p2Schedule = scheduleConfig{Mean: 200e3, Peak: 400e3, MeanOn: 5 * time.Millisecond}

// round is one serve round's measurements.
type round struct {
	compile, analyze, partition time.Duration
	setup                       time.Duration  // source text to first Pull
	wall                        time.Duration  // first Pull to Serve's return
	cpu                         time.Duration  // process CPU during Serve
	rssMB                       float64        // the process's peak resident set during the round
	prog                        *repro.Program // dropped once the round's sweep has run
	stages                      []*repro.Program
	plan                        *repro.Plan
	m                           *repro.Metrics
	src                         *benchSource
	resid                       []time.Duration // batch residence times from the runtime's tracer (observed rounds)
}

func (r *round) pktsPerSec() float64 { return float64(r.m.Packets) / r.wall.Seconds() }

// serveRound runs one round. With observe set it also attaches the
// runtime's own span tracer through the public WithObserver option.
func serveRound(w workload, pkts [][]byte, due []time.Duration, lags *[]time.Duration, log *spanLog, observe bool) (*round, error) {
	id := log.root("round")
	world := netbench.NewWorld(nil)
	src := newBenchSource(copyPackets(pkts), due, lags)
	src.spans, src.parent = log, id
	r := &round{src: src}

	t0 := time.Now()
	prog, err := repro.Compile(netbench.IPv4Src)
	if err != nil {
		return nil, err
	}
	t1 := time.Now()
	an, err := repro.Analyze(prog)
	if err != nil {
		return nil, err
	}
	t2 := time.Now()
	pipe, err := an.Partition(repro.WithStages(w.degree))
	if err != nil {
		return nil, err
	}
	t3 := time.Now()
	opts := []repro.Option{repro.WithSource(src), repro.WithWorld(world), repro.WithBatch(serveBatch)}
	if w.shards > 1 {
		opts = append(opts, repro.WithShards(w.shards))
	}
	var tracer *repro.Tracer
	if observe {
		tracer = repro.NewTracer(1 << 20)
		opts = append(opts, repro.WithObserver(&repro.Observer{Tracer: tracer}))
	}
	c0 := cpuTime()
	m, err := pipe.Serve(context.Background(), nil, opts...)
	t4 := time.Now()
	r.cpu = cpuTime() - c0
	if err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	log.add("ppc.Compile", id, t0, t1)
	log.add("core.Analyze", id, t1, t2)
	log.add("core.Partition", id, t2, t3)
	log.add("repro.Serve", id, t3, t4)
	log.fill(id, t0, t4)
	r.compile, r.analyze, r.partition = t1.Sub(t0), t2.Sub(t1), t3.Sub(t2)
	r.setup, r.wall = src.start.Sub(t0), t4.Sub(src.start)
	r.prog, r.stages, r.plan, r.m = prog, pipe.Stages(), pipe.Plan(), m
	for _, b := range obsv.BatchLatencies(tracer.Spans()) {
		r.resid = append(r.resid, b.Latency)
	}
	src.pkts = nil
	return r, nil
}

// sweep times one Analyze plus Partition at D = 1..maxExplore of prog and
// returns the total and the D = maxExplore cut alone.
func sweep(prog *repro.Program, log *spanLog) (total, deepest time.Duration, err error) {
	id := log.root("explore.sweep")
	t0 := time.Now()
	an, err := repro.Analyze(prog)
	if err != nil {
		return 0, 0, err
	}
	log.add("core.Analyze", id, t0, time.Now())
	for d := 1; d <= maxExplore; d++ {
		p0 := time.Now()
		if _, err := an.Partition(repro.WithStages(d)); err != nil {
			return 0, 0, fmt.Errorf("partition D=%d: %w", d, err)
		}
		deepest = time.Since(p0)
		log.add("core.Partition", id, p0, time.Now())
	}
	end := time.Now()
	log.fill(id, t0, end)
	return end.Sub(t0), deepest, nil
}

// runServe runs one of the IPv4 workloads.
func runServe(opt options) (*result, *runInfo, error) {
	w := opt.w
	n := closedPackets
	var due []time.Duration
	if w.open {
		n = openPackets
		due = genSchedule(opt.seed, n, p2Schedule).Due
	}
	pkts := genTraffic(opt.seed, defaultTraffic(n))
	prog, err := repro.Compile(netbench.IPv4Src)
	if err != nil {
		return nil, nil, err
	}
	want, err := oracleTrace(prog, pkts)
	if err != nil {
		return nil, nil, fmt.Errorf("oracle: %w", err)
	}
	var log *spanLog
	res := newResult(endToEnd)
	if opt.trace {
		log = newSpanLog()
		res = newResult(perLayer())
	}
	info := &runInfo{Packets: n, InputDigest: inputDigest(pkts, due)}

	// check compares a round's served trace with the oracle, then drops
	// the trace (the largest allocation of the round).
	check := func(r *round) {
		if tamper != nil {
			tamper(r.m.Trace)
		}
		bad := int64(divergent(r.m.Trace, want))
		res.Attempted += int64(n)
		res.Failed += min(bad, int64(n))
		r.m.Trace = nil
	}
	warm, err := serveRound(w, pkts, due, nil, nil, false)
	if err != nil {
		return nil, nil, err
	}
	check(warm)

	var plain, observed []*round
	var sweeps, deepest []time.Duration
	var lags []time.Duration // admission lags of the plain rounds, kept by traced runs
	var kept []repro.Event   // the latest observed round's trace, for the retained-heap probe
	g0 := readGoStats()
	deadline := time.Now().Add(opt.duration)
	for i := 0; len(plain) < minRounds || time.Now().Before(deadline); i++ {
		// A traced run alternates plain rounds, which carry no tracing,
		// with observed ones, which record spans; the per-layer counters
		// come from the former and the span-derived figures from the
		// latter, and their throughputs differ by the tracing overhead.
		observe := opt.trace && i%2 == 1
		var roundLags *[]time.Duration
		var roundLog *spanLog
		switch {
		case observe:
			roundLog = log
		case opt.trace:
			roundLags = &lags
		}
		// Each timed section starts from a collected heap, so garbage the
		// previous section left (a dropped trace, a sweep's analyses) is
		// not collected on this one's clock; what a section allocates
		// itself is still collected while it runs.
		runtime.GC()
		resetPeakRSS()
		r, err := serveRound(w, pkts, due, roundLags, roundLog, observe)
		if err != nil {
			return nil, nil, err
		}
		if observe {
			observed = append(observed, r)
			kept = r.m.Trace
		} else {
			plain = append(plain, r)
		}
		check(r)
		runtime.GC()
		s, d, err := sweep(r.prog, roundLog)
		if err != nil {
			return nil, nil, err
		}
		sweeps, deepest = append(sweeps, s), append(deepest, d)
		r.prog = nil
		r.rssMB = peakRSSMB()
	}
	g1 := readGoStats()
	info.Rounds = len(plain) + len(observed)
	res.Correct = res.Failed == 0

	if !opt.trace {
		var pps, cpu, setup, rss []float64
		for _, r := range plain {
			rss = append(rss, r.rssMB)
			pps = append(pps, r.pktsPerSec())
			cpu = append(cpu, float64(r.cpu.Nanoseconds())/float64(r.m.Packets))
			setup = append(setup, r.setup.Seconds())
		}
		res.set("pkts_per_s", median(pps))
		res.set("cpu_ns_per_pkt", median(cpu))
		res.set("setup_s", median(setup))
		res.set("explore_s", median(secondsOf(sweeps)))
		res.set("peak_rss_mb", median(rss))
		return res, info, nil
	}

	ls := serveLayers{n: n, pkts: pkts, want: want, plain: plain, observed: observed,
		deepest: deepest, lags: lags, go0: g0, go1: g1, log: log}
	if err := ls.report(res); err != nil {
		return nil, nil, err
	}
	res.set("runtime.trace_events", float64(len(kept)))
	res.set("runtime.retained_mb", retainedMB(&kept))
	if err := log.write(opt.spansOut); err != nil {
		return nil, nil, fmt.Errorf("writing spans: %w", err)
	}
	return res, info, nil
}

// retainedMB is the live heap a served round's trace keeps reachable —
// Serve returns it inside Metrics and holds it until the round ends: the
// heap after a forced collection while *keep is reachable, minus the heap
// after one once it is released.
func retainedMB(keep *[]repro.Event) float64 {
	if *keep == nil {
		return 0
	}
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	with := ms.HeapAlloc
	runtime.KeepAlive(*keep)
	*keep = nil
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return (float64(with) - float64(ms.HeapAlloc)) / (1 << 20)
}

func secondsOf(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}
