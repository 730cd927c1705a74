package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"repro"
	"repro/internal/netbench"
)

// checkPackets is how many packets each partition of the explore sweep
// runs, through Pipeline.Run, against its program's sequential oracle.
const checkPackets = 64

// exploreProgram is one distinct PPS program of internal/netbench with the
// packets its partitions are checked on.
type exploreProgram struct {
	name, src string
	pkts      [][]byte
	want      []repro.Event
}

// explorePrograms collects every distinct PPS source in internal/netbench
// (several PPSes share one program), with check packets drawn from the
// PPS's own traffic at a seed-chosen offset.
func explorePrograms(seed uint64) ([]exploreProgram, error) {
	var out []exploreProgram
	seen := map[string]bool{}
	all := append(append(netbench.IPv4Forwarding(), netbench.IPForwarding()...), netbench.Segments()...)
	off := int(seed % 256)
	for _, p := range all {
		if seen[p.Source] {
			continue
		}
		seen[p.Source] = true
		prog, err := repro.Compile(p.Source)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p.Name, err)
		}
		pkts := p.Traffic(off + checkPackets)[off:]
		want, err := oracleTrace(prog, pkts)
		if err != nil {
			return nil, fmt.Errorf("%s oracle: %w", p.Name, err)
		}
		out = append(out, exploreProgram{name: p.Name, src: p.Source, pkts: pkts, want: want})
	}
	return out, nil
}

// exploreRound is one sweep's measurements.
type exploreRound struct {
	setup     time.Duration // compiling every program
	sweep     time.Duration // Analyze + Partition(D=1..8) of every program
	analyze   time.Duration // the Analyze calls alone
	partition time.Duration // the Partition calls alone
	deepest   time.Duration // the D=8 calls alone
	checkWall time.Duration // the oracle check runs
	checkCPU  time.Duration
	checked   int     // packets the check runs served
	rssMB     float64 // the process's peak resident set during the round
}

// runExplore runs the explore workload: the paper's compiler over every
// program, with every partition checked against the oracle outside the
// timed window.
func runExplore(opt options) (*result, *runInfo, error) {
	progs, err := explorePrograms(opt.seed)
	if err != nil {
		return nil, nil, err
	}
	var log *spanLog
	res := newResult(endToEnd)
	if opt.trace {
		log = newSpanLog()
		res = newResult(perLayer())
	}
	var digestIn [][]byte
	for _, p := range progs {
		digestIn = append(append(digestIn, []byte(p.src)), p.pkts...)
	}
	info := &runInfo{Packets: checkPackets * len(progs) * maxExplore, InputDigest: inputDigest(digestIn, nil)}

	if _, err := exploreOnce(progs, res, nil); err != nil { // warm-up, not counted
		return nil, nil, err
	}
	// As in the IPv4 workloads, a traced run alternates plain rounds with
	// observed ones that record spans.
	var plain, observed []*exploreRound
	g0 := readGoStats()
	deadline := time.Now().Add(opt.duration)
	for i := 0; len(plain) < minRounds || time.Now().Before(deadline); i++ {
		observe := opt.trace && i%2 == 1
		var roundLog *spanLog
		if observe {
			roundLog = log
		}
		runtime.GC() // as in runServe: each round starts from a collected heap
		resetPeakRSS()
		r, err := exploreOnce(progs, res, roundLog)
		if err != nil {
			return nil, nil, err
		}
		r.rssMB = peakRSSMB()
		if observe {
			observed = append(observed, r)
		} else {
			plain = append(plain, r)
		}
	}
	g1 := readGoStats()
	info.Rounds = len(plain) + len(observed)
	res.Correct = res.Failed == 0

	p := summarize(plain)
	if !opt.trace {
		res.set("pkts_per_s", p.pps)
		res.set("cpu_ns_per_pkt", p.cpu)
		res.set("setup_s", p.setup)
		res.set("explore_s", p.sweep)
		res.set("peak_rss_mb", p.rss)
		return res, info, nil
	}
	res.set("ppc.compile_us", p.setup*1e6)
	res.set("core.analyze_ms", p.analyze)
	res.set("core.partition_ms", p.partition)
	res.set("core.partition_ms_d8", p.deepest)
	g1.since(g0).report(res)
	o := summarize(observed)
	res.set("trace.untraced_pkts_per_s", p.pps)
	res.set("trace.traced_pkts_per_s", o.pps)
	res.set("trace.overhead_pkts_per_s", p.pps-o.pps)
	res.set("trace.overhead_frac", (o.sweep-p.sweep)/p.sweep)
	if err := log.write(opt.spansOut); err != nil {
		return nil, nil, fmt.Errorf("writing spans: %w", err)
	}
	return res, info, nil
}

// exploreSummary holds the medians over a set of rounds.
type exploreSummary struct {
	setup, sweep, rss           float64 // s, s, MB
	pps, cpu                    float64 // the check runs: pkt/s, ns/pkt
	analyze, partition, deepest float64 // ms
}

func summarize(rounds []*exploreRound) exploreSummary {
	var setup, sweep, rss, pps, cpu, analyze, partition, deepest []float64
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	for _, r := range rounds {
		setup = append(setup, r.setup.Seconds())
		sweep = append(sweep, r.sweep.Seconds())
		rss = append(rss, r.rssMB)
		pps = append(pps, float64(r.checked)/r.checkWall.Seconds())
		cpu = append(cpu, float64(r.checkCPU.Nanoseconds())/float64(r.checked))
		analyze = append(analyze, ms(r.analyze))
		partition = append(partition, ms(r.partition))
		deepest = append(deepest, ms(r.deepest))
	}
	return exploreSummary{setup: median(setup), sweep: median(sweep), rss: median(rss), pps: median(pps),
		cpu: median(cpu), analyze: median(analyze), partition: median(partition), deepest: median(deepest)}
}

// exploreOnce compiles, analyzes and partitions every program, then runs
// each partition on its check packets and compares the trace with the
// program's oracle. A partition that diverges counts as one failure.
func exploreOnce(progs []exploreProgram, res *result, log *spanLog) (*exploreRound, error) {
	r := &exploreRound{}
	id := log.root("explore.round")
	t0 := time.Now()
	compiled := make([]*repro.Program, len(progs))
	for i, p := range progs {
		c0 := time.Now()
		prog, err := repro.Compile(p.src)
		if err != nil {
			return nil, err
		}
		log.add("ppc.Compile", id, c0, time.Now())
		compiled[i] = prog
	}
	t1 := time.Now()
	r.setup = t1.Sub(t0)
	pipes := make([][]*repro.Pipeline, len(progs))
	for i, prog := range compiled {
		a0 := time.Now()
		an, err := repro.Analyze(prog)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", progs[i].name, err)
		}
		a1 := time.Now()
		r.analyze += a1.Sub(a0)
		log.add("core.Analyze", id, a0, a1)
		for d := 1; d <= maxExplore; d++ {
			p0 := time.Now()
			pipe, err := an.Partition(repro.WithStages(d))
			if err != nil {
				return nil, fmt.Errorf("%s D=%d: %w", progs[i].name, d, err)
			}
			p1 := time.Now()
			r.partition += p1.Sub(p0)
			if d == maxExplore {
				r.deepest += p1.Sub(p0)
			}
			log.add("core.Partition", id, p0, p1)
			pipes[i] = append(pipes[i], pipe)
		}
	}
	r.sweep = time.Since(t1)
	runtime.GC() // the check runs are a timed section of their own
	t2 := time.Now()

	c0 := cpuTime()
	for i, p := range progs {
		for _, pipe := range pipes[i] {
			got, err := pipe.Run(context.Background(), netbench.NewWorld(copyPackets(p.pkts)))
			if err != nil {
				return nil, fmt.Errorf("%s D=%d check: %w", p.name, pipe.Degree(), err)
			}
			res.Attempted++
			if repro.TraceEqual(got, p.want) != "" {
				res.Failed++
			}
			r.checked += len(p.pkts)
		}
	}
	t3 := time.Now()
	r.checkWall, r.checkCPU = t3.Sub(t2), cpuTime()-c0
	log.add("check", id, t2, t3)
	log.fill(id, t0, t3)
	return r, nil
}
