package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"time"

	"repro"
	"repro/internal/exec"
	"repro/internal/interp"
	"repro/internal/netbench"
)

// serveLayers turns a traced IPv4 run's rounds into the per-layer metrics.
type serveLayers struct {
	n        int
	pkts     [][]byte
	want     []repro.Event
	plain    []*round // rounds without tracing: counters
	observed []*round // rounds with spans: span-derived figures
	deepest  []time.Duration
	lags     []time.Duration // admission lags of the plain rounds
	go0, go1 goStats
	log      *spanLog
}

func (l *serveLayers) report(res *result) error {
	var compile, analyze, partition []float64
	for _, r := range l.plain {
		compile = append(compile, float64(r.compile)/float64(time.Microsecond))
		analyze = append(analyze, float64(r.analyze)/float64(time.Millisecond))
		partition = append(partition, float64(r.partition)/float64(time.Millisecond))
	}
	res.set("ppc.compile_us", median(compile))
	res.set("core.analyze_ms", median(analyze))
	res.set("core.partition_ms", median(partition))
	var d8 []float64
	for _, d := range l.deepest {
		d8 = append(d8, float64(d)/float64(time.Millisecond))
	}
	res.set("core.partition_ms_d8", median(d8))

	// exec: the last round's stage programs, run standalone.
	last := l.plain[len(l.plain)-1]
	stages := last.stages
	st, err := execStandalone(stages, l.pkts, l.log)
	if err != nil {
		return err
	}
	res.Attempted += int64(l.n)
	if bad := divergent(st.trace, l.want); bad > 0 {
		res.Failed += int64(min(bad, l.n))
		res.Correct = false
	}
	for k, ns := range st.nsPerPkt {
		res.set(fmt.Sprintf("exec.s%d.ns_per_pkt", k+1), ns)
	}
	res.set("exec.allocs_per_pkt", st.allocsPerPkt)
	res.set("exec.bytes_per_pkt", st.bytesPerPkt)

	// runtime and spsc: the plain rounds' own counters.
	D := len(stages)
	var pkts, pullNs, idleNs, wallNs, rx float64
	busy := make([]float64, D)
	tx := make([]float64, D)
	rxw := make([]float64, D)
	var spinsAll, parksAll float64
	for _, r := range l.plain {
		pkts += float64(r.m.Packets)
		pullNs += float64(r.src.pullNs)
		idleNs += float64(r.src.idleNs)
		wallNs += float64(r.wall)
		rx += float64(r.m.Stages[0].In)
		for k, s := range r.m.Stages {
			busy[k] += float64(s.Busy)
			tx[k] += float64(s.TxWait)
			rxw[k] += float64(s.RxWait)
			spinsAll += float64(s.Spins)
			parksAll += float64(s.Parks)
		}
	}
	rounds := float64(len(l.plain))
	for k := 0; k < D; k++ {
		var stalls, occ, spins, parks, spinNs, parkNs float64
		for _, r := range l.plain {
			s := r.m.Stages[k]
			stalls += float64(s.Stalls)
			occ += s.MeanOccupancy()
			spins += float64(s.Spins)
			parks += float64(s.Parks)
			spinNs += float64(s.SpinWait)
			parkNs += float64(s.ParkWait)
		}
		p := fmt.Sprintf("runtime.s%d.", k+1)
		res.set(p+"busy_ns_per_pkt", busy[k]/pkts)
		res.set(p+"tx_wait_ns_per_pkt", tx[k]/pkts)
		res.set(p+"rx_wait_ns_per_pkt", rxw[k]/pkts)
		res.set(p+"stalls", stalls/rounds)
		res.set(p+"occupancy", occ/rounds)
		p = fmt.Sprintf("spsc.s%d.", k+1)
		res.set(p+"spins", spins/rounds)
		res.set(p+"parks", parks/rounds)
		res.set(p+"spin_ns_per_pkt", spinNs/pkts)
		res.set(p+"park_ns_per_pkt", parkNs/pkts)
	}
	if spinsAll+parksAll > 0 {
		res.set("spsc.spin_resolved_frac", spinsAll/(spinsAll+parksAll))
	}

	// The per-unit ledger. A unit is a run of stages joined by fused cuts;
	// its replicas are summed, and under sharding the dispatcher, whose
	// counters the runtime folds into stage 1, joins the first unit.
	plan := last.plan
	units := unitsOf(D, plan.FusedCuts)
	dispatcher := last.m.Stages[0].Replicas > 1
	var unitCount int
	var busiest, busiestResidual, bottleneck float64
	for u, g := range units {
		lanes := last.m.Stages[g[0]].Replicas
		unitCount += lanes
		if u == 0 && dispatcher {
			lanes++
		}
		var ub, ut, ur, ex float64
		for k := g[0]; k <= g[1]; k++ {
			ub, ut, ur = ub+busy[k], ut+tx[k], ur+rxw[k]
			ex += st.nsPerPkt[k]
		}
		var ingest float64
		if u == 0 {
			// Time inside Pull, asleep or not, is on the pulling
			// goroutine; on an unsharded head the runtime counts it as
			// busy, so it moves from busy to its own column.
			ingest = pullNs + idleNs
			if !dispatcher {
				ub -= ingest
			}
		}
		wall := wallNs * float64(lanes)
		col := map[string]float64{"wall": wall, "busy": ub, "ingest": ingest, "tx_wait": ut, "rx_wait": ur,
			"residual": wall - ub - ingest - ut - ur}
		if u < maxLayerIndex {
			for _, c := range ledgerColumns {
				res.set(fmt.Sprintf("runtime.u%d.%s_ns_per_pkt", u+1, c), col[c]/pkts)
			}
		}
		if ub > busiest {
			busiest, busiestResidual = ub, col["residual"]
		}
		bottleneck = math.Max(bottleneck, ex/float64(last.m.Stages[g[0]].Replicas))
	}
	res.set("runtime.units", float64(unitCount))
	res.set("runtime.residual_ns_per_pkt", busiestResidual/pkts)
	var serveNs []float64
	for _, r := range l.plain {
		serveNs = append(serveNs, 1e9/r.pktsPerSec())
	}
	res.set("runtime.overhead_ns_per_pkt", median(serveNs)-bottleneck)

	// Span-derived: batch residence from the runtime's own tracer.
	var resid []time.Duration
	for _, r := range l.observed {
		resid = append(resid, r.resid...)
	}
	res.set("runtime.batch_residence_p50_us", durationQuantileUs(resid, 0.50))
	res.set("runtime.batch_residence_p99_us", durationQuantileUs(resid, 0.99))

	res.set("ingest.offered_packets", float64(l.n)*rounds)
	res.set("ingest.rx_packets", rx)
	res.set("ingest.pull_ns_per_pkt", pullNs/pkts)
	res.set("ingest.idle_frac", idleNs/wallNs)
	res.set("ingest.admit_lag_p50_us", durationQuantileUs(l.lags, 0.50))
	res.set("ingest.admit_lag_p99_us", durationQuantileUs(l.lags, 0.99))
	res.set("ingest.admit_lag_samples", float64(len(l.lags)))

	// costmodel: the plan's predicted stage shares against the measured
	// standalone exec shares.
	res.set("costmodel.share_err", shareErr(plan.StageWeights, st.nsPerPkt))
	res.set("costmodel.fused_cuts", float64(len(plan.FusedCuts)))

	l.go1.since(l.go0).report(res)

	var untraced, traced []float64
	for _, r := range l.plain {
		untraced = append(untraced, r.pktsPerSec())
	}
	for _, r := range l.observed {
		traced = append(traced, r.pktsPerSec())
	}
	u, t := median(untraced), median(traced)
	res.set("trace.untraced_pkts_per_s", u)
	res.set("trace.traced_pkts_per_s", t)
	res.set("trace.overhead_pkts_per_s", u-t)
	res.set("trace.overhead_frac", (u-t)/u)
	return nil
}

// unitsOf groups D stages into execution units: [first, last] stage index
// pairs, where a fused cut k (1-based, joining stages k and k+1) merges
// its neighbours.
func unitsOf(d int, fused []int) [][2]int {
	isFused := make([]bool, d)
	for _, k := range fused {
		if k >= 1 && k < d {
			isFused[k-1] = true
		}
	}
	var out [][2]int
	for s := 0; s < d; {
		e := s
		for e < d-1 && isFused[e] {
			e++
		}
		out = append(out, [2]int{s, e})
		s = e + 1
	}
	return out
}

// shareErr is the largest gap between a stage's predicted share of the
// pipeline's work (its plan weight) and its measured share (standalone
// exec time).
func shareErr(weights []int64, ns []float64) float64 {
	var wsum, nsum float64
	for k := range weights {
		wsum += float64(weights[k])
		nsum += ns[k]
	}
	var worst float64
	for k := range weights {
		worst = math.Max(worst, math.Abs(float64(weights[k])/wsum-ns[k]/nsum))
	}
	return worst
}

// standalone is the exec layer measured alone: the stage programs run
// back to back on the compiled backend, with no runtime around them.
type standalone struct {
	nsPerPkt                  []float64 // per stage
	allocsPerPkt, bytesPerPkt float64
	trace                     []repro.Event
}

// execBatch is how many packets each stage runs before the next stage
// takes them, like a ring entry of the served pipeline.
const execBatch = 256

// execPasses is how many passes over the packet set the standalone run
// makes; each stage reports its median pass.
const execPasses = 5

// execStandalone runs stages over pkts through exec.NewStageRunners and
// RunIterationInto, timing each stage per batch. Live sets ping-pong
// between two buffers per iteration, as in the runtime, so a steady-state
// handoff allocates nothing. The first pass's trace is returned for the
// oracle check.
func execStandalone(stages []*repro.Program, pkts [][]byte, log *spanLog) (*standalone, error) {
	D := len(stages)
	out := &standalone{nsPerPkt: make([]float64, D)}
	ctxs := make([]*interp.IterCtx, execBatch)
	slots := make([][]int64, execBatch)
	spare := make([][]int64, execBatch)
	for i := range ctxs {
		ctxs[i] = interp.NewIterCtx()
		ctxs[i].DeferEvents = true
	}
	perPass := make([][]float64, D)
	for pass := 0; pass < execPasses; pass++ {
		id := log.root("exec.standalone")
		copies := copyPackets(pkts)
		runners := exec.NewStageRunners(stages, netbench.NewWorld(nil))
		for _, r := range runners {
			r.RxFromCtx = true
		}
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		stageNs := make([]time.Duration, D)
		t0 := time.Now()
		for lo := 0; lo < len(copies); lo += execBatch {
			hi := min(lo+execBatch, len(copies))
			for i := lo; i < hi; i++ {
				c := ctxs[i-lo]
				c.Reset()
				c.Pending, c.HasPending = copies[i], true
				slots[i-lo] = slots[i-lo][:0]
			}
			for k, r := range runners {
				s0 := time.Now()
				for i := 0; i < hi-lo; i++ {
					sent, err := r.RunIterationInto(ctxs[i], slots[i], spare[i])
					if err != nil {
						return nil, fmt.Errorf("exec stage %d: %w", k+1, err)
					}
					if sent != nil {
						spare[i], slots[i] = slots[i], sent
					} else {
						slots[i] = slots[i][:0]
					}
				}
				stageNs[k] += time.Since(s0)
			}
			if pass == 0 {
				for i := 0; i < hi-lo; i++ {
					out.trace = append(out.trace, ctxs[i].Events...)
				}
			}
		}
		end := time.Now()
		runtime.ReadMemStats(&ms1)
		log.fill(id, t0, end)
		for k := range stageNs {
			perPass[k] = append(perPass[k], float64(stageNs[k])/float64(len(pkts)))
		}
		if pass == execPasses-1 {
			out.allocsPerPkt = float64(ms1.Mallocs-ms0.Mallocs) / float64(len(pkts))
			out.bytesPerPkt = float64(ms1.TotalAlloc-ms0.TotalAlloc) / float64(len(pkts))
		}
	}
	for k := range perPass {
		out.nsPerPkt[k] = median(perPass[k])
	}
	return out, nil
}

// goStats samples the Go runtime's own metrics; two samples bracket the
// measured window.
type goStats struct {
	gcCPU, totalCPU float64
	gcCycles        uint64
	pauses, latency *metrics.Float64Histogram
}

var goMetricNames = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/cycles/automatic:gc-cycles", // the benchmark's forced collections excluded
	"/sched/pauses/total/gc:seconds",
	"/sched/latencies:seconds",
}

func readGoStats() goStats {
	s := make([]metrics.Sample, len(goMetricNames))
	for i, n := range goMetricNames {
		s[i].Name = n
	}
	metrics.Read(s)
	var g goStats
	if s[0].Value.Kind() == metrics.KindFloat64 {
		g.gcCPU, g.totalCPU = s[0].Value.Float64(), s[1].Value.Float64()
	}
	if s[2].Value.Kind() == metrics.KindUint64 {
		g.gcCycles = s[2].Value.Uint64()
	}
	if s[3].Value.Kind() == metrics.KindFloat64Histogram {
		g.pauses = s[3].Value.Float64Histogram()
	}
	if s[4].Value.Kind() == metrics.KindFloat64Histogram {
		g.latency = s[4].Value.Float64Histogram()
	}
	return g
}

// since returns the window's deltas (histogram counts subtract bucket by
// bucket).
func (g goStats) since(prev goStats) goStats {
	return goStats{gcCPU: g.gcCPU - prev.gcCPU, totalCPU: g.totalCPU - prev.totalCPU,
		gcCycles: g.gcCycles - prev.gcCycles,
		pauses:   histDelta(g.pauses, prev.pauses), latency: histDelta(g.latency, prev.latency)}
}

func (g goStats) report(res *result) {
	if g.totalCPU > 0 {
		res.set("go.gc_cpu_frac", g.gcCPU/g.totalCPU)
	}
	res.set("go.gc_cycles", float64(g.gcCycles))
	res.set("go.gc_pause_p99_us", histQuantile(g.pauses, 0.99)*1e6)
	res.set("go.sched_latency_p99_us", histQuantile(g.latency, 0.99)*1e6)
}

func histDelta(a, b *metrics.Float64Histogram) *metrics.Float64Histogram {
	if a == nil || b == nil || len(a.Counts) != len(b.Counts) {
		return nil
	}
	d := &metrics.Float64Histogram{Counts: make([]uint64, len(a.Counts)), Buckets: a.Buckets}
	for i := range a.Counts {
		d.Counts[i] = a.Counts[i] - b.Counts[i]
	}
	return d
}

// histQuantile estimates the q-quantile of a runtime histogram,
// interpolating linearly inside the bucket that holds it (an unbounded
// edge bucket reports its finite bound).
func histQuantile(h *metrics.Float64Histogram, q float64) float64 {
	if h == nil {
		return 0
	}
	var total uint64
	for _, c := range h.Counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	var seen float64
	for i, c := range h.Counts {
		if c == 0 {
			continue
		}
		if seen+float64(c) >= rank {
			lo, hi := h.Buckets[i], h.Buckets[i+1]
			if math.IsInf(lo, -1) {
				return hi
			}
			if math.IsInf(hi, 1) {
				return lo
			}
			return lo + (hi-lo)*(rank-seen)/float64(c)
		}
		seen += float64(c)
	}
	return h.Buckets[len(h.Buckets)-1]
}
