package experiments

import (
	"context"
	"fmt"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/interp"
	"repro/internal/netbench"
	"repro/internal/obsv"
	"repro/internal/runtime"
)

// ProfileStage attributes one pipeline stage's host time against the cost
// model's prediction: ModelShare is where the partitioner believed the
// work would land, HostShare is where the host's cycles actually went.
// When the two columns diverge, the partition is balanced for the IXP
// cost model but not for this host — the wait/tx columns then show which
// neighbor the imbalance piles up against.
type ProfileStage struct {
	Stage int `json:"stage"`
	// ModelCost is the stage's predicted worst-case path cost in model
	// instructions (processing + live-set transmission).
	ModelCost int64 `json:"model_cost"`
	// ModelShare is ModelCost over the sum of all stages' predictions.
	ModelShare float64 `json:"model_share"`
	// Exec is the measured host time spent executing stage bodies; Wait is
	// time blocked receiving from the upstream ring; Tx is time blocked
	// transmitting into a full downstream ring.
	Exec time.Duration `json:"exec_ns"`
	Wait time.Duration `json:"wait_ns"`
	Tx   time.Duration `json:"tx_ns"`
	// Park is the stage's total blocked-on-ring time as the ring
	// accounts it (every blocked channel wait parks) and Parks the
	// number of such waits; a large Park share means a neighbor is
	// genuinely starved or saturated.
	Park  time.Duration `json:"park_ns"`
	Parks int64         `json:"parks"`
	// HostShare is Exec over the sum of all stages' Exec — the measured
	// analogue of ModelShare.
	HostShare float64 `json:"host_share"`
	// Stalls counts ring-full backpressure events at this stage's send.
	Stalls int64 `json:"stalls"`
}

// ProfileResult is one profiled serve run: throughput plus the per-stage
// host-versus-model attribution.
type ProfileResult struct {
	PPS     string         `json:"pps"`
	Degree  int            `json:"degree"`
	Batch   int            `json:"batch"`
	Packets int64          `json:"packets"`
	Elapsed time.Duration  `json:"elapsed_ns"`
	PktPerS float64        `json:"pkt_per_s"`
	Stages  []ProfileStage `json:"stages"`
}

// Profile serves packets minimum-size packets through the named PPS
// partitioned degree ways with the observability layer fully attached
// (tracer + pprof stage labels), then attributes measured host time to
// stages and sets it against the cost model's predicted balance. The run
// is verified against the sequential oracle before being timed.
func Profile(name string, degree, batch, packets int) (*ProfileResult, error) {
	pps, ok := netbench.ByName(name)
	if !ok {
		return nil, fmt.Errorf("unknown PPS %q", name)
	}
	prog, err := pps.Compile()
	if err != nil {
		return nil, err
	}
	a, err := core.Analyze(prog, nil)
	if err != nil {
		return nil, err
	}
	res, err := a.Partition(core.Options{Stages: degree})
	if err != nil {
		return nil, err
	}

	// Behaviour first: the instrumented configuration must match the oracle.
	verify := pps.Traffic(64)
	seq, err := interp.RunSequential(prog.Clone(), netbench.NewWorld(verify), len(verify))
	if err != nil {
		return nil, err
	}
	cfg := runtime.Config{Batch: batch}
	vm, err := runtime.Serve(context.Background(), res.Stages, netbench.NewWorld(nil),
		runtime.Packets(verify), cfg)
	if err != nil {
		return nil, err
	}
	if diff := interp.TraceEqual(seq, vm.Trace); diff != "" {
		return nil, fmt.Errorf("%s D=%d diverged: %s", name, degree, diff)
	}

	// Spans arrive per batch per phase per stage; size the tracer so the
	// attribution never loses data to the drop counter.
	spanCap := 3 * degree * (packets/max(batch, 1) + 2)
	tr := obsv.NewTracer(spanCap + 1024)
	cfg.Obs = &obsv.Observer{Tracer: tr}

	m, err := runtime.Serve(context.Background(), res.Stages, netbench.NewWorld(nil),
		runtime.Repeat(pps.Traffic(256), packets), cfg)
	if err != nil {
		return nil, err
	}
	if n := tr.Dropped(); n > 0 {
		return nil, fmt.Errorf("tracer dropped %d spans; raise the capacity", n)
	}

	totals := obsv.PhaseTotals(tr.Spans())
	var modelSum, execSum int64
	for _, sr := range res.Report.Stages {
		modelSum += sr.Cost.Total
	}
	for k := range m.Stages {
		execSum += int64(totals[k+1][obsv.PhaseExec])
	}

	out := &ProfileResult{
		PPS:     name,
		Degree:  degree,
		Batch:   batch,
		Packets: m.Packets,
		Elapsed: m.Elapsed,
		PktPerS: m.PacketsPerSecond(),
	}
	for k, sr := range res.Report.Stages {
		ps := ProfileStage{
			Stage:     k + 1,
			ModelCost: sr.Cost.Total,
			Exec:      totals[k+1][obsv.PhaseExec],
			Wait:      totals[k+1][obsv.PhaseWait],
			Tx:        totals[k+1][obsv.PhaseTx],
			Park:      m.Stages[k].ParkWait,
			Parks:     m.Stages[k].Parks,
			Stalls:    m.Stages[k].Stalls,
		}
		if modelSum > 0 {
			ps.ModelShare = float64(sr.Cost.Total) / float64(modelSum)
		}
		if execSum > 0 {
			ps.HostShare = float64(ps.Exec) / float64(execSum)
		}
		out.Stages = append(out.Stages, ps)
	}
	return out, nil
}

// ProfileTable renders the attribution as the table pipebench prints: one
// row per stage, model share beside host share, with the blocked-time
// columns that explain any gap between them.
func ProfileTable(r *ProfileResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Profile: %s PPS, %d stage(s), batch %d — %d packets, %.0f pkt/s\n",
		r.PPS, r.Degree, r.Batch, r.Packets, r.PktPerS)
	fmt.Fprintf(&b, "  %-6s %10s %7s | %12s %7s %12s %12s %7s | %12s\n",
		"stage", "model", "share", "exec", "share", "wait", "tx", "stalls", "park")
	for _, s := range r.Stages {
		fmt.Fprintf(&b, "  %-6d %10d %6.1f%% | %12v %6.1f%% %12v %12v %7d | %12v\n",
			s.Stage, s.ModelCost, 100*s.ModelShare,
			s.Exec.Round(time.Microsecond), 100*s.HostShare,
			s.Wait.Round(time.Microsecond), s.Tx.Round(time.Microsecond), s.Stalls,
			s.Park.Round(time.Microsecond))
	}
	return b.String()
}
