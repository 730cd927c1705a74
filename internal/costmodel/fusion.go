package costmodel

import "fmt"

// FusionDecision values one cut of a realized pipeline: whether fusing it
// is predicted to win, and the human-readable arithmetic behind the call.
// The repro layer surfaces these verbatim in Pipeline.Plan().
type FusionDecision struct {
	// Cut is the 0-based cut index (between stages Cut+1 and Cut+2).
	Cut int
	// Fuse is true when the cut's ring tax exceeds its pipeline-bound
	// gain, so the realizer should merge the two sides into one unit.
	Fuse bool
	// Why states the two-bound comparison that decided the cut.
	Why string
}

// Host is the realization context a throughput prediction is made for.
type Host struct {
	// Cores is the usable core count; < 1 is treated as 1.
	Cores int
	// SyncNs is the per-packet synchronization cost of one ring handoff
	// (the per-entry ring cost divided by the batch size), in the unit of
	// the unit costs.
	SyncNs float64
	// Shards is the replica width; < 1 is treated as 1. Above 1 the
	// dispatcher's ring adds one handoff in front of the first unit.
	Shards int
}

// Predict is the cost model's two-bound prediction of a realization's
// cost per packet, given the per-unit costs (a unit is one stage or one
// fused run of stages) on host h:
//
//	max(pipe, cpu)
//	hops = units-1, plus 1 for the dispatcher ring when Shards > 1
//	pipe = max unit cost / Shards + SyncNs·hops
//	cpu  = (total work + SyncNs·hops) / Cores
//
// SyncNs·hops is the handoff-chain tax: with bounded rings and
// steady-state backpressure every ring's per-packet synchronization
// appears on the end-to-end cadence, so each ring charges one sync
// against both bounds. The pipeline bound is the bottleneck unit, spread
// over the shard replicas; the CPU bound is all work sharing the host's
// cores — on a small host a deep pipeline buys nothing, and the model
// must know that. The fusion valuator (PlanFusion) and the adaptive
// loop's candidate prior both rank realizations with this one function.
// No units predicts 0.
func Predict(unitNs []float64, h Host) float64 {
	if len(unitNs) == 0 {
		return 0
	}
	cores, shards := max(1, h.Cores), max(1, h.Shards)
	var total, bottleneck float64
	for _, u := range unitNs {
		total += u
		bottleneck = max(bottleneck, u)
	}
	hops := len(unitNs) - 1
	if shards > 1 {
		hops++
	}
	sync := h.SyncNs * float64(hops)
	pipe := bottleneck/float64(shards) + sync
	cpu := (total + sync) / float64(cores)
	return max(pipe, cpu)
}

// FusionPlan is the valuator's verdict over every cut of a D-stage
// pipeline on a given host.
type FusionPlan struct {
	// FuseCuts is the per-cut mask in the runtime.Config.FuseCuts shape.
	FuseCuts []bool
	// Decisions records the per-cut arithmetic, in cut order.
	Decisions []FusionDecision
	// Units is the number of realized execution units (goroutines per
	// replica lane) after fusion: D minus the fused cuts.
	Units int
	// PredictedNs is Predict over the fused realization's units: the
	// plan's predicted cost per packet.
	PredictedNs float64
}

// PlanFusion decides which cuts of a pipeline are worth their ring. The
// inputs are the per-stage costs (nanoseconds or model weight — any
// consistent unit) and the host, whose SyncNs is in the same unit.
//
// A cut pays for its ring only when splitting there lowers Predict —
// when the pipeline bound it relieves exceeds the synchronization tax it
// adds. The planner is greedy: starting from the fully split pipeline, it
// repeatedly merges the adjacent-unit pair whose merge most improves the
// prediction, until no merge helps. On one core both bounds strictly fall
// with every merge, so everything fuses; with generous cores and
// per-stage work far above the sync cost, no merge helps and every cut
// survives.
//
// stageNs entries must be non-negative. A single-stage pipeline yields an
// empty plan.
func PlanFusion(stageNs []float64, h Host) FusionPlan {
	d := len(stageNs)
	cores := max(1, h.Cores)
	plan := FusionPlan{Units: d, PredictedNs: Predict(stageNs, h)}
	if d <= 1 {
		return plan
	}
	plan.FuseCuts = make([]bool, d-1)

	// units[i] is the summed cost of the i-th realized unit; cutAfter[i]
	// is the original cut index that ends it (len-1 for the last).
	units := append([]float64(nil), stageNs...)
	cutAfter := make([]int, d)
	for i := range cutAfter {
		cutAfter[i] = i
	}

	merged := map[int]string{} // cut index -> rationale
	for len(units) > 1 {
		cur := plan.PredictedNs
		bestGain, bestAt := 0.0, -1
		var bestCost float64
		for i := 0; i+1 < len(units); i++ {
			trial := make([]float64, 0, len(units)-1)
			trial = append(trial, units[:i]...)
			trial = append(trial, units[i]+units[i+1])
			trial = append(trial, units[i+2:]...)
			if c := Predict(trial, h); cur-c > bestGain {
				bestGain, bestAt, bestCost = cur-c, i, c
			}
		}
		if bestAt < 0 {
			break
		}
		cut := cutAfter[bestAt]
		plan.FuseCuts[cut] = true
		merged[cut] = fmt.Sprintf(
			"fuse cut %d: ring tax %.0f exceeds its pipeline gain (predicted %.0f -> %.0f ns/pkt on %d core(s))",
			cut+1, h.SyncNs, cur, bestCost, cores)
		units[bestAt] += units[bestAt+1]
		units = append(units[:bestAt+1], units[bestAt+2:]...)
		cutAfter = append(cutAfter[:bestAt], cutAfter[bestAt+1:]...)
		plan.PredictedNs = bestCost
	}
	plan.Units = len(units)

	for k := 0; k < d-1; k++ {
		dec := FusionDecision{Cut: k, Fuse: plan.FuseCuts[k]}
		if why, ok := merged[k]; ok {
			dec.Why = why
		} else {
			dec.Why = fmt.Sprintf(
				"keep cut %d: its ring tax %.0f buys pipeline parallelism on %d core(s)",
				k+1, h.SyncNs, cores)
		}
		plan.Decisions = append(plan.Decisions, dec)
	}
	return plan
}
