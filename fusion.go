package repro

// Stage fusion at the repro layer: the valuation that decides, per cut of
// a realized pipeline, whether the cut's ring is worth its
// synchronization tax or whether the two sides should be fused into one
// execution unit (see internal/costmodel.PlanFusion for the two-bound
// model and internal/runtime for the fused realization). WithFusion
// selects the mode: FusionAuto (default) lets the valuator decide,
// FusionOff pins every cut to a ring. The verdict — which cuts fused and
// the per-cut arithmetic — is surfaced through Pipeline.Plan().

import (
	"fmt"
	stdruntime "runtime"

	"repro/internal/costmodel"
	"repro/internal/runtime"
)

// ringSyncNs is the per-ring-entry synchronization estimate shared by
// the adaptive loop's candidate prior and the fusion valuator. It comes
// from BenchmarkRingHandoff (internal/runtime, recorded in
// EXPERIMENTS.md): the two-bound model charges the tax at a *saturated*
// cut, where each entry puts one blocked handoff on the end-to-end
// cadence, so the constant is the measured blocked ping-pong round trip
// of a buffered chan []*token divided by the two entries each round trip
// moves — not the far cheaper uncontended cost, which a saturated
// boundary never sees. The estimate only has to order realizations
// plausibly — under WithAutotune, measurements make the actual choice; on
// the static path it errs toward fusing cuts that cannot plausibly pay
// for a ring.
const ringSyncNs = 310.0

// fusionCores reports the core budget the fusion valuator plans for.
// A function variable so tests (golden Plan fixtures) can pin a
// host-independent core count.
var fusionCores = func() int { return stdruntime.GOMAXPROCS(0) }

// planFusion values every cut of a realized pipeline under the given
// per-stage weights and serve shape, returning the runtime's per-cut fuse
// mask alongside the Plan-facing form: the 1-based fused cut list and the
// per-cut rationale. Cuts the cost model wants fused but whose shard
// replica widths differ (dispatch/merge junctions) are kept ringed — a
// fused unit is one goroutine per lane, so both sides must run at the
// same width.
func planFusion(stages []*Program, weights []int64, nsPerWeight float64,
	batch, shards int, explicitKey bool, cores int) (mask []bool, cuts []int, why []string) {
	d := len(stages)
	if d <= 1 || len(weights) != d {
		return nil, nil, nil
	}
	costs := make([]float64, d)
	for i, w := range weights {
		costs[i] = float64(w) * nsPerWeight
	}
	sync := ringSyncNs / float64(max(1, batch))
	fp := costmodel.PlanFusion(costs, sync, cores)
	aligned := runtime.AlignedCuts(stages, max(1, shards), explicitKey)
	mask = make([]bool, d-1)
	for k := range mask {
		switch {
		case !fp.FuseCuts[k]:
			why = append(why, fp.Decisions[k].Why)
		case !aligned[k]:
			why = append(why, keptAtJunction(k))
		default:
			mask[k] = true
			cuts = append(cuts, k+1)
			why = append(why, fp.Decisions[k].Why)
		}
	}
	return mask, cuts, why
}

// keptAtJunction renders the rationale for a cut the valuator wanted
// fused but the shard plan forbids.
func keptAtJunction(k int) string {
	return fmt.Sprintf("keep cut %d: shard junction (replica widths differ across the cut); fusion needs aligned lanes", k+1)
}

// fuseMask lowers Plan.FusedCuts (1-based cut indices) back to the
// runtime's per-cut boolean mask for a D-stage pipeline.
func fuseMask(cuts []int, d int) []bool {
	if len(cuts) == 0 || d <= 1 {
		return nil
	}
	mask := make([]bool, d-1)
	for _, k := range cuts {
		if k >= 1 && k < d {
			mask[k-1] = true
		}
	}
	return mask
}

// fusedUnitCosts folds per-stage costs into per-unit costs under a fuse
// mask (the adaptive prior's view of a fused realization).
func fusedUnitCosts(stageNs []float64, fuse []bool) []float64 {
	if len(stageNs) == 0 {
		return nil
	}
	us := []float64{stageNs[0]}
	for i := 1; i < len(stageNs); i++ {
		if i-1 < len(fuse) && fuse[i-1] {
			us[len(us)-1] += stageNs[i]
		} else {
			us = append(us, stageNs[i])
		}
	}
	return us
}
