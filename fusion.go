package repro

// Stage fusion at the repro layer: the valuation that decides, per cut of
// a realized pipeline, whether the cut's ring is worth its
// synchronization tax or whether the two sides should be fused into one
// execution unit (see internal/costmodel.Predict for the two-bound model
// and internal/runtime for the fused realization). The verdict — which
// cuts fused and the per-cut arithmetic — is surfaced through
// Pipeline.Plan().

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

// fusionCores reports the core budget the cost model plans for, on the
// static path and in the adaptive loop alike. A function variable so
// tests (golden Plan fixtures) can pin a host-independent core count.
var fusionCores = func() int { return stdruntime.GOMAXPROCS(0) }

// planFusion values every cut of a realized pipeline under the given
// static per-stage weights, read as nanoseconds (one ns per weight unit),
// and serve shape, returning the runtime's per-cut fuse
// mask alongside the Plan-facing form: the 1-based fused cut list and the
// per-cut rationale. Cuts the cost model wants fused but whose shard
// replica widths differ (dispatch/merge junctions) are kept ringed — a
// fused unit is one goroutine per lane, so both sides must run at the
// same width.
func planFusion(stages []*Program, weights []int64, batch, shards int, explicitKey bool) (mask []bool, cuts []int, why []string) {
	d := len(stages)
	if d <= 1 || len(weights) != d {
		return nil, nil, nil
	}
	costs := make([]float64, d)
	for i, w := range weights {
		costs[i] = float64(w)
	}
	fp := costmodel.PlanFusion(costs, serveHost(batch, shards))
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

// serveHost is the cost model's view of a serve shape on this host.
func serveHost(batch, shards int) costmodel.Host {
	return costmodel.Host{Cores: fusionCores(), SyncNs: ringSyncNs / float64(max(1, batch)), Shards: shards}
}

// keptAtJunction renders the rationale for a cut the valuator wanted
// fused but the shard plan forbids.
func keptAtJunction(k int) string {
	return fmt.Sprintf("keep cut %d: shard junction (replica widths differ across the cut); fusion needs aligned lanes", k+1)
}
