package costmodel

import (
	"math"
	"testing"
)

// TestPlanFusionSingleCoreFusesEverything: with one core there is no
// pipeline parallelism to buy, so every ring is pure tax and the whole
// pipeline collapses to one unit.
func TestPlanFusionSingleCoreFusesEverything(t *testing.T) {
	p := PlanFusion([]float64{100, 100, 100, 100}, Host{Cores: 1, SyncNs: 1500})
	if p.Units != 1 {
		t.Fatalf("Units = %d, want 1 (everything fused on one core)", p.Units)
	}
	for k, f := range p.FuseCuts {
		if !f {
			t.Errorf("cut %d not fused on a single core", k)
		}
	}
	if len(p.Decisions) != 3 {
		t.Fatalf("got %d decisions, want 3", len(p.Decisions))
	}
	for _, d := range p.Decisions {
		if d.Why == "" {
			t.Errorf("cut %d decision has empty rationale", d.Cut)
		}
	}
}

// TestPlanFusionCheapRingsKeepCuts: balanced stages whose per-stage work
// dwarfs the sync cost should keep every cut on a host with enough cores
// — that is exactly when pipelining pays.
func TestPlanFusionCheapRingsKeepCuts(t *testing.T) {
	p := PlanFusion([]float64{10_000, 10_000, 10_000, 10_000}, Host{Cores: 8, SyncNs: 100})
	if p.Units != 4 {
		t.Fatalf("Units = %d, want 4 (no fusion when rings are cheap)", p.Units)
	}
	for k, f := range p.FuseCuts {
		if f {
			t.Errorf("cut %d fused despite cheap rings and spare cores", k)
		}
	}
}

// TestPlanFusionFoldsTinyStageIntoNeighbor: a stage far below the
// bottleneck cannot pay for its ring; it should fold into a neighbor
// while the expensive balanced cut survives.
func TestPlanFusionFoldsTinyStageIntoNeighbor(t *testing.T) {
	// Stages: 10000, 50, 10000. The 50ns stage's two rings buy nothing
	// (the bottleneck stays 10000 either way); at least one of its cuts
	// must fuse, and the pipeline must keep at least two units so the
	// two heavy stages still overlap.
	p := PlanFusion([]float64{10_000, 50, 10_000}, Host{Cores: 4, SyncNs: 1500})
	if p.Units != 2 {
		t.Fatalf("Units = %d, want 2 (tiny stage folded, heavy cut kept)", p.Units)
	}
	if !p.FuseCuts[0] && !p.FuseCuts[1] {
		t.Fatalf("neither cut around the 50ns stage fused: %v", p.FuseCuts)
	}
	if p.FuseCuts[0] && p.FuseCuts[1] {
		t.Fatalf("both cuts fused, losing the heavy stages' overlap: %v", p.FuseCuts)
	}
}

// TestPlanFusionDegenerateInputs: single stage and zero cores must not
// panic and must return a sane empty/clamped plan.
func TestPlanFusionDegenerateInputs(t *testing.T) {
	p := PlanFusion([]float64{100}, Host{Cores: 0, SyncNs: 1500})
	if p.Units != 1 || len(p.FuseCuts) != 0 || len(p.Decisions) != 0 {
		t.Fatalf("single-stage plan not empty: %+v", p)
	}
	p = PlanFusion(nil, Host{Cores: 4, SyncNs: 1500})
	if p.Units != 0 || p.FuseCuts != nil {
		t.Fatalf("nil-stage plan not empty: %+v", p)
	}
}

// TestPredictBounds pins the two-bound formula: hop counting with and
// without the dispatcher ring, the shard divisor on the pipeline bound,
// the cores < 1 clamp, and which bound dominates.
func TestPredictBounds(t *testing.T) {
	for _, tc := range []struct {
		name  string
		units []float64
		h     Host
		want  float64
	}{
		// One unit, one replica: no ring at all, so no tax.
		{"lone unit", []float64{100}, Host{Cores: 1, SyncNs: 10}, 100},
		// Three units: two hops. pipe = 50+20, cpu = (120+20)/4.
		{"pipeline bound", []float64{30, 50, 40}, Host{Cores: 4, SyncNs: 10}, 70},
		// Same units on one core: cpu = 120+20 dominates.
		{"cpu bound", []float64{30, 50, 40}, Host{Cores: 1, SyncNs: 10}, 140},
		// cores < 1 is one core.
		{"zero cores", []float64{30, 50, 40}, Host{Cores: 0, SyncNs: 10}, 140},
		{"negative cores", []float64{30, 50, 40}, Host{Cores: -3, SyncNs: 10}, 140},
		// Sharded lone unit: the dispatcher ring is one hop.
		// pipe = 100/2 + 10, cpu = (100+10)/8.
		{"dispatcher hop", []float64{100}, Host{Cores: 8, SyncNs: 10, Shards: 2}, 60},
		// Sharded pipeline: three hops. pipe = 50/4 + 30, cpu = (120+30)/8.
		{"shard divisor", []float64{30, 50, 40}, Host{Cores: 8, SyncNs: 10, Shards: 4}, 42.5},
		// Shards < 1 is one replica: no dispatcher hop.
		{"zero shards", []float64{30, 50, 40}, Host{Cores: 4, SyncNs: 10, Shards: 0}, 70},
		{"no units", nil, Host{Cores: 4, SyncNs: 10}, 0},
	} {
		if got := Predict(tc.units, tc.h); math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("%s: Predict(%v, %+v) = %v, want %v", tc.name, tc.units, tc.h, got, tc.want)
		}
	}
}

// TestPlanFusionPredictsItsOwnUnits: the plan's reported prediction is
// Predict over the units its mask realizes, so callers never recompute it.
func TestPlanFusionPredictsItsOwnUnits(t *testing.T) {
	for _, tc := range []struct {
		stages []float64
		h      Host
	}{
		{[]float64{100, 100, 100, 100}, Host{Cores: 1, SyncNs: 1500}},
		{[]float64{10_000, 10_000, 10_000, 10_000}, Host{Cores: 8, SyncNs: 100}},
		{[]float64{10_000, 50, 10_000}, Host{Cores: 4, SyncNs: 1500}},
		{[]float64{263, 279, 301, 250}, Host{Cores: 2, SyncNs: 310.0 / 32}},
		{[]float64{263, 279, 301, 250}, Host{Cores: 8, SyncNs: 310.0 / 32, Shards: 4}},
		{[]float64{400}, Host{Cores: 2, SyncNs: 10, Shards: 2}},
	} {
		p := PlanFusion(tc.stages, tc.h)
		units := []float64{tc.stages[0]}
		for i := 1; i < len(tc.stages); i++ {
			if p.FuseCuts[i-1] {
				units[len(units)-1] += tc.stages[i]
			} else {
				units = append(units, tc.stages[i])
			}
		}
		if len(units) != p.Units {
			t.Errorf("%v on %+v: mask %v realizes %d units, plan says %d", tc.stages, tc.h, p.FuseCuts, len(units), p.Units)
		}
		if want := Predict(units, tc.h); p.PredictedNs != want {
			t.Errorf("%v on %+v: PredictedNs = %v, Predict over its units = %v", tc.stages, tc.h, p.PredictedNs, want)
		}
	}
}
