package repro_test

import (
	"context"
	"testing"

	"repro"
)

// TestServeFusionOffMatchesAuto: the fused realization (one pinned core,
// where the valuator fuses every cut) and the fully ringed one — fusion
// off, as the valuator decides on eight pinned cores at batch 32, where
// every ring buys overlap — must both serve a trace byte-identical to the
// sequential oracle, and the published Plan must tell them apart.
func TestServeFusionOffMatchesAuto(t *testing.T) {
	prog, err := repro.Compile(facadeSrc)
	if err != nil {
		t.Fatal(err)
	}
	const n = 64
	packets := testPackets(n)
	seq := seqTrace(t, prog, packets, n)
	pipe, err := repro.Partition(prog, repro.WithStages(3))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name      string
		cores     int
		batch     int
		wantFused int
	}{
		{"auto", 1, 1, 2},
		{"off", 8, 32, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			restore := repro.SetFusionCoresForTest(tc.cores)
			defer restore()
			m, err := pipe.Serve(context.Background(), repro.PacketSource(packets), repro.WithBatch(tc.batch))
			if err != nil {
				t.Fatal(err)
			}
			if diff := repro.TraceEqual(seq, m.Trace); diff != "" {
				t.Fatalf("trace diverges from oracle: %s", diff)
			}
			plan := pipe.Plan()
			if len(plan.FusedCuts) != tc.wantFused {
				t.Errorf("Plan.FusedCuts = %v, want %d fused cuts", plan.FusedCuts, tc.wantFused)
			}
			if len(plan.FusionWhy) != plan.Degree-1 {
				t.Errorf("Plan.FusionWhy has %d verdicts for %d cuts: %v", len(plan.FusionWhy), plan.Degree-1, plan.FusionWhy)
			}
		})
	}
}
