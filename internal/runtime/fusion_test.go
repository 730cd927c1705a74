package runtime_test

// Cross-realization equivalence matrix for stage fusion: for every
// netbench PPS, every pipeline depth, every shard width, and every fusion
// mask shape (none, all, alternating), the served trace must stay
// byte-identical to the sequential oracle and the per-stage ledger exact.
// Fusion changes only *where* stages run (which goroutine, ring or no
// ring) — never what they compute — so the whole matrix shares one oracle
// per (app, traffic) point. Run under -race this doubles as the proof
// that the fused handoff introduces no cross-goroutine aliasing.

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/interp"
	"repro/internal/netbench"
	"repro/internal/runtime"
)

// fuseShape builds a D-1 length fusion request: "none" fuses nothing,
// "all" asks for every cut, "odd" every other cut — exercising units of
// mixed width against lone stages in one pipeline.
func fuseShape(shape string, d int) []bool {
	m := make([]bool, d-1)
	for k := range m {
		switch shape {
		case "all":
			m[k] = true
		case "odd":
			m[k] = k%2 == 1
		}
	}
	return m
}

// TestFusionEquivalenceMatrix is the realization-independence tentpole
// check: allApps × {none, all, odd fusion} × D × P, each point's trace
// byte-identical to the oracle, each point's packet accounting exact.
func TestFusionEquivalenceMatrix(t *testing.T) {
	const n = 48
	for _, pps := range allApps() {
		prog, err := pps.Compile()
		if err != nil {
			t.Fatalf("%s: %v", pps.Name, err)
		}
		a, err := core.Analyze(prog, nil)
		if err != nil {
			t.Fatalf("%s: %v", pps.Name, err)
		}
		traffic := pps.Traffic(n)
		seq, err := interp.RunSequential(prog, netbench.NewWorld(traffic), n)
		if err != nil {
			t.Fatalf("%s: sequential: %v", pps.Name, err)
		}
		for _, d := range []int{2, 3, 4} {
			res, err := a.Partition(core.Options{Stages: d})
			if err != nil {
				t.Fatalf("%s D=%d: %v", pps.Name, d, err)
			}
			for _, shards := range []int{1, 2, 4} {
				for _, shape := range []string{"none", "all", "odd"} {
					name := fmt.Sprintf("%s/D=%d/P=%d/fuse=%s", pps.Name, d, shards, shape)
					world := netbench.NewWorld(nil)
					cfg := runtime.DefaultConfig()
					cfg.Batch = 4
					cfg.Shards = shards
					cfg.FuseCuts = fuseShape(shape, d)
					m, err := runtime.Serve(context.Background(), res.Stages, world, runtime.Packets(traffic), cfg)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if m.Packets != n {
						t.Errorf("%s: served %d packets, want %d", name, m.Packets, n)
					}
					if diff := interp.TraceEqual(seq, m.Trace); diff != "" {
						t.Errorf("%s: trace diverges from oracle: %s", name, diff)
					}
					for _, s := range m.Stages {
						if s.In != n || s.Out != n {
							t.Errorf("%s: stage %d counters in=%d out=%d, want %d",
								name, s.Stage, s.In, s.Out, n)
						}
					}
				}
			}
		}
	}
}

// TestFusionFullPipelineIsSequentialShape fuses every cut of a deep
// pipeline down to one unit: a single goroutine must drive all stages,
// the trace must match the oracle, and no ring counters may move (there
// are no rings left to stall on).
func TestFusionFullPipelineIsSequentialShape(t *testing.T) {
	const n = 96
	pps, _ := netbench.ByName("IPv4")
	prog, err := pps.Compile()
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Partition(prog, core.Options{Stages: 4})
	if err != nil {
		t.Fatal(err)
	}
	traffic := pps.Traffic(n)
	seq, err := interp.RunSequential(prog, netbench.NewWorld(traffic), n)
	if err != nil {
		t.Fatal(err)
	}
	cfg := runtime.DefaultConfig()
	cfg.Batch = 8
	cfg.FuseCuts = []bool{true, true, true}
	m, err := runtime.Serve(context.Background(), res.Stages, netbench.NewWorld(nil), runtime.Packets(traffic), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if diff := interp.TraceEqual(seq, m.Trace); diff != "" {
		t.Fatalf("fully fused trace diverges: %s", diff)
	}
	for _, s := range m.Stages {
		if s.Stalls != 0 {
			t.Errorf("stage %d counted %d ring stalls in a fully fused pipeline", s.Stage, s.Stalls)
		}
		if s.In != n || s.Out != n {
			t.Errorf("stage %d counters in=%d out=%d, want %d", s.Stage, s.In, s.Out, n)
		}
	}
}

// TestFusionMaskOversizedAndMisaligned checks the defensive edges: a mask
// longer than the cut list is truncated, and a cut whose sides differ in
// replica width (scatter/fan-in junction) silently keeps its ring — the
// engine realizes the intersection, never an invalid topology.
func TestFusionMaskOversizedAndMisaligned(t *testing.T) {
	const n = 32
	pps, _ := netbench.ByName("IPv4")
	prog, err := pps.Compile()
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Partition(prog, core.Options{Stages: 2})
	if err != nil {
		t.Fatal(err)
	}
	traffic := pps.Traffic(n)
	seq, err := interp.RunSequential(prog, netbench.NewWorld(traffic), n)
	if err != nil {
		t.Fatal(err)
	}
	cfg := runtime.DefaultConfig()
	cfg.Shards = 4 // junctions make some cuts misaligned
	cfg.FuseCuts = []bool{true, true, true, true, true, true, true, true}
	m, err := runtime.Serve(context.Background(), res.Stages, netbench.NewWorld(nil), runtime.Packets(traffic), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if diff := interp.TraceEqual(seq, m.Trace); diff != "" {
		t.Fatalf("trace diverges with oversized/misaligned mask: %s", diff)
	}
	if m.Packets != n {
		t.Fatalf("served %d packets, want %d", m.Packets, n)
	}
}
