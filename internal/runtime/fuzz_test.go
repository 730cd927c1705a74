package runtime_test

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/interp"
	"repro/internal/ppc"
	"repro/internal/randprog"
	"repro/internal/runtime"
)

// FuzzServeVsOracle is the differential-fuzz half of the harness: the fuzz
// input seeds the random-program generator, the generated program is
// partitioned and served concurrently — once per stage-execution backend —
// and every streaming trace must be byte-identical to the sequential
// oracle's AND to the other backend's (the compiled backend has no oracle
// of its own; the interpreter is its reference). Inputs that do not yield
// a servable pipeline (no single pkt_rx pacing site, or an unpartitionable
// shape at the probed degree) are skipped rather than failed, mirroring the
// grammar-fuzzer convention in internal/ppc. Seeds that exposed a
// divergence during development are checked into testdata/fuzz so every
// future run replays them.
//
// Each (degree, batch, backend) point is served twice: fully ringed and
// with a seed-derived fusion mask (runtime.Config.FuseCuts), so the fused
// realization — including masks that collide with shard junctions and are
// partially ignored — faces the same byte-identical-trace bar as the
// ringed one.
func FuzzServeVsOracle(f *testing.F) {
	for seed := int64(0); seed < 8; seed++ {
		f.Add(seed)
	}
	backends := []runtime.Backend{runtime.BackendCompiled, runtime.BackendInterp}
	f.Fuzz(func(t *testing.T, seed int64) {
		src := randprog.Generate(seed, randprog.DefaultConfig())
		prog, err := ppc.Compile(src)
		if err != nil {
			t.Skipf("seed %d: not compilable: %v", seed, err)
		}
		rng := rand.New(rand.NewSource(seed ^ 0x5eed))
		// Shard width is derived from the seed so the corpus also exercises
		// the flow-hash dispatch, junction wiring, and deterministic merge.
		shards := 1 << (rng.Intn(3))
		packets := make([][]byte, 3+rng.Intn(4))
		for i := range packets {
			p := make([]byte, rng.Intn(16))
			rng.Read(p)
			packets[i] = p
		}
		iters := len(packets)
		// A seed-derived per-cut fusion mask (bit k fuses cut k). Drawn after
		// the packet bytes so earlier corpus seeds keep their exact traffic.
		fuseBits := rng.Uint64()

		seq, err := interp.RunSequential(prog.Clone(), interp.NewWorld(packets), iters)
		if err != nil {
			t.Skipf("seed %d: oracle rejects program: %v", seed, err)
		}
		for _, d := range []int{2, 4} {
			res, err := core.Partition(prog, core.Options{Stages: d})
			if err != nil {
				continue // not partitionable at this degree
			}
			if runtime.Validate(res.Stages) != nil {
				continue // not servable (e.g. no pkt_rx pacing point)
			}
			seededMask := make([]bool, d-1)
			for k := range seededMask {
				seededMask[k] = fuseBits>>uint(k)&1 == 1
			}
			for _, batch := range []int{1, 2} {
				for fi, fuse := range [][]bool{nil, seededMask} {
					tag := []string{"ringed", "fused"}[fi]
					traces := make([][]interp.Event, len(backends))
					for i, backend := range backends {
						cfg := runtime.DefaultConfig()
						cfg.Batch = batch
						cfg.Backend = backend
						cfg.Shards = shards
						cfg.FuseCuts = fuse
						m, err := runtime.Serve(context.Background(), res.Stages, interp.NewWorld(nil),
							runtime.Packets(packets), cfg)
						if err != nil {
							t.Fatalf("seed %d D=%d P=%d batch=%d %s %s: serve: %v\n%s", seed, d, shards, batch, tag, backend, err, src)
						}
						if m.Packets != int64(iters) {
							t.Fatalf("seed %d D=%d P=%d batch=%d %s %s: served %d packets, want %d\n%s",
								seed, d, shards, batch, tag, backend, m.Packets, iters, src)
						}
						if diff := interp.TraceEqual(seq, m.Trace); diff != "" {
							t.Fatalf("seed %d D=%d P=%d batch=%d %s %s: trace diverges from oracle: %s\nsource:\n%s",
								seed, d, shards, batch, tag, backend, diff, src)
						}
						if rep := m.Faults; rep.Accounted() != m.Stages[0].In {
							t.Fatalf("seed %d D=%d P=%d batch=%d %s %s: accounting hole: %s", seed, d, shards, batch, tag, backend, rep)
						}
						traces[i] = m.Trace
					}
					if diff := interp.TraceEqual(traces[0], traces[1]); diff != "" {
						t.Fatalf("seed %d D=%d P=%d batch=%d %s: compiled and interp backends diverge: %s\nsource:\n%s",
							seed, d, shards, batch, tag, diff, src)
					}
				}
			}
		}
	})
}
