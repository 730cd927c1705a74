package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/interp"
	"repro/internal/netbench"
	"repro/internal/runtime"
)

// ServePoint is one host-throughput measurement: a PPS partitioned Degree
// ways, streamed through the goroutine-per-stage runtime with Batch
// iterations per ring entry.
type ServePoint struct {
	PPS    string `json:"pps"`
	Degree int    `json:"degree"`
	Batch  int    `json:"batch"`
	// Shards is the pipeline replica width the point ran with (schema v2;
	// omitted — i.e. 0 — in v1 baselines, which were all measured
	// unsharded and are read back as Shards=1).
	Shards  int     `json:"shards,omitempty"`
	Packets int64   `json:"packets"`
	NsTotal int64   `json:"ns_total"`
	PktPerS float64 `json:"pkt_per_s"`
	// Speedup is measured throughput relative to the Degree=1, Batch=1
	// point of the same PPS (the single-goroutine host baseline).
	Speedup float64 `json:"speedup_vs_seq"`
	// Backend names the stage-execution backend the point was measured
	// with ("compiled" or "interp"). Omitted in old baselines, which
	// predate the compiled backend and were measured on the interpreter.
	Backend string `json:"backend,omitempty"`
	// Fused marks the stage-fusion realization of the same shape: every
	// aligned cut fused (runtime.Config.FuseCuts all true), so handoffs
	// are in-goroutine word copies instead of ring entries. Omitted —
	// false — for ringed points and in pre-fusion baselines.
	Fused bool `json:"fused,omitempty"`
}

// ServeThroughput measures the host-native streaming runtime: the named
// PPS is partitioned at every degree in degrees and served packets
// minimum-size packets at every batch size in batches and every shard
// width in shardCounts (the 5-tuple flow key routes lanes), executing
// stages on the given backend. The first (degree, batch, shard) triple
// with Degree=1 and the sweep's first batch and shard values anchors the
// Speedup column, so degrees and shardCounts should include 1. Points are
// verified against the sequential oracle before being timed.
func ServeThroughput(name string, degrees, batches, shardCounts []int, packets int, backend runtime.Backend) ([]ServePoint, error) {
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

	traffic := pps.Traffic(256)
	verify := pps.Traffic(64)
	seq, err := interp.RunSequential(prog.Clone(), netbench.NewWorld(verify), len(verify))
	if err != nil {
		return nil, err
	}

	if len(shardCounts) == 0 {
		shardCounts = []int{1}
	}
	var pts []ServePoint
	var base float64
	for _, d := range degrees {
		res, err := a.Partition(core.Options{Stages: d})
		if err != nil {
			return nil, err
		}
		for _, batch := range batches {
			for _, shards := range shardCounts {
				// Each shape is measured twice past degree 1: fully ringed,
				// and with every aligned cut fused (all-true mask — host-
				// independent, so baselines compare like against like).
				for _, fused := range []bool{false, true} {
					if fused && d == 1 {
						continue
					}
					cfg := runtime.Config{Batch: batch, Backend: backend,
						Shards: shards, ShardKey: netbench.FlowKey}
					if fused {
						cfg.FuseCuts = make([]bool, d-1)
						for k := range cfg.FuseCuts {
							cfg.FuseCuts[k] = true
						}
					}

					// Behaviour first: the timed configuration must match the oracle.
					vw := netbench.NewWorld(nil)
					vm, err := runtime.Serve(context.Background(), res.Stages, vw, runtime.Packets(verify), cfg)
					if err != nil {
						return nil, fmt.Errorf("%s D=%d batch=%d P=%d fused=%t: %w", name, d, batch, shards, fused, err)
					}
					if diff := interp.TraceEqual(seq, vm.Trace); diff != "" {
						return nil, fmt.Errorf("%s D=%d batch=%d P=%d fused=%t diverged: %s", name, d, batch, shards, fused, diff)
					}

					m, err := runtime.Serve(context.Background(), res.Stages, netbench.NewWorld(nil),
						runtime.Repeat(traffic, packets), cfg)
					if err != nil {
						return nil, fmt.Errorf("%s D=%d batch=%d P=%d fused=%t: %w", name, d, batch, shards, fused, err)
					}
					p := ServePoint{
						PPS:     name,
						Degree:  d,
						Batch:   batch,
						Shards:  shards,
						Packets: m.Packets,
						NsTotal: m.Elapsed.Nanoseconds(),
						PktPerS: m.PacketsPerSecond(),
						Backend: backend.String(),
						Fused:   fused,
					}
					if d == 1 && batch == batches[0] && shards == shardCounts[0] {
						base = p.PktPerS
					}
					if base > 0 {
						p.Speedup = p.PktPerS / base
					}
					pts = append(pts, p)
				}
			}
		}
	}
	return pts, nil
}

// CheckServeBaseline is the CI throughput-regression gate: it compares the
// freshly measured points against the checked-in baseline JSON at path and
// reports an error if any guarded configuration's pkt_per_s regressed more
// than 10% below the baseline's same point. Guarded points: the
// historical single-pipeline fast path (D=1, batch=32, P=1), the sharded
// width-4 point (D=1, batch=32, P=4), a deep-pipeline point (D=4,
// batch=32, P=1), and the same deep point fused (D=4, batch=32, P=1,
// fused). A baseline point with Shards omitted (schema v1) is read as
// P=1; a point with Fused omitted is ringed. The "ring" key of schema v4
// baselines, which named the ring implementation a point ran over, is
// ignored on decode: there is one ring. A guarded shape absent from the
// baseline (or no baseline at all) passes, so the gate bootstraps on
// first run.
func CheckServeBaseline(pts []ServePoint, path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return err
	}
	var base []ServePoint
	if err := json.Unmarshal(data, &base); err != nil {
		return fmt.Errorf("baseline %s: %w", path, err)
	}
	find := func(pts []ServePoint, d, batch, shards int, fused bool) *ServePoint {
		for i := range pts {
			s := pts[i].Shards
			if s == 0 {
				s = 1
			}
			if pts[i].Degree == d && pts[i].Batch == batch && s == shards &&
				pts[i].Fused == fused {
				return &pts[i]
			}
		}
		return nil
	}
	const tolerance = 0.10
	for _, g := range []struct {
		d, batch, shards int
		fused            bool
	}{
		{1, 32, 1, false},
		{1, 32, 4, false},
		{4, 32, 1, false},
		{4, 32, 1, true},
	} {
		want := find(base, g.d, g.batch, g.shards, g.fused)
		got := find(pts, g.d, g.batch, g.shards, g.fused)
		if want == nil || got == nil {
			continue
		}
		if got.PktPerS < want.PktPerS*(1-tolerance) {
			tag := ""
			if g.fused {
				tag = " fused"
			}
			return fmt.Errorf("serve throughput regression at D=%d batch=%d P=%d%s: %.0f pkt/s is %.1f%% below the %s baseline of %.0f pkt/s (gate: -%.0f%%)",
				g.d, g.batch, g.shards, tag, got.PktPerS, 100*(1-got.PktPerS/want.PktPerS), path, want.PktPerS, 100*tolerance)
		}
	}
	return nil
}
