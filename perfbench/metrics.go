package main

import "fmt"

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees, reported by every
// untraced run. README.md gives each one's definition per workload, and
// why the admission-lag percentiles are per-layer metrics instead.
var endToEnd = []metricDef{
	{"pkts_per_s", "pkt/s"},
	{"cpu_ns_per_pkt", "ns"},
	{"peak_rss_mb", "MB"},
	{"setup_s", "s"},
	{"explore_s", "s"},
}

// maxLayerIndex bounds the per-stage (sK) and per-unit (uK) metric
// families: the deepest served workload has four stages. Absent stages
// and units report 0.
const maxLayerIndex = 4

// perLayer lists the traced run's metrics in a fixed order; a layer a
// workload does not exercise reports 0.
func perLayer() []metricDef {
	defs := []metricDef{
		{"ppc.compile_us", "us"},
		{"core.analyze_ms", "ms"},
		{"core.partition_ms", "ms"},
		{"core.partition_ms_d8", "ms"},
	}
	for k := 1; k <= maxLayerIndex; k++ {
		defs = append(defs, metricDef{fmt.Sprintf("exec.s%d.ns_per_pkt", k), "ns"})
	}
	defs = append(defs, metricDef{"exec.allocs_per_pkt", "count"}, metricDef{"exec.bytes_per_pkt", "B"})
	for k := 1; k <= maxLayerIndex; k++ {
		p := fmt.Sprintf("runtime.s%d.", k)
		defs = append(defs,
			metricDef{p + "busy_ns_per_pkt", "ns"},
			metricDef{p + "tx_wait_ns_per_pkt", "ns"},
			metricDef{p + "rx_wait_ns_per_pkt", "ns"},
			metricDef{p + "stalls", "count"},
			metricDef{p + "occupancy", "count"})
	}
	defs = append(defs,
		metricDef{"runtime.units", "count"},
		metricDef{"runtime.overhead_ns_per_pkt", "ns"},
		metricDef{"runtime.residual_ns_per_pkt", "ns"},
		metricDef{"runtime.retained_mb", "MB"},
		metricDef{"runtime.trace_events", "count"},
		metricDef{"runtime.batch_residence_p50_us", "us"},
		metricDef{"runtime.batch_residence_p99_us", "us"})
	for k := 1; k <= maxLayerIndex; k++ {
		p := fmt.Sprintf("runtime.u%d.", k)
		for _, c := range ledgerColumns {
			defs = append(defs, metricDef{p + c + "_ns_per_pkt", "ns"})
		}
	}
	for k := 1; k <= maxLayerIndex; k++ {
		p := fmt.Sprintf("spsc.s%d.", k)
		defs = append(defs,
			metricDef{p + "spins", "count"},
			metricDef{p + "parks", "count"},
			metricDef{p + "spin_ns_per_pkt", "ns"},
			metricDef{p + "park_ns_per_pkt", "ns"})
	}
	return append(defs,
		metricDef{"spsc.spin_resolved_frac", "ratio"},
		metricDef{"ingest.offered_packets", "count"},
		metricDef{"ingest.rx_packets", "count"},
		metricDef{"ingest.pull_ns_per_pkt", "ns"},
		metricDef{"ingest.idle_frac", "ratio"},
		metricDef{"ingest.admit_lag_p50_us", "us"},
		metricDef{"ingest.admit_lag_p99_us", "us"},
		metricDef{"ingest.admit_lag_samples", "count"},
		metricDef{"costmodel.share_err", "ratio"},
		metricDef{"costmodel.fused_cuts", "count"},
		metricDef{"go.gc_cpu_frac", "ratio"},
		metricDef{"go.gc_cycles", "count"},
		metricDef{"go.gc_pause_p99_us", "us"},
		metricDef{"go.sched_latency_p99_us", "us"},
		metricDef{"trace.untraced_pkts_per_s", "pkt/s"},
		metricDef{"trace.traced_pkts_per_s", "pkt/s"},
		metricDef{"trace.overhead_pkts_per_s", "pkt/s"},
		metricDef{"trace.overhead_frac", "ratio"})
}

// ledgerColumns split one execution unit's wall time: stage execution,
// time inside the source's Pull (head unit only), blocked pushing into a
// full ring, blocked on an empty ring, and the residual the other four
// leave. They sum to wall by construction, so a residual that grows is
// time no layer accounts for.
var ledgerColumns = []string{"wall", "busy", "ingest", "tx_wait", "rx_wait", "residual"}

// newResult returns a result whose metrics hold every name in defs at 0,
// so a layer a workload does not exercise still reports.
func newResult(defs []metricDef) *result {
	r := &result{Correct: true, Metrics: make(map[string]metric, len(defs))}
	for _, d := range defs {
		r.Metrics[d.name] = metric{Unit: d.unit}
	}
	return r
}
