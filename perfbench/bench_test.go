package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro"
	"repro/internal/netbench"
)

func TestInputsRepeatPerSeed(t *testing.T) {
	digest := func(seed uint64) string {
		pkts := genTraffic(seed, defaultTraffic(4096))
		return inputDigest(pkts, genSchedule(seed, len(pkts), p2Schedule).Due)
	}
	if a, b := digest(7), digest(7); a != b {
		t.Fatalf("seed 7 gave digests %s and %s", a, b)
	}
	if a, b := digest(7), digest(8); a == b {
		t.Fatalf("seeds 7 and 8 gave the same digest %s", a)
	}
}

func TestTrafficShape(t *testing.T) {
	cfg := defaultTraffic(1 << 16)
	pkts := genTraffic(3, cfg)
	slow := 0
	for i, p := range pkts {
		if len(p) != frameSize || p[2] != 0x00 || p[3] != 0x21 {
			t.Fatalf("packet %d is not a 48-byte IPv4 POS frame: % x", i, p[:4])
		}
		ip := p[frameHdr:]
		if got := uint16(ip[10])<<8 | uint16(ip[11]); got != ipChecksum(ip[:20]) {
			t.Fatalf("packet %d: header checksum %#x, want %#x", i, got, ipChecksum(ip[:20]))
		}
		if ip[8] == 1 {
			slow++
		}
	}
	if share := float64(slow) / float64(len(pkts)); math.Abs(share-cfg.SlowFrac) > 0.005 {
		t.Errorf("TTL-1 share %.4f, want %.4f", share, cfg.SlowFrac)
	}
}

func TestScheduleMatchesConfig(t *testing.T) {
	const n = 1 << 20 // about five seconds of schedule: hundreds of on/off periods
	s := genSchedule(11, n, p2Schedule)
	span := s.Due[n-1] + time.Duration(float64(time.Second)/p2Schedule.Peak)
	if rate := float64(n) / span.Seconds(); math.Abs(rate/p2Schedule.Mean-1) > 0.01 {
		t.Errorf("mean rate %.0f pkt/s, want %.0f", rate, p2Schedule.Mean)
	}
	mean := func(ds []time.Duration) time.Duration {
		var sum time.Duration
		for _, d := range ds {
			sum += d
		}
		return sum / time.Duration(len(ds))
	}
	if len(s.OnDwell) < 200 {
		t.Fatalf("only %d on periods", len(s.OnDwell))
	}
	if on := mean(s.OnDwell); math.Abs(on.Seconds()/p2Schedule.MeanOn.Seconds()-1) > 0.15 {
		t.Errorf("mean on dwell %v, want %v", on, p2Schedule.MeanOn)
	}
	if off := mean(s.OffDwell); math.Abs(off.Seconds()/p2Schedule.meanOff().Seconds()-1) > 0.15 {
		t.Errorf("mean off dwell %v, want %v", off, p2Schedule.meanOff())
	}
	for i := 1; i < n; i++ {
		if s.Due[i] < s.Due[i-1] {
			t.Fatalf("due times go backwards at %d", i)
		}
	}
}

func TestDivergentCountsPackets(t *testing.T) {
	prog := repro.MustCompile(netbench.IPv4Src)
	pkts := genTraffic(5, defaultTraffic(512))
	want, err := oracleTrace(prog, pkts)
	if err != nil {
		t.Fatal(err)
	}
	got := append([]repro.Event(nil), want...)
	if n := divergent(got, want); n != 0 {
		t.Fatalf("identical traces: %d divergent packets", n)
	}
	for i := range got {
		if got[i].Pkt != nil {
			got[i].Pkt = append([]byte(nil), got[i].Pkt...)
			got[i].Pkt[len(got[i].Pkt)-1] ^= 1
			break
		}
	}
	if n := divergent(got, want); n != 1 {
		t.Fatalf("one flipped byte: %d divergent packets, want 1", n)
	}
	if n := divergent(want[:len(want)-1], want); n == 0 {
		t.Fatal("a lost event went unnoticed")
	}
}

// runBench runs the command in-process and returns its exit status, its
// last output line decoded, and its standard error.
func runBench(t *testing.T, args ...string) (int, result, string) {
	t.Helper()
	var out, errb bytes.Buffer
	code := run(args, &out, &errb)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if out.Len() > 0 {
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
		}
	}
	return code, res, errb.String()
}

func TestCorruptedTraceFailsTheRun(t *testing.T) {
	tamper = func(tr []repro.Event) {
		for i := range tr {
			if tr[i].Pkt != nil {
				tr[i].Pkt[0] ^= 0xFF
				return
			}
		}
	}
	defer func() { tamper = nil }()
	code, res, stderr := runBench(t, "--workload", "ipv4-d1", "--seed", "2", "--seconds", "0.1", "--trace", "0")
	if code == 0 || res.Correct || res.Failed == 0 {
		t.Fatalf("exit %d, correct %v, failed %d: a corrupted trace was not caught", code, res.Correct, res.Failed)
	}
	if !strings.Contains(stderr, "diverged") {
		t.Errorf("stderr does not report the divergence: %q", stderr)
	}
}

func TestEveryWorkloadReportsEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, w := range workloads {
		code, res, stderr := runBench(t, "--workload", w.name, "--seed", "4", "--seconds", "0.1", "--trace", "0")
		if code != 0 || !res.Correct || res.Attempted == 0 {
			t.Fatalf("%s: exit %d, correct %v, attempted %d: %s", w.name, code, res.Correct, res.Attempted, stderr)
		}
		if len(res.Metrics) != len(endToEnd) {
			t.Errorf("%s: %d metrics, want %d", w.name, len(res.Metrics), len(endToEnd))
		}
		for _, d := range endToEnd {
			m, ok := res.Metrics[d.name]
			if !ok || m.Unit != d.unit || !(m.Value > 0) {
				t.Errorf("%s: %s = %+v, want a positive value in %s", w.name, d.name, m, d.unit)
			}
		}
	}
}

func TestTracedRunLedger(t *testing.T) {
	spans := filepath.Join(t.TempDir(), "spans.json")
	code, res, stderr := runBench(t, "--workload", "ipv4-d4", "--seed", "3", "--seconds", "0.2", "--trace", "1", "--spans", spans)
	if code != 0 || !res.Correct {
		t.Fatalf("exit %d, correct %v: %s", code, res.Correct, stderr)
	}
	defs := perLayer()
	if len(res.Metrics) != len(defs) {
		t.Errorf("%d metrics, want %d", len(res.Metrics), len(defs))
	}
	v := func(name string) float64 {
		m, ok := res.Metrics[name]
		if !ok {
			t.Fatalf("metric %s missing", name)
		}
		return m.Value
	}
	if off, rx := v("ingest.offered_packets"), v("ingest.rx_packets"); off == 0 || off != rx {
		t.Errorf("ingest.rx_packets %v, offered %v", rx, off)
	}
	// Every unit's columns sum to its wall time.
	for u := 1; u <= int(v("runtime.units")); u++ {
		p := fmt.Sprintf("runtime.u%d.", u)
		wall := v(p + "wall_ns_per_pkt")
		sum := v(p+"busy_ns_per_pkt") + v(p+"ingest_ns_per_pkt") + v(p+"tx_wait_ns_per_pkt") +
			v(p+"rx_wait_ns_per_pkt") + v(p+"residual_ns_per_pkt")
		if wall <= 0 || math.Abs(sum-wall) > 1e-6*wall {
			t.Errorf("unit %d: columns sum to %v, wall %v", u, sum, wall)
		}
	}
	if v("runtime.residual_ns_per_pkt") == 0 {
		t.Error("runtime.residual_ns_per_pkt not reported")
	}
	if v("trace.untraced_pkts_per_s") <= 0 || v("trace.traced_pkts_per_s") <= 0 {
		t.Error("tracing overhead not measured")
	}
	if got, want := v("trace.overhead_pkts_per_s"), v("trace.untraced_pkts_per_s")-v("trace.traced_pkts_per_s"); got != want {
		t.Errorf("trace.overhead_pkts_per_s %v, want %v", got, want)
	}
	if v("exec.s4.ns_per_pkt") <= 0 || v("ppc.compile_us") <= 0 {
		t.Error("exec or ppc layer not measured")
	}
	if st, err := os.Stat(spans); err != nil || st.Size() == 0 {
		t.Errorf("spans not written: %v", err)
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the command in step: the
// same workloads and the same metrics with the same units.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type def struct{ Name, Unit string }
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []def `json:"end_to_end"`
		PerLayer  []def `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if strings.Join(names, ",") != strings.Join(want, ",") {
		t.Errorf("BENCHMARK.json workloads %v, command has %v", names, want)
	}
	same := func(kind string, got []def, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, command reports %d", kind, len(got), len(want))
			return
		}
		for i := range got {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json has %s [%s], command %s [%s]", kind, i,
					got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd)
	same("per_layer", b.PerLayer, perLayer())
}
