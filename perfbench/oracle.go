package main

import (
	"repro"
	"repro/internal/interp"
	"repro/internal/netbench"
)

// oracleTrace runs the unpartitioned program on the sequential
// interpreter over copies of pkts. It is the reference every served trace
// and every partition is compared against; the compiled backend, which the
// runtime serves with, is never its own reference.
func oracleTrace(prog *repro.Program, pkts [][]byte) ([]repro.Event, error) {
	return interp.RunSequential(prog, netbench.NewWorld(copyPackets(pkts)), len(pkts))
}

// tamper, when a test sets it, alters each served trace before the
// oracle check, to show that a divergence is caught and fails the run.
var tamper func(trace []repro.Event)

// packetEvents splits a trace into per-packet groups: each group ends with
// the packet's send or drop, which every iteration of the IPv4 PPS emits
// last. Events after the final send or drop form one more group.
func packetEvents(tr []repro.Event) [][]repro.Event {
	var out [][]repro.Event
	start := 0
	for i, e := range tr {
		if e.Kind == interp.EvSend || e.Kind == interp.EvDrop {
			out = append(out, tr[start:i+1])
			start = i + 1
		}
	}
	if start < len(tr) {
		out = append(out, tr[start:])
	}
	return out
}

// divergent counts the packets whose served events differ from the
// oracle's. A packet missing from either side (shed, lost, duplicated)
// counts as divergent, and so does every packet after the first point
// where the two traces fall out of step.
func divergent(got, want []repro.Event) int {
	g, w := packetEvents(got), packetEvents(want)
	n := min(len(g), len(w))
	bad := max(len(g), len(w)) - n
	for i := 0; i < n; i++ {
		if repro.TraceEqual(g[i], w[i]) != "" {
			bad++
		}
	}
	return bad
}
