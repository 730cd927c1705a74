package exec

import (
	"testing"

	"repro/internal/core"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/netbench"
)

// White-box checks of the lowering rules: how many closures a packet
// dispatches, and whether the narrowed frame reset is sound on real
// traffic. The differential tests in exec_test.go check the results; these
// check the mechanism.

// blockOf maps every instruction of f to the index of its block.
func blockOf(f *ir.Func) map[*ir.Instr]int {
	at := make(map[*ir.Instr]int)
	for bi, b := range f.Blocks {
		for _, in := range b.Instrs {
			at[in] = bi
		}
	}
	return at
}

// runInterpStages drives the interpreter over stages the way the streaming
// runtime does (pre-pulled packets, deferred events, live sets handed
// stage to stage), calling hook(k) before stage k runs each iteration and
// observing every executed instruction through onInstr(k, in).
func runInterpStages(t *testing.T, stages []*ir.Program, traffic [][]byte, hook func(k int), onInstr func(k int, in *ir.Instr)) {
	t.Helper()
	runners := interp.NewStageRunners(stages, netbench.NewWorld(nil))
	for k, r := range runners {
		r.RxFromCtx = true
		r.OnInstr = func(in *ir.Instr) { onInstr(k, in) }
	}
	ctx := interp.NewIterCtx()
	for _, p := range traffic {
		ctx.DeferEvents = true
		ctx.Pending, ctx.HasPending = p, true
		var slots []int64
		for k, r := range runners {
			hook(k)
			out, err := r.RunIteration(ctx, slots)
			if err != nil {
				t.Fatalf("stage %d: %v", k, err)
			}
			slots = out
		}
		ctx.Reset()
	}
}

// TestLoweringDispatchBudget pins the dispatch work of the program the
// ipv4-d1 workload serves — the IPv4 PPS realized at D=1 — and checks the
// narrowed frame reset against execution on every netbench application.
func TestLoweringDispatchBudget(t *testing.T) {
	t.Run("IPv4-D1", func(t *testing.T) {
		pps, _ := netbench.ByName("IPv4")
		prog, err := pps.Compile()
		if err != nil {
			t.Fatal(err)
		}
		res, err := core.Partition(prog, core.Options{Stages: 1})
		if err != nil {
			t.Fatal(err)
		}
		m := NewStageRunners(res.Stages, netbench.NewWorld(nil))[0]
		at := blockOf(res.Stages[0].Func)
		visits := make([]int, len(m.blocks))
		traffic := pps.Traffic(256)
		runInterpStages(t, res.Stages, traffic, func(int) {}, func(_ int, in *ir.Instr) {
			if in.Op.IsTerminator() {
				visits[at[in]]++
			}
		})
		body := 0
		for bi, b := range m.blocks {
			body += visits[bi] * len(b.body)
		}
		perPkt := float64(body) / float64(len(traffic))
		t.Logf("%.1f body closures per packet, %d registers reset of %d", perPkt, len(m.reset), len(m.regs))
		if perPkt > 115 {
			t.Errorf("%.1f body closures per packet, budget 115", perPkt)
		}
		if len(m.reset) != 0 {
			t.Errorf("reset set has %d registers, want none: %v", len(m.reset), m.reset)
		}
	})

	apps := append(append(netbench.IPv4Forwarding(), netbench.IPForwarding()...), netbench.Segments()...)
	for _, pps := range apps {
		prog, err := pps.Compile()
		if err != nil {
			t.Fatalf("%s: %v", pps.Name, err)
		}
		for _, d := range []int{1, 4} {
			res, err := core.Partition(prog, core.Options{Stages: d})
			if err != nil {
				t.Fatalf("%s D=%d: %v", pps.Name, d, err)
			}
			checkResetSound(t, pps.Name, d, res.Stages, pps.Traffic(64))
		}
	}
}

// checkResetSound replays traffic on the interpreter, tracking per
// iteration which registers each stage has written, and fails on any read
// of an unwritten register the compiled runner does not zero at iteration
// start. Preloaded registers need no exemption: their writers dominate
// every read, so execution writes them first. Stage programs are out of
// SSA form, so there are no phi moves to model; one would show up here as
// a read of a register never written.
func checkResetSound(t *testing.T, name string, d int, stages []*ir.Program, traffic [][]byte) {
	t.Helper()
	runners := NewStageRunners(stages, netbench.NewWorld(nil))
	reset := make([]map[int]bool, len(stages))
	written := make([][]bool, len(stages))
	for k, s := range stages {
		reset[k] = map[int]bool{}
		for _, r := range runners[k].reset {
			reset[k][r] = true
		}
		written[k] = make([]bool, s.Func.NumRegs)
	}
	reported := map[[2]int]bool{}
	onInstr := func(k int, in *ir.Instr) {
		for _, r := range in.Args {
			if !written[k][r] && !reset[k][r] && !reported[[2]int{k, r}] {
				reported[[2]int{k, r}] = true
				t.Errorf("%s D=%d stage %d: r%d read before written but not reset", name, d, k, r)
			}
		}
		for _, r := range in.Defines() {
			written[k][r] = true
		}
	}
	runInterpStages(t, stages, traffic, func(k int) { clear(written[k]) }, onInstr)
}
