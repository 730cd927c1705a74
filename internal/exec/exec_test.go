package exec_test

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/netbench"
	"repro/internal/ppc"
	"repro/internal/randprog"
)

// The compiled backend has no oracle of its own: every test here holds it
// byte-identical to the interpreter on the same program and inputs — the
// differential discipline ISSUE 5 requires.

// randPackets derives a deterministic random packet stream for a seed,
// using the same derivation as the core property tests so the two corpora
// exercise the same inputs.
func randPackets(seed int64) [][]byte {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	packets := make([][]byte, 3+rng.Intn(4))
	for i := range packets {
		p := make([]byte, rng.Intn(16))
		rng.Read(p)
		packets[i] = p
	}
	return packets
}

// TestCompiledVsInterpSequential is the core differential property: for
// randomly generated programs and random packets, the compiled backend's
// sequential trace is byte-identical to the interpreter's.
func TestCompiledVsInterpSequential(t *testing.T) {
	seeds := int64(200)
	if testing.Short() {
		seeds = 40
	}
	for seed := int64(0); seed < seeds; seed++ {
		src := randprog.Generate(seed, randprog.DefaultConfig())
		prog, err := ppc.Compile(src)
		if err != nil {
			t.Fatalf("seed %d: compile: %v\n%s", seed, err, src)
		}
		packets := randPackets(seed)
		iters := len(packets) + 1

		base := interp.NewWorld(packets)
		want, err := interp.RunSequential(prog.Clone(), base.Clone(), iters)
		if err != nil {
			t.Fatalf("seed %d: interp: %v\n%s", seed, err, src)
		}
		got, err := exec.RunSequential(prog, base.Clone(), iters)
		if err != nil {
			t.Fatalf("seed %d: exec: %v\n%s", seed, err, src)
		}
		if diff := interp.TraceEqual(want, got); diff != "" {
			t.Fatalf("seed %d: %s\nsource:\n%s", seed, diff, src)
		}
	}
}

// TestCompiledVsInterpPipeline partitions each generated program and checks
// the compiled pipeline (shared persistent store, live-set hand-off) against
// the interpreter pipeline at several degrees.
func TestCompiledVsInterpPipeline(t *testing.T) {
	seeds := int64(100)
	if testing.Short() {
		seeds = 25
	}
	for seed := int64(0); seed < seeds; seed++ {
		src := randprog.Generate(seed, randprog.DefaultConfig())
		prog, err := ppc.Compile(src)
		if err != nil {
			t.Fatalf("seed %d: compile: %v\n%s", seed, err, src)
		}
		packets := randPackets(seed)
		iters := len(packets) + 1
		base := interp.NewWorld(packets)

		for _, d := range []int{2, 3, 5} {
			res, err := core.Partition(prog, core.Options{Stages: d})
			if err != nil {
				t.Fatalf("seed %d D=%d: partition: %v\n%s", seed, d, err, src)
			}
			want, err := interp.RunPipeline(res.Stages, base.Clone(), iters)
			if err != nil {
				t.Fatalf("seed %d D=%d: interp: %v\n%s", seed, d, err, src)
			}
			got, err := exec.RunPipeline(res.Stages, base.Clone(), iters)
			if err != nil {
				t.Fatalf("seed %d D=%d: exec: %v\n%s", seed, d, err, src)
			}
			if diff := interp.TraceEqual(want, got); diff != "" {
				t.Fatalf("seed %d D=%d: %s\nsource:\n%s", seed, d, diff, src)
			}
		}
	}
}

// TestCompiledNetbenchGolden checks the compiled backend against the
// interpreter on every NPF benchmark PPS, sequentially and partitioned.
func TestCompiledNetbenchGolden(t *testing.T) {
	for _, pps := range append(netbench.IPv4Forwarding(), netbench.IPForwarding()...) {
		prog, err := pps.Compile()
		if err != nil {
			t.Fatalf("%s: %v", pps.Name, err)
		}
		traffic := pps.Traffic(64)
		iters := len(traffic) + 1
		base := netbench.NewWorld(traffic)

		want, err := interp.RunSequential(prog.Clone(), base.Clone(), iters)
		if err != nil {
			t.Fatalf("%s: interp: %v", pps.Name, err)
		}
		got, err := exec.RunSequential(prog, base.Clone(), iters)
		if err != nil {
			t.Fatalf("%s: exec: %v", pps.Name, err)
		}
		if diff := interp.TraceEqual(want, got); diff != "" {
			t.Fatalf("%s sequential: %s", pps.Name, diff)
		}

		for _, d := range []int{2, 4} {
			res, err := core.Partition(prog, core.Options{Stages: d})
			if err != nil {
				t.Fatalf("%s D=%d: partition: %v", pps.Name, d, err)
			}
			got, err := exec.RunPipeline(res.Stages, base.Clone(), iters)
			if err != nil {
				t.Fatalf("%s D=%d: exec pipeline: %v", pps.Name, d, err)
			}
			if diff := interp.TraceEqual(want, got); diff != "" {
				t.Fatalf("%s D=%d: %s", pps.Name, d, diff)
			}
		}
	}
}

// TestCompiledStageHandoff drives compiled stage runners the way the
// streaming runtime does — RxFromCtx, pre-pulled Pending packets, deferred
// events — and checks the merged per-iteration events against the
// interpreter runners driven identically.
func TestCompiledStageHandoff(t *testing.T) {
	pps, ok := netbench.ByName("IPv4")
	if !ok {
		t.Fatal("IPv4 benchmark missing")
	}
	prog, err := pps.Compile()
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Partition(prog, core.Options{Stages: 4})
	if err != nil {
		t.Fatal(err)
	}
	traffic := pps.Traffic(32)

	runBoth := func(runIter func(k int, ctx *interp.IterCtx, slots []int64) ([]int64, error)) []interp.Event {
		ctx := interp.NewIterCtx()
		var all []interp.Event
		for _, p := range traffic {
			ctx.DeferEvents = true
			ctx.Pending, ctx.HasPending = p, true
			var slots []int64
			for k := range res.Stages {
				out, err := runIter(k, ctx, slots)
				if err != nil {
					t.Fatalf("stage %d: %v", k, err)
				}
				slots = out
			}
			all = append(all, ctx.Events...)
			ctx.Reset()
		}
		return all
	}

	iRunners := interp.NewStageRunners(res.Stages, netbench.NewWorld(nil))
	for _, r := range iRunners {
		r.RxFromCtx = true
	}
	want := runBoth(func(k int, ctx *interp.IterCtx, slots []int64) ([]int64, error) {
		return iRunners[k].RunIteration(ctx, slots)
	})

	cRunners := exec.NewStageRunners(res.Stages, netbench.NewWorld(nil))
	for _, r := range cRunners {
		r.RxFromCtx = true
	}
	got := runBoth(func(k int, ctx *interp.IterCtx, slots []int64) ([]int64, error) {
		return cRunners[k].RunIteration(ctx, slots)
	})

	if diff := interp.TraceEqual(want, got); diff != "" {
		t.Fatalf("deferred-event hand-off diverges: %s", diff)
	}
}

// TestCompiledStepLimitParity checks that a non-terminating loop errors on
// both backends with the same message and after the same trace, wherever in
// the loop the budget runs out. The loop's blocks hold every lowering rule
// that drops closures from the fast path — folded arithmetic (1 << 40,
// B + 3 and its copy), a compare-and-branch fused with an immediate
// operand, and an add with an immediate — plus a trace() that makes the
// step on which the limit fires observable. Each "y = x;" of preamble is
// one IR instruction, so sweeping the preamble across the loop's period
// moves the limit through every instruction offset of the loop; the test
// checks that it did.
func TestCompiledStepLimitParity(t *testing.T) {
	const loop = `const B = 4;
pps P { loop { var x = 1; var y = x;%s var i = 0;
	while (i < 1 << 40) { var k = B + 3; trace(i); i = i + k; } } }`
	type site struct {
		blk string
		idx int
	}
	var cycle []site           // every instruction of the loop
	lastRun := map[site]bool{} // the last instruction a run executed
	for pad := 0; pad == 0 || pad < len(cycle); pad++ {
		prog, err := ppc.Compile(fmt.Sprintf(loop, strings.Repeat(" y = x;", pad)))
		if err != nil {
			t.Fatal(err)
		}
		at := map[*ir.Instr]site{}
		for _, b := range prog.Func.Blocks {
			for idx, in := range b.Instrs {
				at[in] = site{b.Name, idx}
				if pad == 0 && (b.Name == "while.head" || b.Name == "while.body") {
					cycle = append(cycle, site{b.Name, idx})
				}
			}
		}

		iw, cw := interp.NewWorld(nil), interp.NewWorld(nil)
		oracle := interp.NewRunner(prog, iw)
		var last *ir.Instr
		oracle.OnInstr = func(in *ir.Instr) { last = in }
		_, iErr := oracle.RunIteration(interp.NewIterCtx(), nil)
		_, cErr := exec.NewRunner(prog, cw).RunIteration(interp.NewIterCtx(), nil)
		if iErr == nil || cErr == nil {
			t.Fatalf("pad %d: non-terminating loop did not error: interp=%v exec=%v", pad, iErr, cErr)
		}
		if iErr.Error() != cErr.Error() {
			t.Fatalf("pad %d: error messages diverge:\ninterp: %v\nexec:   %v", pad, iErr, cErr)
		}
		if diff := interp.TraceEqual(iw.Trace, cw.Trace); diff != "" {
			t.Fatalf("pad %d: traces before the step limit diverge: %s", pad, diff)
		}
		lastRun[at[last]] = true
	}
	for _, s := range cycle {
		if !lastRun[s] {
			t.Errorf("no preamble length ran out of budget right after %s[%d]", s.blk, s.idx)
		}
	}
}

// TestCompiledSendCopyOnWrite checks packet ownership after pkt_send: the
// compiled backend's send event takes the packet buffer itself, so the
// pkt_setbyte and pkt_setword that follow — in the same stage or, once
// partitioned, a downstream one — must copy the packet before writing, and
// the first event must keep the bytes as they were sent.
func TestCompiledSendCopyOnWrite(t *testing.T) {
	prog, err := ppc.Compile(`pps P { loop {
		var n = pkt_rx();
		if (n < 0) { continue; }
		pkt_send(1);
		pkt_setbyte(0, pkt_byte(1) + 1);
		pkt_send(2);
		var h = hash_crc(pkt_word(0) + n);
		pkt_setword(2, h);
		trace(h);
		pkt_send(3);
	} }`)
	if err != nil {
		t.Fatal(err)
	}
	packets := [][]byte{{1, 2, 3, 4, 5, 6}, {9, 8, 7}, {}, {0xff}}
	iters := len(packets) + 1
	base := interp.NewWorld(packets)
	want, err := interp.RunSequential(prog.Clone(), base.Clone(), iters)
	if err != nil {
		t.Fatal(err)
	}
	got, err := exec.RunSequential(prog, base.Clone(), iters)
	if err != nil {
		t.Fatal(err)
	}
	if diff := interp.TraceEqual(want, got); diff != "" {
		t.Fatalf("sequential: %s", diff)
	}
	for _, d := range []int{2, 3, 4} {
		res, err := core.Partition(prog, core.Options{Stages: d})
		if err != nil {
			t.Fatalf("D=%d: %v", d, err)
		}
		got, err := exec.RunPipeline(res.Stages, base.Clone(), iters)
		if err != nil {
			t.Fatalf("D=%d: %v", d, err)
		}
		if diff := interp.TraceEqual(want, got); diff != "" {
			t.Fatalf("D=%d: %s", d, diff)
		}
	}
}

// TestCompiledRecvSlotMismatchParity feeds a downstream stage the wrong
// live-set width and checks both backends reject it with the same message.
func TestCompiledRecvSlotMismatchParity(t *testing.T) {
	pps, ok := netbench.ByName("IPv4")
	if !ok {
		t.Fatal("IPv4 benchmark missing")
	}
	prog, err := pps.Compile()
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Partition(prog, core.Options{Stages: 2})
	if err != nil {
		t.Fatal(err)
	}

	iErrRun := interp.NewStageRunners(res.Stages, netbench.NewWorld(nil))[1]
	cErrRun := exec.NewStageRunners(res.Stages, netbench.NewWorld(nil))[1]
	_, iErr := iErrRun.RunIteration(interp.NewIterCtx(), nil)
	_, cErr := cErrRun.RunIteration(interp.NewIterCtx(), nil)
	if iErr == nil || cErr == nil {
		t.Skipf("stage 2 accepted empty live set (no recv): interp=%v exec=%v", iErr, cErr)
	}
	if iErr.Error() != cErr.Error() {
		t.Fatalf("error messages diverge:\ninterp: %v\nexec:   %v", iErr, cErr)
	}
}

// TestCompiledPersistentIsolation checks that two independently constructed
// compiled runners do not share persistent state, while NewStageRunners
// peers do (through the shared store).
func TestCompiledPersistentIsolation(t *testing.T) {
	src := `pps P {
		persistent var seen[4];
		loop {
			var n = pkt_rx();
			seen[0] = seen[0] + 1;
			trace(seen[0]);
		} }`
	prog, err := ppc.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	w := interp.NewWorld([][]byte{{1}, {2}})

	a := exec.NewRunner(prog, w)
	b := exec.NewRunner(prog.Clone(), w)
	ctx := interp.NewIterCtx()
	if _, err := a.RunIteration(ctx, nil); err != nil {
		t.Fatal(err)
	}
	ctx.Reset()
	if _, err := b.RunIteration(ctx, nil); err != nil {
		t.Fatal(err)
	}
	// Independent runners each count from zero: trace(1), trace(1).
	if len(w.Trace) != 2 || w.Trace[0].Val != 1 || w.Trace[1].Val != 1 {
		t.Fatalf("independent runners shared persistent state: %v", w.Trace)
	}
	if a.PersistentStore() == b.PersistentStore() {
		t.Fatal("independent runners report the same persistent store")
	}
}

// BenchmarkCompiledSequentialIPv4 measures the raw per-iteration substrate
// cost of the compiled backend against BenchmarkInterpreter's workload.
func BenchmarkCompiledSequentialIPv4(b *testing.B) {
	pps, ok := netbench.ByName("IPv4")
	if !ok {
		b.Fatal("IPv4 benchmark missing")
	}
	prog, err := pps.Compile()
	if err != nil {
		b.Fatal(err)
	}
	traffic := pps.Traffic(256)
	world := netbench.NewWorld(nil)
	r := exec.NewRunner(prog, world)
	r.RxFromCtx = true
	ctx := interp.NewIterCtx()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctx.Pending, ctx.HasPending = traffic[i%len(traffic)], true
		if _, err := r.RunIteration(ctx, nil); err != nil {
			b.Fatal(err)
		}
		ctx.Reset()
		if len(world.Trace) > 1<<16 {
			world.Trace = world.Trace[:0]
		}
	}
}

// BenchmarkCompiledStageIPv4D1 measures the program the ipv4-d1 serve
// workload runs: the IPv4 PPS realized as one pipeline stage (live-set
// plumbing and all), fed pre-pulled packets with deferred events, as the
// streaming runtime drives it.
func BenchmarkCompiledStageIPv4D1(b *testing.B) {
	pps, ok := netbench.ByName("IPv4")
	if !ok {
		b.Fatal("IPv4 benchmark missing")
	}
	prog, err := pps.Compile()
	if err != nil {
		b.Fatal(err)
	}
	res, err := core.Partition(prog, core.Options{Stages: 1})
	if err != nil {
		b.Fatal(err)
	}
	traffic := pps.Traffic(256)
	r := exec.NewStageRunners(res.Stages, netbench.NewWorld(nil))[0]
	r.RxFromCtx = true
	ctx := interp.NewIterCtx()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctx.DeferEvents = true
		ctx.Pending, ctx.HasPending = traffic[i%len(traffic)], true
		if _, err := r.RunIteration(ctx, nil); err != nil {
			b.Fatal(err)
		}
		ctx.Reset()
	}
}
