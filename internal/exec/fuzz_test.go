package exec_test

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/interp"
	"repro/internal/ppc"
	"repro/internal/randprog"
)

// splitPackets cuts fuzz bytes into a packet stream: each packet is a
// length byte (mod 48) followed by up to that many bytes, at most 16
// packets.
func splitPackets(data []byte) [][]byte {
	var packets [][]byte
	for len(data) > 0 && len(packets) < 16 {
		n := min(int(data[0])%48, len(data)-1)
		packets = append(packets, data[1:1+n])
		data = data[1+n:]
	}
	return packets
}

// outcome runs one backend over a fresh world and returns what it
// observably did: the trace up to the end or the error, and the error's
// text.
func outcome(packets [][]byte, run func(w *interp.World) ([]interp.Event, error)) (trace []interp.Event, errText string) {
	w := interp.NewWorld(packets)
	_, err := run(w)
	if err != nil {
		errText = err.Error()
	}
	return w.Trace, errText
}

// FuzzCompiledVsInterp holds the compiled backend byte-identical to the
// interpreter on generated programs: the fuzz input is a randprog seed and
// the bytes of a packet stream. Each program runs sequentially and
// partitioned at D = 1, 2 and 4, and on every run the compiled trace —
// including the prefix emitted before an error — and the error text must
// equal the interpreter's. The checked-in corpus under testdata/fuzz seeds
// the mutator.
func FuzzCompiledVsInterp(f *testing.F) {
	for seed := int64(0); seed < 8; seed++ {
		f.Add(seed, []byte{byte(seed * 7), 0x45, 0x00, 0x00, 0x1c, byte(seed)})
	}
	f.Fuzz(func(t *testing.T, seed int64, data []byte) {
		src := randprog.Generate(seed, randprog.DefaultConfig())
		prog, err := ppc.Compile(src)
		if err != nil {
			t.Skipf("seed %d: not compilable: %v", seed, err)
		}
		packets := splitPackets(data)
		iters := len(packets) + 1

		check := func(what string, oracle, compiled func(w *interp.World) ([]interp.Event, error)) {
			wantTrace, wantErr := outcome(packets, oracle)
			gotTrace, gotErr := outcome(packets, compiled)
			if gotErr != wantErr {
				t.Fatalf("seed %d %s: errors diverge:\ninterp: %s\nexec:   %s\nsource:\n%s", seed, what, wantErr, gotErr, src)
			}
			if diff := interp.TraceEqual(wantTrace, gotTrace); diff != "" {
				t.Fatalf("seed %d %s: %s\nsource:\n%s", seed, what, diff, src)
			}
		}
		check("sequential",
			func(w *interp.World) ([]interp.Event, error) { return interp.RunSequential(prog.Clone(), w, iters) },
			func(w *interp.World) ([]interp.Event, error) { return exec.RunSequential(prog, w, iters) })
		for _, d := range []int{1, 2, 4} {
			res, err := core.Partition(prog, core.Options{Stages: d})
			if err != nil {
				continue // not partitionable at this degree
			}
			stages := res.Stages
			check(fmt.Sprintf("D=%d", d),
				func(w *interp.World) ([]interp.Event, error) { return interp.RunPipeline(stages, w, iters) },
				func(w *interp.World) ([]interp.Event, error) { return exec.RunPipeline(stages, w, iters) })
		}
	})
}
