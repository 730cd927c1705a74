package runtime

// White-box coverage of the sink-side trace store: sink collectors must
// hand back exactly the events a flat append would have built, across
// chunk boundaries, for a lone collector (concatenated) and for several
// (k-way merged by iteration).

import (
	"math/rand"
	"testing"

	"repro/internal/interp"
)

// TestSinkCollectorsMatchFlatAppend retires a synthetic stream of well
// over traceChunkEvents events — iterations interleaved across
// collectors, gaps where iterations were quarantined, iterations that
// emit nothing, and one iteration larger than a whole chunk — and
// compares the assembled trace with the flat reference.
func TestSinkCollectorsMatchFlatAppend(t *testing.T) {
	for _, k := range []int{1, 3} {
		rng := rand.New(rand.NewSource(int64(k)))
		cols := newSinkCollectors(k)
		var want []interp.Event
		for iter := int64(0); len(want) < 4*traceChunkEvents; iter++ {
			var n int
			switch r := rng.Intn(100); {
			case iter == 5000:
				n = traceChunkEvents + 123
			case r < 10:
				continue // quarantined: the iteration never retires
			case r < 25:
				n = 0 // retired, emitted nothing
			default:
				n = 1 + rng.Intn(7)
			}
			evs := make([]interp.Event, n)
			for i := range evs {
				evs[i] = interp.Event{Kind: interp.EvTrace, Val: iter<<16 | int64(i)}
			}
			want = append(want, evs...)
			cols[rng.Intn(k)].add(iter, evs)
		}
		got := mergeTraces(cols)
		if len(got) != len(want) || cap(got) != len(want) {
			t.Fatalf("k=%d: assembled %d events (cap %d), want exactly %d", k, len(got), cap(got), len(want))
		}
		if diff := interp.TraceEqual(want, got); diff != "" {
			t.Fatalf("k=%d: assembled trace diverges from flat append: %s", k, diff)
		}
		if k == 1 && (cols[0].iters != nil || cols[0].counts != nil) {
			t.Errorf("a lone collector kept a span index (%d spans)", len(cols[0].iters))
		}
	}
}
