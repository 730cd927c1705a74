// Package interp executes IR programs deterministically. It is the
// behavioural oracle of the repository: the pipelining transformation is
// correct iff running the partitioned stages (connected by live-set
// transmissions) produces exactly the observable trace of the original
// sequential PPS on the same input.
package interp

import (
	"bytes"
	"fmt"
)

// EventKind classifies observable events.
type EventKind uint8

const (
	EvTrace EventKind = iota // trace(v)
	EvSend                   // pkt_send(port)
	EvDrop                   // pkt_drop()
)

// String returns the event kind's name as it appears in traces.
func (k EventKind) String() string {
	switch k {
	case EvTrace:
		return "trace"
	case EvSend:
		return "send"
	case EvDrop:
		return "drop"
	}
	return "?"
}

// Event is one observable action of a PPS.
type Event struct {
	Kind EventKind
	Val  int64  // trace value or send port
	Pkt  []byte // packet contents at send time (EvSend only)
}

// Equal reports whether two events are identical.
func (e Event) Equal(o Event) bool {
	return e.Kind == o.Kind && e.Val == o.Val && bytes.Equal(e.Pkt, o.Pkt)
}

// String renders the event in the kind(value) form trace diffs print.
func (e Event) String() string {
	if e.Kind == EvSend {
		return fmt.Sprintf("send(port=%d, %d bytes)", e.Val, len(e.Pkt))
	}
	return fmt.Sprintf("%s(%d)", e.Kind, e.Val)
}

// World supplies the environment a PPS runs in: the input packet stream,
// read-only route tables, persistent queues, and the observable event trace.
type World struct {
	// Packets is the input stream consumed by pkt_rx, one per call.
	Packets [][]byte
	next    int

	// RT4 and RT6 answer route lookups. Nil lookups return -1 (no route).
	RT4 func(addr int64) int64
	RT6 func(hi, lo int64) int64

	// Queues backs the q_put/q_get/q_len intrinsics.
	Queues map[int64][]int64

	// Trace accumulates observable events.
	Trace []Event
}

// NewWorld returns a world with the given input packets and empty state.
func NewWorld(packets [][]byte) *World {
	return &World{Packets: packets, Queues: make(map[int64][]int64)}
}

// Clone returns a deep copy of the world's mutable state with the input
// stream rewound, so the same inputs can be replayed.
func (w *World) Clone() *World {
	c := &World{
		Packets: make([][]byte, len(w.Packets)),
		RT4:     w.RT4,
		RT6:     w.RT6,
		Queues:  make(map[int64][]int64, len(w.Queues)),
	}
	for i, p := range w.Packets {
		c.Packets[i] = append([]byte(nil), p...)
	}
	for q, vs := range w.Queues {
		c.Queues[q] = append([]int64(nil), vs...)
	}
	return c
}

// TraceEqual compares two traces and returns a description of the first
// difference, or "" if equal.
func TraceEqual(a, b []Event) string {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if !a[i].Equal(b[i]) {
			return fmt.Sprintf("event %d differs: %v vs %v", i, a[i], b[i])
		}
	}
	if len(a) != len(b) {
		return fmt.Sprintf("trace lengths differ: %d vs %d", len(a), len(b))
	}
	return ""
}

// emit appends an event.
func (w *World) emit(e Event) { w.Trace = append(w.Trace, e) }

// EmitEvent appends an event to the world's trace. It exists for execution
// backends outside this package (internal/exec); in-package code uses the
// unexported emit.
func (w *World) EmitEvent(e Event) { w.emit(e) }

// RxPacket consumes and returns the next input packet, or nil when the
// stream is exhausted. It exists for execution backends outside this
// package (internal/exec).
func (w *World) RxPacket() []byte { return w.rx() }

// rx returns the next input packet, or nil when the stream is exhausted.
func (w *World) rx() []byte {
	if w.next >= len(w.Packets) {
		return nil
	}
	p := w.Packets[w.next]
	w.next++
	return p
}

// IterCtx is the per-iteration context: the packet being processed, the
// packet descriptor (metadata words), and the per-iteration local array
// storage. On real hardware this state lives in DRAM/SRAM, indexed by a
// packet handle that flows down the pipeline; here the context flows with
// the iteration — including, for the concurrent host runtime, the
// iteration's input packet and its observable events, so that stages
// running in different goroutines never contend on the shared World.
type IterCtx struct {
	Pkt    []byte // nil when pkt_rx found no packet
	HasPkt bool
	Meta   [16]int64

	// locals is the per-iteration local-array storage, indexed densely by
	// the compiler-assigned array ID (nil entry: not yet touched this
	// run). Reset zeroes touched entries in place, so the steady state is
	// allocation-free while preserving the zeroed-at-iteration-start
	// semantics of local arrays.
	locals [][]int64

	// Pending, when HasPending is set, is the input packet pre-pulled for
	// this iteration: the first pkt_rx consumes it instead of the World's
	// stream. The streaming runtime attaches one packet per iteration at
	// the head stage so a downstream rx stage never touches shared state.
	Pending    []byte
	HasPending bool

	// DeferEvents redirects this iteration's observable events (trace,
	// send, drop) into Events instead of the World's shared Trace. The
	// streaming runtime sets it and merges Events in iteration order at
	// the pipeline sink, reconstructing the sequential trace exactly.
	DeferEvents bool
	Events      []Event

	// PktShared is set when an emitted send event took Pkt's buffer as its
	// own instead of copying it (the compiled backend's pkt_send does).
	// From then on the buffer belongs to the event, so a later write to
	// the packet in this iteration — in this stage or a downstream one —
	// must first give Pkt a private copy; WritablePkt does that. pkt_rx
	// and Reset clear it.
	PktShared bool
}

// WritablePkt returns the packet for an in-place write, first replacing a
// buffer shared with an emitted event by a private copy.
func (c *IterCtx) WritablePkt() []byte {
	if c.PktShared {
		c.Pkt = append(make([]byte, 0, len(c.Pkt)), c.Pkt...)
		c.PktShared = false
	}
	return c.Pkt
}

// NewIterCtx returns an empty per-iteration context.
func NewIterCtx() *IterCtx {
	return &IterCtx{}
}

// Local returns the iteration's storage for the local array with the given
// ID and size, allocating zeroed storage on first touch. Both execution
// backends resolve local arrays through here, so an iteration context
// handed from stage to stage carries one coherent view of the locals.
func (c *IterCtx) Local(id, size int) []int64 {
	if id >= len(c.locals) {
		grown := make([][]int64, id+1)
		copy(grown, c.locals)
		c.locals = grown
	}
	st := c.locals[id]
	if st == nil {
		st = make([]int64, size)
		c.locals[id] = st
	}
	return st
}

// Reset clears the context for reuse by a fresh iteration, retaining
// allocated capacity (the local-array storage is zeroed in place, the
// event buffer truncated).
func (c *IterCtx) Reset() {
	c.Pkt, c.HasPkt, c.PktShared = nil, false, false
	c.Meta = [16]int64{}
	for _, st := range c.locals {
		if st != nil {
			clear(st)
		}
	}
	c.Pending, c.HasPending = nil, false
	c.Events = c.Events[:0]
}
