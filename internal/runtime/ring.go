package runtime

// Every inter-goroutine batch conduit in the serve engine — inter-stage
// cut rings, the dispatcher's head rings, scatter and fan-in lane rings,
// and the batch free list — is a buffered Go channel of batches
// (chan []*token). Cut, head and lane rings hold exactly the configured
// RingCapacity entries, the saturation point the overload watermarks
// count against. A cut ring has one producer and one consumer;
// producer-side close is the end-of-stream signal, the consumer drains
// then exits, and every blocking operation selects on the run's done
// channel so cancellation unblocks it (DESIGN.md §6). The helpers below
// time only the blocked side of a handoff into the caller's waitCounter:
// a handoff that completes at once costs no clock read.

import "time"

// trySend delivers b on c without blocking; false means c is full.
func trySend(c chan<- []*token, b []*token) bool {
	select {
	case c <- b:
		return true
	default:
		return false
	}
}

// sendWait blocks until b is delivered on c (true) or done fires
// (false), timing the wait into w.
func sendWait(c chan<- []*token, b []*token, done <-chan struct{}, w *waitCounter) (sent bool) {
	start := time.Now()
	select {
	case c <- b:
		sent = true
	case <-done:
	}
	w.add(start)
	return sent
}

// sendTick is sendWait bounded by one overloadTick: (false, false) means
// the tick elapsed with c still full — re-probe or engage the overload
// policy — and (false, true) that done fired.
func sendTick(c chan<- []*token, b []*token, done <-chan struct{}, w *waitCounter) (sent, canceled bool) {
	start := time.Now()
	tick := time.NewTimer(overloadTick)
	select {
	case c <- b:
		sent = true
	case <-done:
		canceled = true
	case <-tick.C:
	}
	tick.Stop()
	w.add(start)
	return sent, canceled
}

// recv takes the next batch from c; ok is false once c is closed and
// drained or done fires first. A waiting batch is taken without a clock
// read; a blocked receive is timed into w.
func recv(c <-chan []*token, done <-chan struct{}, w *waitCounter) (b []*token, ok bool) {
	select {
	case b, ok = <-c:
		return b, ok
	default:
	}
	start := time.Now()
	select {
	case b, ok = <-c:
	case <-done:
	}
	w.add(start)
	return b, ok
}
