// Package fault is the deterministic fault-injection layer of the
// streaming runtime. A Plan is a declarative schedule of faults — stall a
// stage when a given iteration arrives, delay ring puts, poison packets at
// the source, panic inside a stage body, or fail transiently — keyed
// entirely on (stage, iteration-index), so the same plan produces the same
// fault sequence at every batch size, ring depth, and scheduling
// interleaving. The runtime consults an Injector (the per-run state of a
// Plan) at fixed hook points; with a nil Injector every hook is a no-op and
// the serve hot path is untouched.
//
// Determinism discipline: each injection belongs to exactly one stage, and
// every hook for a stage is called only from that stage's goroutine, so
// firing counters need no locks. The cross-goroutine signals are two
// gates — a stall that holds a stage until the pipeline has shed or
// degraded a target number of packets, and one that holds it until the
// sink has delivered a target number — each reading an atomic counter
// that any stage may bump. The overload gate is what lets the chaos tests
// saturate a ring and assert exact shed counts: the consumer provably
// consumes nothing until the producer has finished shedding. The delivery
// gate admits a packet only once the pipeline has drained, so it meets
// empty rings and no timing can saturate one.
package fault

import (
	"context"
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"

	"repro/internal/errs"
)

// Kind classifies an injected fault.
type Kind uint8

const (
	// Stall holds the stage before executing the matched iteration: for
	// Sleep, for UntilOverload (a gate on the pipeline's shed+degraded
	// count), for UntilDelivered (a gate on the sink's delivered count),
	// or any combination.
	Stall Kind = iota
	// Delay holds the stage's ring put (after executing, before
	// forwarding) for Sleep.
	Delay
	// Poison corrupts the matched source packet; the head stage quarantines
	// it before it enters the pipeline (errs.ErrPoisonPacket).
	Poison
	// Panic panics inside the stage body when the matched iteration
	// arrives; the runtime recovers and quarantines (errs.ErrStagePanic).
	Panic
	// Transient fails the matched iteration with errs.ErrTransientFault
	// Count times; the runtime retries with backoff and quarantines the
	// packet if the fault outlives the retry budget.
	Transient
)

// String returns the fault kind's name as used in plans and reports.
func (k Kind) String() string {
	switch k {
	case Stall:
		return "stall"
	case Delay:
		return "delay"
	case Poison:
		return "poison"
	case Panic:
		return "panic"
	case Transient:
		return "transient"
	}
	return "?"
}

// Injection is one scheduled fault. The trigger is iteration-indexed:
// Every > 0 fires on every Every-th iteration (iterations Every-1,
// 2·Every-1, ...); otherwise the injection fires exactly at iteration At.
// Count bounds the total firings (0 means once for At-triggers, unlimited
// for Every-triggers — except Transient, where Count is the number of
// consecutive failures of the one matched iteration).
type Injection struct {
	Kind  Kind
	Stage int           // 1-based stage index; Poison ignores it (source-side)
	At    int64         // iteration to fire at (used when Every == 0)
	Every int64         // fire on every Every-th iteration
	Count int64         // firing budget; see above
	Sleep time.Duration // Stall/Delay hold time
	// UntilOverload, for Stall, holds the stage until the pipeline's
	// overload count (packets shed + degraded) reaches this value. The
	// wait aborts on context cancellation.
	UntilOverload int64
	// UntilDelivered, for Stall, holds the stage until the pipeline has
	// delivered (retired at the sink) this many packets. The wait aborts
	// on context cancellation.
	UntilDelivered int64
}

// Plan is a deterministic fault schedule.
type Plan struct {
	Injections []Injection
}

// Validate checks the plan against a pipeline of the given degree.
func (p *Plan) Validate(stages int) error {
	if p == nil {
		return nil
	}
	for i, in := range p.Injections {
		if in.Kind > Transient {
			return fmt.Errorf("%w: injection %d: unknown kind %d", errs.ErrBadFaultPlan, i, in.Kind)
		}
		if in.Kind != Poison && (in.Stage < 1 || in.Stage > stages) {
			return fmt.Errorf("%w: injection %d: stage %d outside 1..%d", errs.ErrBadFaultPlan, i, in.Stage, stages)
		}
		if in.At < 0 || in.Every < 0 || in.Count < 0 || in.Sleep < 0 || in.UntilOverload < 0 || in.UntilDelivered < 0 {
			return fmt.Errorf("%w: injection %d: negative trigger", errs.ErrBadFaultPlan, i)
		}
	}
	return nil
}

// Seeded derives a small random plan for a pipeline of the given degree —
// the randomized half of the chaos harness. The plan is a pure function of
// the seed: a few stalls and delays with microsecond holds, an optional
// poison cadence, at most one panic and one transient per stage, all
// within the first horizon iterations.
func Seeded(seed int64, stages int, horizon int64) *Plan {
	rng := rand.New(rand.NewSource(seed))
	p := &Plan{}
	n := 1 + rng.Intn(2*stages)
	for i := 0; i < n; i++ {
		in := Injection{
			Kind:  Kind(rng.Intn(int(Transient) + 1)),
			Stage: 1 + rng.Intn(stages),
			At:    rng.Int63n(horizon),
		}
		switch in.Kind {
		case Stall, Delay:
			in.Sleep = time.Duration(rng.Intn(200)) * time.Microsecond
			if rng.Intn(2) == 0 {
				in.Every = 1 + rng.Int63n(horizon/2+1)
				in.Count = 1 + rng.Int63n(4)
			}
		case Poison:
			in.Every = 2 + rng.Int63n(horizon/2+1)
		case Transient:
			in.Count = 1 + rng.Int63n(3)
		}
		p.Injections = append(p.Injections, in)
	}
	return p
}

// InjectedPanic is the value an injected Panic fault panics with; the
// runtime's recovery path recognizes any panic, this type merely makes the
// quarantine reason readable and deterministic.
type InjectedPanic struct {
	Stage int
	Iter  int64
}

// String identifies the injection site; it is the recovered panic's text.
func (p InjectedPanic) String() string {
	return fmt.Sprintf("injected panic (stage %d, iteration %d)", p.Stage, p.Iter)
}

// state is the per-injection runtime counter. fired counts firings of the
// trigger; owned by the injection's stage goroutine.
type state struct {
	inj   Injection
	fired int64
}

// matches reports whether the injection triggers for iter, respecting the
// firing budget, and records the firing.
func (s *state) matches(iter int64) bool {
	in := &s.inj
	if in.Every > 0 {
		if (iter+1)%in.Every != 0 {
			return false
		}
		if in.Count > 0 && s.fired >= in.Count {
			return false
		}
	} else {
		if iter != in.At {
			return false
		}
		max := in.Count
		if max == 0 {
			max = 1
		}
		if s.fired >= max {
			return false
		}
	}
	s.fired++
	return true
}

// matchTransient is the Transient trigger: it matches the At iteration
// while fewer than Count failures have been delivered (retries of the same
// iteration re-enter here and consume the budget).
func (s *state) matchTransient(iter int64) bool {
	if iter != s.inj.At {
		return false
	}
	n := s.inj.Count
	if n == 0 {
		n = 1
	}
	if s.fired >= n {
		return false
	}
	s.fired++
	return true
}

// Injector is the per-run state of a Plan: the runtime calls its hooks at
// fixed points; a nil *Injector is inert at every hook.
type Injector struct {
	source   []*state   // Poison injections
	perStage [][]*state // 1-based stage -> its injections

	overload  *atomic.Int64 // packets shed + degraded, pipeline-wide
	delivered *atomic.Int64 // packets retired at the sink, pipeline-wide
}

// NewInjector binds a validated plan to a pipeline of the given degree.
// A nil plan yields a nil injector (all hooks inert).
func NewInjector(p *Plan, stages int) *Injector {
	if p == nil || len(p.Injections) == 0 {
		return nil
	}
	inj := &Injector{perStage: make([][]*state, stages+1),
		overload: new(atomic.Int64), delivered: new(atomic.Int64)}
	for _, in := range p.Injections {
		s := &state{inj: in}
		if in.Kind == Poison {
			inj.source = append(inj.source, s)
			continue
		}
		inj.perStage[in.Stage] = append(inj.perStage[in.Stage], s)
	}
	return inj
}

// Lane returns an injector view with independent firing counters but the
// same overload and delivery gates. The sharded runtime hands one lane to each replica
// of a replicated stage, preserving the single-goroutine ownership of the
// firing counters: a budgeted trigger then counts firings per lane, and —
// because packets are dispatched to lanes by a deterministic flow hash —
// the fault schedule stays deterministic at any shard count. A nil
// receiver returns nil.
func (inj *Injector) Lane() *Injector {
	if inj == nil {
		return nil
	}
	l := &Injector{perStage: make([][]*state, len(inj.perStage)),
		overload: inj.overload, delivered: inj.delivered}
	for k, states := range inj.perStage {
		for _, s := range states {
			l.perStage[k] = append(l.perStage[k], &state{inj: s.inj})
		}
	}
	for _, s := range inj.source {
		l.source = append(l.source, &state{inj: s.inj})
	}
	return l
}

// AtSource is the head stage's per-packet hook: it returns the (possibly
// corrupted) packet and whether it was poisoned. Poisoned packets keep a
// recognizable malformed shape — truncated and bit-flipped — so quarantine
// records carry realistic garbage.
func (inj *Injector) AtSource(iter int64, pkt []byte) ([]byte, bool) {
	if inj == nil {
		return pkt, false
	}
	for _, s := range inj.source {
		if s.matches(iter) {
			bad := make([]byte, len(pkt)/2+1)
			copy(bad, pkt)
			for i := range bad {
				bad[i] ^= 0xA5
			}
			return bad, true
		}
	}
	return pkt, false
}

// BeforeStage runs the stage-side faults for one iteration, in plan order:
// stalls sleep (and wait out overload and delivery gates), panics panic, transients
// return errs.ErrTransientFault. Called before the stage body, so a
// quarantined iteration has not touched persistent state.
func (inj *Injector) BeforeStage(ctx context.Context, stage int, iter int64) error {
	if inj == nil {
		return nil
	}
	for _, s := range inj.perStage[stage] {
		switch s.inj.Kind {
		case Stall:
			if s.matches(iter) {
				if s.inj.Sleep > 0 {
					sleepCtx(ctx, s.inj.Sleep)
				}
				if n := s.inj.UntilOverload; n > 0 {
					waitCount(ctx, inj.overload, n)
				}
				if n := s.inj.UntilDelivered; n > 0 {
					waitCount(ctx, inj.delivered, n)
				}
			}
		case Panic:
			if s.matches(iter) {
				panic(InjectedPanic{Stage: stage, Iter: iter})
			}
		case Transient:
			if s.matchTransient(iter) {
				return fmt.Errorf("%w: stage %d, iteration %d", errs.ErrTransientFault, stage, iter)
			}
		}
	}
	return nil
}

// BeforeSend delays the stage's ring put when a Delay injection matches
// the batch's first iteration.
func (inj *Injector) BeforeSend(ctx context.Context, stage int, iter int64) {
	if inj == nil {
		return
	}
	for _, s := range inj.perStage[stage] {
		if s.inj.Kind == Delay && s.matches(iter) {
			sleepCtx(ctx, s.inj.Sleep)
		}
	}
}

// NoteOverload records packets shed or degraded by the overload policy and
// releases any gate waiting on the new total.
func (inj *Injector) NoteOverload(n int64) {
	if inj == nil {
		return
	}
	inj.overload.Add(n)
}

// NoteDelivered records packets retired at the sink and releases any gate
// waiting on the new total.
func (inj *Injector) NoteDelivered(n int64) {
	if inj == nil {
		return
	}
	inj.delivered.Add(n)
}

// waitCount blocks until the pipeline-wide counter c reaches n or ctx is
// canceled. Polling keeps the gates free of cross-goroutine wakeup state;
// gates are a test-harness construct, not a hot path.
func waitCount(ctx context.Context, c *atomic.Int64, n int64) {
	for c.Load() < n {
		select {
		case <-ctx.Done():
			return
		case <-time.After(200 * time.Microsecond):
		}
	}
}

func sleepCtx(ctx context.Context, d time.Duration) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
	case <-t.C:
	}
}
