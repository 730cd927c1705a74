package fault

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"repro/internal/errs"
)

// TestValidateRejects drives every Plan.Validate rejection and the shapes
// it must accept: a nil plan, and Poison with no stage (it fires at the
// source, so its Stage is ignored).
func TestValidateRejects(t *testing.T) {
	const stages = 3
	bad := []struct {
		name string
		in   Injection
	}{
		{"unknown kind", Injection{Kind: Transient + 1, Stage: 1}},
		{"stage zero", Injection{Kind: Stall, Stage: 0}},
		{"stage past degree", Injection{Kind: Panic, Stage: stages + 1}},
		{"negative at", Injection{Kind: Stall, Stage: 1, At: -1}},
		{"negative every", Injection{Kind: Delay, Stage: 1, Every: -2}},
		{"negative count", Injection{Kind: Transient, Stage: 1, Count: -1}},
		{"negative sleep", Injection{Kind: Stall, Stage: 1, Sleep: -time.Millisecond}},
		{"negative overload gate", Injection{Kind: Stall, Stage: 1, UntilOverload: -1}},
	}
	for _, tc := range bad {
		p := &Plan{Injections: []Injection{{Kind: Stall, Stage: 1}, tc.in}}
		if err := p.Validate(stages); !errors.Is(err, errs.ErrBadFaultPlan) {
			t.Errorf("%s: Validate = %v, want ErrBadFaultPlan", tc.name, err)
		}
	}
	var nilPlan *Plan
	if err := nilPlan.Validate(stages); err != nil {
		t.Errorf("nil plan: %v", err)
	}
	ok := &Plan{Injections: []Injection{
		{Kind: Poison, Every: 4},
		{Kind: Stall, Stage: stages, At: 7, Sleep: time.Microsecond, UntilOverload: 2},
		{Kind: Transient, Stage: 1, Count: 3},
	}}
	if err := ok.Validate(stages); err != nil {
		t.Errorf("valid plan rejected: %v", err)
	}
}

// TestSeededDeterministic checks Seeded is a pure function of its
// arguments and that what it derives stays inside the documented bounds.
func TestSeededDeterministic(t *testing.T) {
	const stages, horizon = 4, 64
	distinct := false
	first := Seeded(1, stages, horizon)
	for seed := int64(1); seed <= 20; seed++ {
		a, b := Seeded(seed, stages, horizon), Seeded(seed, stages, horizon)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d: two derivations differ:\n%+v\n%+v", seed, a, b)
		}
		if seed > 1 && !reflect.DeepEqual(a, first) {
			distinct = true
		}
		if err := a.Validate(stages); err != nil {
			t.Fatalf("seed %d: derived plan invalid: %v", seed, err)
		}
		if n := len(a.Injections); n < 1 || n > 2*stages {
			t.Errorf("seed %d: %d injections, want 1..%d", seed, n, 2*stages)
		}
		for i, in := range a.Injections {
			if in.At >= horizon {
				t.Errorf("seed %d injection %d: At %d past horizon %d", seed, i, in.At, horizon)
			}
			if in.Sleep >= 200*time.Microsecond {
				t.Errorf("seed %d injection %d: hold %v, want < 200µs", seed, i, in.Sleep)
			}
		}
	}
	if !distinct {
		t.Error("seeds 1..20 all derived the same plan")
	}
}

// fires drives stage's BeforeStage over iters and returns the iterations
// at which it reported a fault: an injected panic or a transient error.
func fires(inj *Injector, stage int, iters ...int64) []int64 {
	var got []int64
	for _, it := range iters {
		func() {
			defer func() {
				if r := recover(); r != nil {
					if p, ok := r.(InjectedPanic); !ok || p.Stage != stage || p.Iter != it {
						panic(r)
					}
					got = append(got, it)
				}
			}()
			if err := inj.BeforeStage(context.Background(), stage, it); err != nil {
				if !errors.Is(err, errs.ErrTransientFault) {
					panic(err)
				}
				got = append(got, it)
			}
		}()
	}
	return got
}

// TestInjectorDecisions pins the per-iteration trigger rules: an At
// trigger fires at its iteration only, Count times (once by default); an
// Every trigger fires on every Every-th iteration until its budget runs
// out (never, with Count 0); a Transient fails its iteration Count times
// and then lets the retry through.
func TestInjectorDecisions(t *testing.T) {
	cases := []struct {
		name  string
		in    Injection
		iters []int64
		want  []int64
	}{
		{"at fires once", Injection{Kind: Panic, Stage: 1, At: 3},
			[]int64{0, 1, 2, 3, 3, 4}, []int64{3}},
		{"at with budget", Injection{Kind: Panic, Stage: 1, At: 2, Count: 2},
			[]int64{2, 2, 2}, []int64{2, 2}},
		{"every with budget", Injection{Kind: Panic, Stage: 1, Every: 3, Count: 2},
			[]int64{0, 1, 2, 3, 4, 5, 6, 7, 8}, []int64{2, 5}},
		{"every unbounded", Injection{Kind: Panic, Stage: 1, Every: 2},
			[]int64{0, 1, 2, 3, 4, 5}, []int64{1, 3, 5}},
		{"transient retries", Injection{Kind: Transient, Stage: 1, At: 4, Count: 2},
			[]int64{3, 4, 4, 4, 5}, []int64{4, 4}},
		{"other stage untouched", Injection{Kind: Panic, Stage: 2, At: 1},
			[]int64{0, 1, 2}, nil},
	}
	for _, tc := range cases {
		inj := NewInjector(&Plan{Injections: []Injection{tc.in}}, 2)
		if got := fires(inj, 1, tc.iters...); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: fired at %v, want %v", tc.name, got, tc.want)
		}
	}

	src := NewInjector(&Plan{Injections: []Injection{{Kind: Poison, Every: 3}}}, 1)
	pkt := []byte{1, 2, 3, 4}
	for it := int64(0); it < 6; it++ {
		got, poisoned := src.AtSource(it, pkt)
		if want := it%3 == 2; poisoned != want {
			t.Errorf("poison at iteration %d = %v, want %v", it, poisoned, want)
		}
		if poisoned == reflect.DeepEqual(got, pkt) {
			t.Errorf("iteration %d: poisoned=%v but packet %x (original %x)", it, poisoned, got, pkt)
		}
	}

	delay := NewInjector(&Plan{Injections: []Injection{{Kind: Delay, Stage: 1, At: 2}}}, 1)
	for it := int64(0); it < 4; it++ {
		delay.BeforeSend(context.Background(), 1, it)
	}
	if n := delay.perStage[1][0].fired; n != 1 {
		t.Errorf("delay fired %d times over iterations 0..3, want 1", n)
	}
}

// TestInjectorNilAndEmpty checks the inert paths: no plan, an empty plan,
// and every hook on a nil injector.
func TestInjectorNilAndEmpty(t *testing.T) {
	if NewInjector(nil, 2) != nil || NewInjector(&Plan{}, 2) != nil {
		t.Fatal("a nil or empty plan must yield a nil injector")
	}
	var inj *Injector
	pkt := []byte{9}
	if got, bad := inj.AtSource(0, pkt); bad || &got[0] != &pkt[0] {
		t.Error("nil injector touched the packet")
	}
	if err := inj.BeforeStage(context.Background(), 1, 0); err != nil {
		t.Error(err)
	}
	inj.BeforeSend(context.Background(), 1, 0)
	inj.NoteOverload(3)
	if inj.Lane() != nil {
		t.Error("nil injector's lane must be nil")
	}
}

// TestLaneAgreesWithParent checks a Lane view makes the same decisions as
// its parent over the same iterations, keeps its own firing counters,
// and shares the parent's overload gate.
func TestLaneAgreesWithParent(t *testing.T) {
	plan := &Plan{Injections: []Injection{
		{Kind: Panic, Stage: 1, Every: 4, Count: 2},
		{Kind: Transient, Stage: 2, At: 3, Count: 1},
		{Kind: Poison, Every: 5},
	}}
	iters := []int64{0, 1, 2, 3, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}
	parent := NewInjector(plan, 2)
	parentFires := [][]int64{fires(parent, 1, iters...), fires(parent, 2, iters...)}
	// The parent's budgets are spent; a fresh lane must still fire.
	lane := parent.Lane()
	laneFires := [][]int64{fires(lane, 1, iters...), fires(lane, 2, iters...)}
	if !reflect.DeepEqual(laneFires, parentFires) {
		t.Errorf("lane fired at %v, parent at %v", laneFires, parentFires)
	}
	if again := fires(parent, 1, iters...); again != nil {
		t.Errorf("parent's spent budget fired again at %v", again)
	}
	for it := int64(0); it < 10; it++ {
		_, p := parent.AtSource(it, []byte{0})
		_, l := parent.Lane().AtSource(it, []byte{0})
		if p != l {
			t.Errorf("iteration %d: parent poison %v, lane poison %v", it, p, l)
		}
	}

	// The overload gate is shared: a stall gated on lane-side overload is
	// released by the parent's note, and vice versa.
	gated := NewInjector(&Plan{Injections: []Injection{{Kind: Stall, Stage: 1, At: 0, UntilOverload: 2}}}, 1)
	gatedLane := gated.Lane()
	done := make(chan struct{})
	go func() {
		_ = gatedLane.BeforeStage(context.Background(), 1, 0)
		close(done)
	}()
	gated.NoteOverload(1)
	select {
	case <-done:
		t.Fatal("stall released below its overload gate")
	case <-time.After(5 * time.Millisecond):
	}
	gated.NoteOverload(1)
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("stall not released once the shared overload count reached its gate")
	}

	// Cancellation aborts the wait.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	stuck := NewInjector(&Plan{Injections: []Injection{{Kind: Stall, Stage: 1, At: 0, UntilOverload: 1}}}, 1)
	if err := stuck.BeforeStage(ctx, 1, 0); err != nil {
		t.Errorf("canceled stall returned %v", err)
	}
}
