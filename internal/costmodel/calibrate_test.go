package costmodel

import (
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/errs"
	"repro/internal/ir"
)

// TestCountOpsTotalMatchesFuncWeight: the class decomposition must sum to
// the exact flat static weight the balancer uses, whatever the mix of
// instructions — otherwise calibrated predictions diverge from the cut.
func TestCountOpsTotalMatchesFuncWeight(t *testing.T) {
	a := Default()
	f := ir.NewFunc("mix")
	bl := ir.NewBuilder(f)
	local := &ir.Array{Name: "l", Size: 8}
	persistent := &ir.Array{Name: "p", Size: 8, Persistent: true}
	x := bl.Const(3)
	bl.Call("pkt_rx")
	bl.Call("rt_lookup", x)
	bl.Call("csum_fold", x)
	bl.Call("q_len", x)
	bl.Load(local, x)
	bl.Load(persistent, x)
	bl.Store(local, x, x)
	bl.Bin(ir.OpAdd, x, x)
	bl.Ret()

	counts := CountOps(f, a)
	if got, want := counts.Total(), float64(a.FuncWeight(f)); got != want {
		t.Fatalf("CountOps total = %v, FuncWeight = %v", got, want)
	}
	if counts[ClassLookup] != float64(Intrinsics["rt_lookup"].Weight) {
		t.Errorf("lookup class = %v, want %d", counts[ClassLookup], Intrinsics["rt_lookup"].Weight)
	}
	if counts[ClassSharedMem] != float64(a.SharedMemWeight) {
		t.Errorf("sharedmem class = %v, want %d", counts[ClassSharedMem], a.SharedMemWeight)
	}
	if counts[ClassPure] != float64(Intrinsics["csum_fold"].Weight) {
		t.Errorf("pure class = %v, want %d", counts[ClassPure], Intrinsics["csum_fold"].Weight)
	}
}

// synthSamples fabricates stage measurements from known per-class ns costs:
// NsPerIter is exactly Σ_c trueNs[c]·Counts[c], optionally with
// multiplicative noise.
func synthSamples(rng *rand.Rand, nStages int, trueNs [NumClasses]float64, noise float64) []Sample {
	samples := make([]Sample, nStages)
	for s := range samples {
		var o OpCounts
		o[ClassALU] = float64(10 + rng.Intn(40))
		o[ClassLocalMem] = float64(rng.Intn(20))
		o[ClassPktIO] = float64(rng.Intn(30))
		if s == 0 {
			o[ClassLookup] = 40
		}
		if s == nStages-1 {
			o[ClassQueue] = 28
		}
		var ns float64
		for c := OpClass(0); c < NumClasses; c++ {
			ns += trueNs[c] * o[c]
		}
		ns *= 1 + noise*(2*rng.Float64()-1)
		samples[s] = Sample{Counts: o, NsPerIter: ns, Iters: 1000}
	}
	return samples
}

// TestCalibrateRoundTrip: the round-trip property from the issue — generate
// a synthetic workload with known per-class costs, fit, and check the
// recovered multipliers land within tolerance of the truth on the classes
// the workload actually exercises.
func TestCalibrateRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var trueNs [NumClasses]float64
	trueNs[ClassALU] = 2
	trueNs[ClassLocalMem] = 5
	trueNs[ClassPktIO] = 9
	trueNs[ClassLookup] = 31
	trueNs[ClassQueue] = 14

	samples := synthSamples(rng, 10, trueNs, 0)
	cal, err := Calibrate(Default(), samples)
	if err != nil {
		t.Fatal(err)
	}
	for _, cf := range cal.Classes {
		if !cf.Observed || trueNs[cf.Class] == 0 {
			continue
		}
		want := trueNs[cf.Class] / trueNs[ClassALU]
		if rel := math.Abs(cf.Multiplier-want) / want; rel > 0.15 {
			t.Errorf("class %v multiplier = %.3f, want %.3f (rel err %.2f)",
				cf.Class, cf.Multiplier, want, rel)
		}
	}
	if cal.R2 < 0.98 {
		t.Errorf("noise-free fit should be near-exact, R² = %.3f", cal.R2)
	}
	if cal.Arch == nil || cal.Arch.IntrinsicWeight == nil {
		t.Fatal("calibrated Arch missing intrinsic overrides")
	}
	// Exercised expensive classes must push their intrinsics' calibrated
	// weights up relative to ALU-class work: rt_lookup's true cost is
	// 31/2 = 15.5× ALU per weight unit, so its calibrated weight must
	// exceed its static 40.
	if w := cal.Arch.IntrinsicWeight["rt_lookup"]; w <= Intrinsics["rt_lookup"].Weight {
		t.Errorf("rt_lookup calibrated weight %d should exceed static %d",
			w, Intrinsics["rt_lookup"].Weight)
	}
}

// TestCalibrateNoisy: with 10% measurement noise the fit should still land
// in the right neighborhood — this is the realistic serve-probe regime.
func TestCalibrateNoisy(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var trueNs [NumClasses]float64
	trueNs[ClassALU] = 3
	trueNs[ClassLocalMem] = 6
	trueNs[ClassPktIO] = 12

	samples := synthSamples(rng, 8, trueNs, 0.10)
	cal, err := Calibrate(Default(), samples)
	if err != nil {
		t.Fatal(err)
	}
	for _, cf := range cal.Classes {
		if !cf.Observed || trueNs[cf.Class] == 0 {
			continue
		}
		want := trueNs[cf.Class] / trueNs[ClassALU]
		if rel := math.Abs(cf.Multiplier-want) / want; rel > 0.5 {
			t.Errorf("class %v multiplier = %.3f, too far from %.3f under 10%% noise",
				cf.Class, cf.Multiplier, want)
		}
	}
}

// TestCalibrateRefitsAfterPinningNegativeClass: with fewer stage equations
// than observed classes, a class can fit negative (stage 3 carries more ALU
// and localmem weight than stage 1 yet runs faster, because stage 1's
// pkt_rx also pays the per-packet copy). Pinning such a class at the prior
// must re-fit the other classes around it, not leave them fitted for its
// negative cost: the fit must still beat the mean. The samples are a
// 3-stage probe of the adaptive test program at D=3.
func TestCalibrateRefitsAfterPinningNegativeClass(t *testing.T) {
	samples := []Sample{
		{Counts: OpCounts{ClassALU: 16, ClassPktIO: 15, ClassPure: 6, ClassTx: 5}, NsPerIter: 1105.776, Iters: 500},
		{Counts: OpCounts{ClassALU: 6, ClassLookup: 40, ClassTx: 10}, NsPerIter: 696.714, Iters: 500},
		{Counts: OpCounts{ClassALU: 18, ClassLocalMem: 6, ClassPktIO: 11, ClassPure: 5, ClassTx: 5}, NsPerIter: 691.342, Iters: 500},
	}
	cal, err := Calibrate(Default(), samples)
	if err != nil {
		t.Fatal(err)
	}
	if cal.R2 <= 0 {
		t.Errorf("R² = %.3f: the fit is worse than the mean\n%s", cal.R2, cal)
	}
	for _, cf := range cal.Classes {
		if cf.FittedNs <= 0 {
			t.Errorf("class %v fitted to %.3f ns, want positive", cf.Class, cf.FittedNs)
		}
	}
}

// TestCalibrateUnobservedClassesPinned: classes the workload never touches
// must stay exactly at the prior (multiplier 1 after normalization against
// a uniform fit), not drift to arbitrary values.
func TestCalibrateUnobservedClassesPinned(t *testing.T) {
	samples := []Sample{
		{Counts: OpCounts{ClassALU: 50}, NsPerIter: 100, Iters: 100},
		{Counts: OpCounts{ClassALU: 80}, NsPerIter: 160, Iters: 100},
	}
	cal, err := Calibrate(Default(), samples)
	if err != nil {
		t.Fatal(err)
	}
	for _, cf := range cal.Classes {
		if cf.Observed {
			continue
		}
		if math.Abs(cf.Multiplier-1) > 0.05 {
			t.Errorf("unobserved class %v drifted to multiplier %.3f", cf.Class, cf.Multiplier)
		}
	}
	// A workload with uniform 2ns/unit costs must leave the relative
	// weight structure intact: the calibrated arch should cut like the
	// base arch.
	if w := cal.Arch.IntrinsicWeight["rt_lookup"]; w != Intrinsics["rt_lookup"].Weight {
		t.Errorf("uniform calibration moved rt_lookup weight to %d, want %d",
			w, Intrinsics["rt_lookup"].Weight)
	}
	if cal.Arch.LocalMemWeight != Default().LocalMemWeight {
		t.Errorf("uniform calibration moved LocalMemWeight to %d", cal.Arch.LocalMemWeight)
	}
}

// TestCalibrateErrors: no usable measurements must fail with the sentinel,
// not a zero-division or a silent identity calibration.
func TestCalibrateErrors(t *testing.T) {
	_, err := Calibrate(Default(), nil)
	if !errors.Is(err, errs.ErrBadCalibration) {
		t.Errorf("empty samples: err = %v, want ErrBadCalibration", err)
	}
	_, err = Calibrate(Default(), []Sample{{Counts: OpCounts{ClassALU: 10}, NsPerIter: 0}})
	if !errors.Is(err, errs.ErrBadCalibration) {
		t.Errorf("zero measurements: err = %v, want ErrBadCalibration", err)
	}
}

// TestCalibrationReport: the fit report must render and mention the
// headline numbers.
func TestCalibrationReport(t *testing.T) {
	samples := []Sample{
		{Counts: OpCounts{ClassALU: 50, ClassPktIO: 20}, NsPerIter: 300, Iters: 10},
		{Counts: OpCounts{ClassALU: 30, ClassLookup: 40}, NsPerIter: 500, Iters: 10},
	}
	cal, err := Calibrate(Default(), samples)
	if err != nil {
		t.Fatal(err)
	}
	s := cal.String()
	for _, want := range []string{"ns/weight-unit", "R²", "stage 1", "stage 2", "alu"} {
		if !strings.Contains(s, want) {
			t.Errorf("report missing %q:\n%s", want, s)
		}
	}
}

// TestInstrWeightOverride: the calibrated Arch's IntrinsicWeight map must
// take effect in InstrWeight (WeightInstrs mode only).
func TestInstrWeightOverride(t *testing.T) {
	a := Default()
	a.IntrinsicWeight = map[string]int{"rt_lookup": 99}
	in := &ir.Instr{Op: ir.OpCall, Dst: 0, Call: "rt_lookup"}
	if got := a.InstrWeight(in); got != 99 {
		t.Errorf("override ignored: weight = %d, want 99", got)
	}
	a.Mode = WeightLatency
	if got := a.InstrWeight(in); got != Intrinsics["rt_lookup"].Latency {
		t.Errorf("latency mode should ignore overrides: weight = %d", got)
	}
}
