package costmodel

// Calibration: fitting the static cost tables to measured reality.
//
// The paper's partitioner balances *static* instruction counts because the
// IXP's performance is statically determinable. On a host runtime the
// static table is only a prior: a pkt_byte that the table prices at 3
// instructions may cost 40ns behind a cache miss, or 2ns out of L1. The
// serve runtime measures each stage's real execution time per iteration
// (StageStats.Busy / In — the PR-4 probes); Calibrate closes the loop by
// fitting per-class nanosecond costs to those measurements and re-emitting
// an Arch whose weights reflect them, so the next cut balances measured
// host time instead of data-sheet instruction counts.
//
// The fit is deliberately low-dimensional. A pipeline yields one equation
// per stage (D ≤ 8 in practice) — far too few to fit 18 per-intrinsic
// costs — so instructions are grouped into OpClass buckets whose host
// costs plausibly scale together (ALU, local memory, shared memory, packet
// IO, table lookup, queue ops, pure helpers, live-set transmission), and a
// ridge regression with the static table as the prior fits one
// nanosecond-per-weight-unit coefficient per class:
//
//	minimize  Σ_s (ns_s − Σ_c θ_c·X_sc)²  +  Σ_c λ_c·(θ_c − θ₀)²
//
// where X_sc is stage s's static weight in class c, θ₀ is the global
// ns-per-weight-unit prior (total measured ns over total static weight),
// and λ_c scales with the class's column norm so classes the pipeline
// never exercises stay pinned to the prior instead of drifting freely.
// The closed-form normal equations are a NumClasses×NumClasses symmetric
// system, solved directly.
//
// The calibrated Arch preserves the paper's structure: weights stay
// relative (everything is normalized by the fitted ALU cost, so an
// uncalibrated program still cuts identically), and only the
// WeightInstrs-mode tables move — per-intrinsic weights via the
// IntrinsicWeight override map, memory weights via LocalMemWeight and
// SharedMemWeight.

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/errs"
	"repro/internal/ir"
)

// OpClass groups instructions whose host-time cost is assumed to scale
// together during calibration; the fit estimates one nanosecond
// coefficient per class.
type OpClass int

// The calibration classes.
const (
	// ClassALU: plain register arithmetic, branches, phis — the weight
	// unit everything else is normalized against.
	ClassALU OpClass = iota
	// ClassLocalMem: loads/stores to per-iteration local arrays.
	ClassLocalMem
	// ClassSharedMem: loads/stores to persistent (SRAM-resident) arrays.
	ClassSharedMem
	// ClassPktIO: packet buffer and metadata intrinsics (pkt_*, meta_*).
	ClassPktIO
	// ClassLookup: route-table lookups (rt_lookup, rt6_lookup).
	ClassLookup
	// ClassQueue: persistent packet-queue intrinsics (q_put, q_get, q_len).
	ClassQueue
	// ClassPure: pure helpers and trace output (csum_fold, hash_crc, trace).
	ClassPure
	// ClassTx: live-set transmission pseudo-ops (OpSendLS/OpRecvLS packing).
	ClassTx
	// NumClasses is the number of calibration classes.
	NumClasses
)

// String returns the class's short name, as printed in fit reports.
func (c OpClass) String() string {
	switch c {
	case ClassALU:
		return "alu"
	case ClassLocalMem:
		return "localmem"
	case ClassSharedMem:
		return "sharedmem"
	case ClassPktIO:
		return "pktio"
	case ClassLookup:
		return "lookup"
	case ClassQueue:
		return "queue"
	case ClassPure:
		return "pure"
	case ClassTx:
		return "tx"
	}
	return fmt.Sprintf("class(%d)", int(c))
}

// classOfCall maps an intrinsic name to its calibration class.
func classOfCall(name string) OpClass {
	switch {
	case strings.HasPrefix(name, "pkt_"), strings.HasPrefix(name, "meta_"):
		return ClassPktIO
	case strings.HasPrefix(name, "rt"):
		return ClassLookup
	case strings.HasPrefix(name, "q_"):
		return ClassQueue
	case name == "csum_fold", name == "hash_crc", name == "trace":
		return ClassPure
	}
	return ClassALU
}

// classOf returns the calibration class of one instruction.
func classOf(in *ir.Instr) OpClass {
	switch in.Op {
	case ir.OpLoad, ir.OpStore:
		if in.Arr != nil && in.Arr.Persistent {
			return ClassSharedMem
		}
		return ClassLocalMem
	case ir.OpCall:
		return classOfCall(in.Call)
	case ir.OpSendLS, ir.OpRecvLS:
		return ClassTx
	}
	return ClassALU
}

// OpCounts is a stage's static weight decomposed by calibration class:
// entry c sums the base-arch weights of the stage's class-c instructions
// (the same flat static count Arch.FuncWeight totals, so an OpCounts
// vector always sums to the stage's balance weight).
type OpCounts [NumClasses]float64

// Total is the stage's whole static weight — the sum over classes.
func (o OpCounts) Total() float64 {
	var t float64
	for _, w := range o {
		t += w
	}
	return t
}

// CountOps decomposes f's static weight by calibration class under the
// base cost model. A nil base selects Default().
func CountOps(f *ir.Func, base *Arch) OpCounts {
	if base == nil {
		base = Default()
	}
	var o OpCounts
	if f == nil {
		return o
	}
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			o[classOf(in)] += float64(base.InstrWeight(in))
		}
	}
	return o
}

// Sample pairs one pipeline stage's static class weights with its measured
// mean host execution time per iteration (StageStats.Busy over
// StageStats.In on the serve path).
type Sample struct {
	// Counts is the stage's per-class static weight (CountOps of the stage
	// program).
	Counts OpCounts
	// NsPerIter is the measured mean execution nanoseconds per iteration.
	NsPerIter float64
	// Iters is the number of iterations the measurement averaged over; it
	// weights the stage's equation in the fit (0 means 1).
	Iters int64
}

// ClassFit reports one class's fitted cost next to its prior.
type ClassFit struct {
	// Class identifies the calibration class.
	Class OpClass
	// PriorNs is the ns-per-weight-unit prior every class starts from.
	PriorNs float64
	// FittedNs is the class's fitted ns per static weight unit.
	FittedNs float64
	// Multiplier is FittedNs normalized by the fitted ALU cost — the factor
	// the class's static weights are scaled by in the calibrated Arch.
	Multiplier float64
	// Observed reports whether any sample actually exercised the class; an
	// unobserved class is pinned to the ALU unit (Multiplier 1), so its
	// static relative weights pass through the calibration unchanged.
	Observed bool
}

// StageFit reports one stage's measured time next to the calibrated
// model's prediction.
type StageFit struct {
	// Stage is the 1-based stage index (sample order).
	Stage int
	// MeasuredNs and PredictedNs are the per-iteration execution times.
	MeasuredNs, PredictedNs float64
}

// Calibration is the outcome of fitting the cost model to measurements: a
// calibrated Arch ready for re-analysis, the fitted per-class costs, and a
// goodness-of-fit report.
type Calibration struct {
	// Arch is the calibrated cost model: same structure as the base, with
	// WeightInstrs-mode weights rescaled by the fitted class costs. Feed it
	// back through core.Analyze (or Analysis.Reweigh) to re-cut under
	// measured weights.
	Arch *Arch
	// NsPerWeight is the fitted nanoseconds per calibrated weight unit (the
	// ALU cost) — multiply a stage's calibrated weight by this to predict
	// its host execution time.
	NsPerWeight float64
	// R2 is the coefficient of determination of the fit over the samples
	// (1 = the calibrated model explains the measurements exactly). With a
	// single sample (or identical measurements) R2 degenerates to 1 when
	// the residual is zero and 0 otherwise.
	R2 float64
	// Classes reports each class's fitted cost (prior, fitted, multiplier).
	Classes []ClassFit
	// Stages reports measured vs predicted time per sample.
	Stages []StageFit
}

// String renders the goodness-of-fit report as a compact table.
func (c *Calibration) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "calibration: %.2f ns/weight-unit, R² %.3f\n", c.NsPerWeight, c.R2)
	for _, cf := range c.Classes {
		if !cf.Observed {
			continue
		}
		fmt.Fprintf(&b, "  %-9s %8.2f ns/unit  x%.2f\n", cf.Class, cf.FittedNs, cf.Multiplier)
	}
	for _, sf := range c.Stages {
		fmt.Fprintf(&b, "  stage %d: measured %8.0f ns/iter  predicted %8.0f\n",
			sf.Stage, sf.MeasuredNs, sf.PredictedNs)
	}
	return b.String()
}

// ridge is the relative regularization strength pulling fitted class costs
// toward the prior; floorRidge keeps unobserved classes pinned exactly.
const (
	ridge      = 0.002
	floorRidge = 1e-9
)

// Calibrate fits per-class nanosecond costs to the measured samples and
// returns a calibrated Arch plus the fit report. base supplies the prior
// weights (nil selects Default()); at least one sample with a positive
// measured time and a positive static weight is required, otherwise
// errs.ErrBadCalibration is returned. Calibration is only defined for the
// WeightInstrs balance mode (the latency mode's tables are left untouched).
func Calibrate(base *Arch, samples []Sample) (*Calibration, error) {
	if base == nil {
		base = Default()
	}
	var totalNs, totalW float64
	n := 0
	for _, s := range samples {
		if s.NsPerIter <= 0 || s.Counts.Total() <= 0 {
			continue
		}
		totalNs += s.NsPerIter
		totalW += s.Counts.Total()
		n++
	}
	if n == 0 || totalNs <= 0 || totalW <= 0 {
		return nil, fmt.Errorf("costmodel: %w: need at least one sample with measured time and static weight",
			errs.ErrBadCalibration)
	}
	prior := totalNs / totalW // global ns per static weight unit

	// Normal equations of the ridge problem: (XᵀWX + Λ)θ = XᵀWy + Λ·θ₀,
	// with W the per-sample iteration weights and Λ diagonal.
	var xtx [NumClasses][NumClasses]float64
	var xty [NumClasses]float64
	for _, s := range samples {
		if s.NsPerIter <= 0 || s.Counts.Total() <= 0 {
			continue
		}
		w := float64(s.Iters)
		if w < 1 {
			w = 1
		}
		// Normalize the sample weight so huge iteration counts do not
		// swamp the regularizer's scale.
		w = math.Sqrt(w)
		for i := 0; i < int(NumClasses); i++ {
			if s.Counts[i] == 0 {
				continue
			}
			xty[i] += w * s.Counts[i] * s.NsPerIter
			for j := i; j < int(NumClasses); j++ {
				xtx[i][j] += w * s.Counts[i] * s.Counts[j]
			}
		}
	}
	observed := [NumClasses]bool{}
	for i := 0; i < int(NumClasses); i++ {
		observed[i] = xtx[i][i] > 0
		lam := ridge*xtx[i][i] + floorRidge
		xtx[i][i] += lam
		xty[i] += lam * prior
		for j := 0; j < i; j++ {
			xtx[i][j] = xtx[j][i] // mirror for the solver
		}
	}
	// A negative fitted cost is an artifact of collinear columns: pin that
	// class at the prior and re-solve for the others, so they absorb what
	// it no longer explains. Each pass pins at least one more class or
	// ends, so this takes at most NumClasses re-solves.
	var theta [NumClasses]float64
	var pinned [NumClasses]bool
	for {
		a, b := xtx, xty
		for i, pin := range pinned {
			if !pin {
				continue
			}
			for j := range b {
				b[j] -= a[j][i] * prior
				a[j][i], a[i][j] = 0, 0
			}
			a[i][i], b[i] = 1, prior
		}
		var ok bool
		if theta, ok = solveSym(a, b); !ok {
			return nil, fmt.Errorf("costmodel: %w: singular calibration system", errs.ErrBadCalibration)
		}
		more := false
		for i := range theta {
			if theta[i] <= 0 && !pinned[i] {
				pinned[i], more = true, true
			}
		}
		if !more {
			break
		}
	}

	unit := theta[ClassALU]
	if !observed[ClassALU] || unit <= 0 {
		unit = prior
	}
	// Classes the workload never exercised carry no information: pin them
	// to the ALU unit so their static relative weights pass through the
	// calibration unchanged (multiplier exactly 1).
	for c := range theta {
		if !observed[c] {
			theta[c] = unit
		}
	}

	cal := &Calibration{NsPerWeight: unit}
	for c := OpClass(0); c < NumClasses; c++ {
		cal.Classes = append(cal.Classes, ClassFit{
			Class:      c,
			PriorNs:    prior,
			FittedNs:   theta[c],
			Multiplier: theta[c] / unit,
			Observed:   observed[c],
		})
	}

	// Goodness of fit: predicted vs measured per sample, R² over all
	// usable samples.
	var ssRes, ssTot, mean float64
	for _, s := range samples {
		if s.NsPerIter <= 0 || s.Counts.Total() <= 0 {
			continue
		}
		mean += s.NsPerIter
	}
	mean /= float64(n)
	stage := 0
	for _, s := range samples {
		stage++
		if s.NsPerIter <= 0 || s.Counts.Total() <= 0 {
			continue
		}
		var pred float64
		for c := OpClass(0); c < NumClasses; c++ {
			pred += theta[c] * s.Counts[c]
		}
		cal.Stages = append(cal.Stages, StageFit{Stage: stage, MeasuredNs: s.NsPerIter, PredictedNs: pred})
		ssRes += (s.NsPerIter - pred) * (s.NsPerIter - pred)
		ssTot += (s.NsPerIter - mean) * (s.NsPerIter - mean)
	}
	switch {
	case ssTot > 0:
		cal.R2 = 1 - ssRes/ssTot
	case ssRes == 0:
		cal.R2 = 1
	}

	cal.Arch = base.calibrated(theta, unit)
	return cal, nil
}

// calibrated clones the arch with WeightInstrs-mode tables rescaled by the
// fitted class costs, normalized so ClassALU keeps weight 1 (weights are
// only meaningful relatively; normalizing preserves the cut semantics of
// programs the calibration never saw).
func (a *Arch) calibrated(theta [NumClasses]float64, unit float64) *Arch {
	out := *a
	scale := func(w int, c OpClass) int {
		s := int(math.Round(float64(w) * theta[c] / unit))
		if s < 1 {
			s = 1
		}
		return s
	}
	out.LocalMemWeight = scale(a.LocalMemWeight, ClassLocalMem)
	out.SharedMemWeight = scale(a.SharedMemWeight, ClassSharedMem)
	out.NN = ChannelCost{
		Overhead: scale(a.NN.Overhead, ClassTx),
		PerWord:  scale(a.NN.PerWord, ClassTx),
	}
	out.Scratch = ChannelCost{
		Overhead: scale(a.Scratch.Overhead, ClassTx),
		PerWord:  scale(a.Scratch.PerWord, ClassTx),
	}
	out.IntrinsicWeight = make(map[string]int, len(Intrinsics))
	for name, intr := range Intrinsics {
		out.IntrinsicWeight[name] = scale(intr.Weight, classOfCall(name))
	}
	return &out
}

// solveSym solves the symmetric positive-definite system A·x = b by
// Gaussian elimination with partial pivoting (the system is tiny:
// NumClasses × NumClasses).
func solveSym(a [NumClasses][NumClasses]float64, b [NumClasses]float64) ([NumClasses]float64, bool) {
	const n = int(NumClasses)
	var x [NumClasses]float64
	for col := 0; col < n; col++ {
		piv := col
		for r := col + 1; r < n; r++ {
			if math.Abs(a[r][col]) > math.Abs(a[piv][col]) {
				piv = r
			}
		}
		if math.Abs(a[piv][col]) < 1e-30 {
			return x, false
		}
		a[col], a[piv] = a[piv], a[col]
		b[col], b[piv] = b[piv], b[col]
		for r := col + 1; r < n; r++ {
			f := a[r][col] / a[col][col]
			if f == 0 {
				continue
			}
			for c := col; c < n; c++ {
				a[r][c] -= f * a[col][c]
			}
			b[r] -= f * b[col]
		}
	}
	for r := n - 1; r >= 0; r-- {
		sum := b[r]
		for c := r + 1; c < n; c++ {
			sum -= a[r][c] * x[c]
		}
		x[r] = sum / a[r][r]
	}
	return x, true
}
