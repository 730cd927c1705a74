// Command perfbench is the repository's benchmark. One invocation runs one
// named workload for a fixed time and prints, as its last line, one JSON
// object with the run's correctness verdict and its metrics:
//
//	bash perfbench/run.sh --workload ipv4-d4 --seed 7 --seconds 10 --trace 0
//
// With --trace 0 the metrics are the end-to-end ones, measured with
// tracing off; with --trace 1 they are the per-layer ones, from a run that
// times each call into a layer and keeps those spans in memory until it
// writes them out at the end. README.md defines every workload and metric
// and maps each per-layer metric to the end-to-end metric it should move.
//
// Every output is checked against the sequential interpreter outside the
// timed window; a divergence prints correct=false and exits with status 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// workload names one benchmark configuration.
type workload struct {
	name   string
	degree int  // pipelining degree D (0: the explore sweep)
	shards int  // WithShards width; 0 leaves serving unsharded
	open   bool // open-loop arrivals on the on/off schedule
}

var workloads = []workload{
	{name: "ipv4-d1", degree: 1},
	{name: "ipv4-d4", degree: 4},
	{name: "ipv4-p2-open", degree: 1, shards: 2, open: true},
	{name: "explore"},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// options are one invocation's arguments.
type options struct {
	w        workload
	seed     uint64
	duration time.Duration
	trace    bool
	spansOut string // traced runs write their spans here ("" skips)
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runInfo is printed on the line before the result: what ran, where, and
// on how much input.
type runInfo struct {
	Host        hostInfo `json:"host"`
	Workload    string   `json:"workload"`
	Seed        uint64   `json:"seed"`
	Trace       bool     `json:"trace"`
	Packets     int      `json:"packets_per_round"`
	Rounds      int      `json:"rounds"`
	InputDigest string   `json:"input_digest"`
	FailedFrac  float64  `json:"failed_frac"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: ipv4-d1, ipv4-d4, ipv4-p2-open or explore")
	seed := fs.Uint64("seed", 1, "seed of the generated inputs")
	seconds := fs.Float64("seconds", 10, "how long to measure")
	trace := fs.Int("trace", 0, "1: traced run reporting the per-layer metrics")
	spans := fs.String("spans", "", "traced runs write their spans here (default .bench_build/spans/<workload>-<seed>.json)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := findWorkload(*name)
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (ipv4-d1|ipv4-d4|ipv4-p2-open|explore), --seconds > 0, --trace 0|1\n")
		return 2
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	opt := options{w: w, seed: *seed, duration: time.Duration(*seconds * float64(time.Second)), trace: *trace == 1}
	if opt.trace {
		opt.spansOut = *spans
		if opt.spansOut == "" {
			opt.spansOut = filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-%d.json", w.name, opt.seed))
		}
	}

	var res *result
	var info *runInfo
	var err error
	if w.degree == 0 {
		res, info, err = runExplore(opt)
	} else {
		res, info, err = runServe(opt)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 2
	}
	info.Host, info.Workload, info.Seed, info.Trace = readHost(), w.name, opt.seed, opt.trace
	info.FailedFrac = float64(res.Failed) / float64(res.Attempted)
	enc := json.NewEncoder(stdout)
	if err := enc.Encode(map[string]*runInfo{"run": info}); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	if err := enc.Encode(res); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	if !res.Correct {
		fmt.Fprintf(stderr, "perfbench: %s: %d of %d outputs diverged from the sequential oracle\n",
			w.name, res.Failed, res.Attempted)
		return 1
	}
	return 0
}

// set stores the value of a declared metric, mapping a non-finite value
// (an empty sample) to 0 so the output stays valid JSON.
func (r *result) set(name string, v float64) {
	m, ok := r.Metrics[name]
	if !ok {
		panic("perfbench: undeclared metric " + name)
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	m.Value = v
	r.Metrics[name] = m
}

// median of xs (0 for none); xs is reordered.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile is the q-quantile of xs by linear interpolation between
// closest ranks (0 for none); xs is reordered.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[lo] + (pos-float64(lo))*(xs[lo+1]-xs[lo])
}

// durationQuantileUs is quantile over durations, in microseconds.
func durationQuantileUs(ds []time.Duration, q float64) float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d) / float64(time.Microsecond)
	}
	return quantile(xs, q)
}
