package repro_test

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro"
	"repro/internal/netbench"
)

var updatePlans = flag.Bool("update", false, "rewrite the golden Plan fixtures")

// renderPlan serializes the fusion-relevant face of a Plan: the realized
// shape, the per-stage weights the valuator saw, which cuts it fused, and
// the stated per-cut rationale. Everything here is a pure function of the
// program, the options, and the pinned core budget — no measured times —
// so the rendering must be byte-stable across runs and machines.
func renderPlan(p *repro.Plan) string {
	var b strings.Builder
	fmt.Fprintf(&b, "degree %d batch %d shards %d\n", p.Degree, p.Batch, p.Shards)
	fmt.Fprintf(&b, "stage weights %v\n", p.StageWeights)
	fmt.Fprintf(&b, "fused cuts %v\n", p.FusedCuts)
	for _, why := range p.FusionWhy {
		fmt.Fprintf(&b, "  %s\n", why)
	}
	return b.String()
}

// TestPlanFusionGolden locks down which cuts the fusion valuator fuses —
// and the exact arithmetic it states for each — for a fixed program under
// pinned core budgets. One core must fuse everything (rings are pure tax
// with no parallelism to buy); a generous core budget must justify every
// verdict it makes in the rationale.
// Regenerate with: go test . -run TestPlanFusionGolden -update
func TestPlanFusionGolden(t *testing.T) {
	prog, err := repro.Compile(facadeSrc)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name  string
		cores int
		opts  []repro.Option
	}{
		{"d3_1core", 1, []repro.Option{repro.WithStages(3)}},
		{"d3_8core", 8, []repro.Option{repro.WithStages(3)}},
		{"d4_1core", 1, []repro.Option{repro.WithStages(4)}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			restore := repro.SetFusionCoresForTest(tc.cores)
			defer restore()
			pipe, err := repro.Partition(prog, tc.opts...)
			if err != nil {
				t.Fatal(err)
			}
			plan := pipe.Plan()
			if strings.Contains(tc.name, "1core") && len(plan.FusedCuts) != plan.Degree-1 {
				t.Errorf("on one core every cut must fuse; got %v of %d cuts", plan.FusedCuts, plan.Degree-1)
			}
			checkGolden(t, "plan_"+tc.name+".golden", renderPlan(plan))
		})
	}
	t.Run("ipv4_verdicts", func(t *testing.T) {
		checkGolden(t, "plan_ipv4_verdicts.golden", ipv4Verdicts(t))
	})
}

// ipv4Verdicts renders the static fusion verdict of the netbench IPv4
// program for every D in {2,3,4}, batch in {1,32} and pinned core budget
// in {1,2,8}, unsharded — the table that shows the valuator's P=1
// decisions on the benchmark program do not drift.
func ipv4Verdicts(t *testing.T) string {
	t.Helper()
	p, _ := netbench.ByName("IPv4")
	prog, err := p.Compile()
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, d := range []int{2, 3, 4} {
		for _, batch := range []int{1, 32} {
			for _, cores := range []int{1, 2, 8} {
				restore := repro.SetFusionCoresForTest(cores)
				pipe, err := repro.Partition(prog, repro.WithStages(d), repro.WithBatch(batch))
				restore()
				if err != nil {
					t.Fatal(err)
				}
				fmt.Fprintf(&b, "== %d core(s)\n%s", cores, renderPlan(pipe.Plan()))
			}
		}
	}
	return b.String()
}

// checkGolden compares got against testdata/name, rewriting the file
// first under -update.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updatePlans {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if got != string(want) {
		t.Errorf("plan drifted from %s:\n--- got ---\n%s--- want ---\n%s", path, got, want)
	}
}
