package bench

import (
	"fmt"
	"strings"
	"testing"

	"pmago/internal/workload"
)

// smallScale keeps unit-test runs fast while still crossing resizes.
func smallScale() Scale {
	return Scale{InsertN: 40_000, LoadN: 40_000, MixedN: 20_000, Threads: 4, Seed: 1}
}

func TestRunInsertOnlyAllStores(t *testing.T) {
	for _, f := range PaperFactories() {
		res := Run(f, Workload{
			Dist:          workload.Uniform(),
			Ops:           20_000,
			UpdateThreads: 2,
			ScanThreads:   1,
			Seed:          3,
		})
		if res.UpdatesPerSec <= 0 {
			t.Fatalf("%s: zero update throughput", f.Name)
		}
		if res.FinalLen <= 0 || res.FinalLen > 20_000 {
			t.Fatalf("%s: implausible final size %d", f.Name, res.FinalLen)
		}
	}
}

func TestRunMixedKeepsSizeStable(t *testing.T) {
	for _, f := range PaperFactories() {
		res := Run(f, Workload{
			Dist:          workload.Uniform(),
			LoadN:         30_000,
			Ops:           20_000,
			Mixed:         true,
			MixedChunk:    1_000,
			UpdateThreads: 2,
			Seed:          5,
		})
		// Mixed rounds replay the same keys for deletion, so the final
		// size must stay close to the loaded base (uniform keys rarely
		// collide at this scale).
		if res.FinalLen < 25_000 || res.FinalLen > 31_000 {
			t.Fatalf("%s: final size %d drifted from base 30000", f.Name, res.FinalLen)
		}
	}
}

func TestRunCountsScans(t *testing.T) {
	res := Run(PMAFactory("PMA", PaperPMAConfig()), Workload{
		Dist:          workload.Uniform(),
		LoadN:         30_000,
		Ops:           30_000,
		UpdateThreads: 1,
		ScanThreads:   2,
		Seed:          7,
	})
	if res.ScansPerSec <= 0 {
		t.Fatal("scan threads recorded nothing")
	}
}

func TestZipfRunsOnPMA(t *testing.T) {
	for _, d := range workload.PaperDistributions() {
		res := Run(PMAFactory("PMA", PaperPMAConfig()), Workload{
			Dist:          d,
			Ops:           20_000,
			UpdateThreads: 4,
			Seed:          11,
		})
		if res.UpdatesPerSec <= 0 {
			t.Fatalf("%v: zero throughput", d)
		}
	}
}

func TestFigure3PlotsShape(t *testing.T) {
	plots := Figure3Plots(16)
	if len(plots) != 6 {
		t.Fatalf("%d plots", len(plots))
	}
	if plots[0].UpdateThreads != 16 || plots[0].ScanThreads != 0 || plots[0].Mixed {
		t.Fatal("plot a misconfigured")
	}
	if plots[2].UpdateThreads != 8 || plots[2].ScanThreads != 8 {
		t.Fatal("plot c misconfigured")
	}
	if !plots[3].Mixed {
		t.Fatal("plot d must be mixed")
	}
}

// TestFigurePartitionsWithinBudget: at small thread budgets every plot of
// Figures 3 and 4, and the ablations' partition, hands Run at least one
// update thread, never more threads than the budget, and a caption naming
// the threads it runs.
func TestFigurePartitionsWithinBudget(t *testing.T) {
	sc := smallScale()
	for _, threads := range []int{1, 2} {
		figures := map[string][]Plot{
			"Figure 3":  Figure3Plots(threads),
			"Figure 4":  Figure4Plots(threads),
			"ablations": {AblationPlot(threads)},
		}
		for fig, plots := range figures {
			for _, p := range plots {
				w := p.spec(workload.Uniform(), sc)
				name := fmt.Sprintf("%s plot %s at %d threads (%q)", fig, p.ID, threads, p.Caption)
				if w.UpdateThreads < 1 || w.UpdateThreads+w.ScanThreads > threads {
					t.Errorf("%s: %d update + %d scan threads", name, w.UpdateThreads, w.ScanThreads)
				}
				if !strings.HasPrefix(p.Caption, fmt.Sprintf("%dt ", w.UpdateThreads)) {
					t.Errorf("%s: caption does not start with the %d update threads", name, w.UpdateThreads)
				}
				if scans := fmt.Sprintf(", %dt scans", w.ScanThreads); (w.ScanThreads > 0) != strings.HasSuffix(p.Caption, scans) {
					t.Errorf("%s: caption disagrees with %d scan threads", name, w.ScanThreads)
				}
			}
		}
	}
}

func TestFigure4VariantsMatchPaper(t *testing.T) {
	vs := Figure4Variants()
	want := []string{"Baseline", "1by1", "Batch 0ms", "Batch 100ms", "Batch 200ms", "Batch 400ms", "Batch 800ms"}
	if len(vs) != len(want) {
		t.Fatalf("%d variants", len(vs))
	}
	for i, v := range vs {
		if v.Name != want[i] {
			t.Fatalf("variant %d = %s, want %s", i, v.Name, want[i])
		}
	}
}

func TestPrintResults(t *testing.T) {
	var sb strings.Builder
	PrintResults(&sb, "test", []Result{{Store: "PMA", Dist: workload.Uniform(), UpdatesPerSec: 1e6, ScansPerSec: 2e6, FinalLen: 10}}, true)
	out := sb.String()
	for _, want := range []string{"PMA", "Uniform", "1.000", "2.00"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

func TestPrintSpeedups(t *testing.T) {
	var sb strings.Builder
	vs := Figure4Variants()
	rows := []SpeedupRow{{Dist: workload.Zipf(2), Baseline: 5e5, Speedup: []float64{1, 2, 0.9, 4.7, 5.4, 6, 7.4}}}
	PrintSpeedups(&sb, "figure 4a", vs, rows)
	out := sb.String()
	for _, want := range []string{"Zipf a=2", "4.70x", "Batch 800ms"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}
