package bench

import (
	"fmt"
	"io"
	"text/tabwriter"
	"time"

	"pmago/internal/core"
	"pmago/internal/workload"
)

// Scale sets the experiment size. The paper runs 1G elements on a dual
// socket Xeon; DefaultScale is the laptop-scale equivalent — the flags of
// cmd/pmabench restore any size.
type Scale struct {
	InsertN int // elements inserted in the insert-only plots
	LoadN   int // preloaded base for the mixed plots
	MixedN  int // timed update ops in the mixed plots
	Threads int // the paper's 16 hardware threads
	Seed    int64
}

// DefaultScale finishes in minutes on a laptop while still exercising many
// resizes and thousands of rebalances.
func DefaultScale() Scale {
	return Scale{InsertN: 1 << 21, LoadN: 1 << 21, MixedN: 1 << 20, Threads: 16, Seed: 1}
}

// Plot describes one sub-plot of Figure 3: a thread partition and whether
// the update pattern is insert-only or mixed.
type Plot struct {
	ID            string
	UpdateThreads int
	ScanThreads   int
	Mixed         bool
	Caption       string
}

// Figure3Plots returns the six sub-plots a-f for the given total thread
// count (16 in the paper). Update threads are clamped to at least one before
// the scan threads and the caption are derived from them, so a plot never
// asks for more threads than the budget and its caption names what runs.
func Figure3Plots(threads int) []Plot {
	threads = max(threads, 1)
	q := threads / 4
	h := threads / 2
	plot := func(id string, upd, scan int, mixed bool) Plot {
		upd = max(upd, 1)
		scan = min(scan, threads-upd)
		verb := "insertions"
		if mixed {
			verb = "updates"
		}
		caption := fmt.Sprintf("%dt %s only", upd, verb)
		if scan > 0 {
			caption = fmt.Sprintf("%dt %s, %dt scans", upd, verb, scan)
		}
		return Plot{id, upd, scan, mixed, caption}
	}
	return []Plot{
		plot("a", threads, 0, false),
		plot("b", threads-q, q, false),
		plot("c", h, h, false),
		plot("d", threads, 0, true),
		plot("e", threads-q, q, true),
		plot("f", h, h, true),
	}
}

// Figure4Plots returns the three sub-plots a-c of Figure 4. They share the
// insert-only thread partitions of Figure 3a-c: 16, 12 and 8 update
// threads of the paper's 16, the rest scanning.
func Figure4Plots(threads int) []Plot {
	return Figure3Plots(threads)[:3]
}

// spec is the Workload that plot p hands to Run for distribution d.
func (p Plot) spec(d workload.Distribution, sc Scale) Workload {
	w := Workload{
		Dist:          d,
		UpdateThreads: p.UpdateThreads,
		ScanThreads:   p.ScanThreads,
		Seed:          sc.Seed,
	}
	if p.Mixed {
		w.LoadN = sc.LoadN
		w.Ops = sc.MixedN
		w.Mixed = true
	} else {
		w.Ops = sc.InsertN
	}
	return w
}

// RunFigure3 executes one sub-plot across the four structures and the four
// distributions, returning results grouped per structure in plot order.
func RunFigure3(plot Plot, factories []Factory, sc Scale) []Result {
	var out []Result
	for _, d := range workload.PaperDistributions() {
		for _, f := range factories {
			out = append(out, Run(f, plot.spec(d, sc)))
		}
	}
	return out
}

// Figure4Variant is one bar group of Figure 4.
type Figure4Variant struct {
	Name string
	Cfg  core.Config
}

// Figure4Variants returns the asynchronous-update configurations evaluated
// in Figure 4: the synchronous baseline, one-by-one processing, and batch
// processing with tdelay from 0 to 800 ms.
func Figure4Variants() []Figure4Variant {
	mk := func(name string, mode core.Mode, tdelay time.Duration) Figure4Variant {
		cfg := core.DefaultConfig()
		cfg.Mode = mode
		cfg.TDelay = tdelay
		return Figure4Variant{Name: name, Cfg: cfg}
	}
	return []Figure4Variant{
		mk("Baseline", core.ModeSync, 0),
		mk("1by1", core.ModeOneByOne, 0),
		mk("Batch 0ms", core.ModeBatch, 0),
		mk("Batch 100ms", core.ModeBatch, 100*time.Millisecond),
		mk("Batch 200ms", core.ModeBatch, 200*time.Millisecond),
		mk("Batch 400ms", core.ModeBatch, 400*time.Millisecond),
		mk("Batch 800ms", core.ModeBatch, 800*time.Millisecond),
	}
}

// SpeedupRow is one distribution's speedups relative to the baseline.
type SpeedupRow struct {
	Dist     workload.Distribution
	Baseline float64 // absolute updates/sec of the synchronous PMA
	Speedup  []float64
}

// RunFigure4 reproduces one sub-plot of Figure 4 (Figure4Plots), inserting
// InsertN elements and reporting per-variant speedup over the synchronous
// baseline.
func RunFigure4(plot Plot, sc Scale) ([]Figure4Variant, []SpeedupRow) {
	variants := Figure4Variants()
	var rows []SpeedupRow
	for _, d := range workload.PaperDistributions() {
		row := SpeedupRow{Dist: d}
		for i, v := range variants {
			res := Run(PMAFactory("PMA-"+v.Name, v.Cfg), plot.spec(d, sc))
			if i == 0 {
				row.Baseline = res.UpdatesPerSec
				row.Speedup = append(row.Speedup, 1.0)
			} else {
				row.Speedup = append(row.Speedup, res.UpdatesPerSec/row.Baseline)
			}
		}
		rows = append(rows, row)
	}
	return variants, rows
}

// AblationPlot is the thread partition of the Section 4.1 ablations: the
// insert-only half-and-half split of Figure 3c (8 + 8 of the paper's 16).
func AblationPlot(threads int) Plot {
	return Figure3Plots(threads)[2]
}

// RunSegmentAblation reproduces the Section 4.1 text experiment: doubling
// the PMA segment size from 128 to 256 trades update throughput for scan
// throughput.
func RunSegmentAblation(sc Scale) []Result {
	var out []Result
	for _, segCap := range []int{128, 256} {
		cfg := PaperPMAConfig()
		cfg.SegmentCapacity = segCap
		f := PMAFactory(fmt.Sprintf("PMA B=%d", segCap), cfg)
		for _, d := range []workload.Distribution{workload.Uniform(), workload.Zipf(1.5)} {
			out = append(out, Run(f, AblationPlot(sc.Threads).spec(d, sc)))
		}
	}
	return out
}

// RunLeafAblation reproduces the ART/B+-tree leaf-size experiment of
// Section 4.1: growing leaves from 4 KiB to 8 KiB closes most of the scan
// gap to the PMA at the cost of update throughput.
func RunLeafAblation(sc Scale) []Result {
	var out []Result
	factories := []Factory{
		ABTreeFactory("ART 4KiB", 256),
		ABTreeFactory("ART 8KiB", 512),
		PMAFactory("PMA", PaperPMAConfig()),
	}
	for _, f := range factories {
		for _, d := range []workload.Distribution{workload.Uniform(), workload.Zipf(1.5)} {
			out = append(out, Run(f, AblationPlot(sc.Threads).spec(d, sc)))
		}
	}
	return out
}

// PrintResults renders results as the paper's two panels (update throughput
// and scan throughput) in aligned columns.
func PrintResults(w io.Writer, caption string, rs []Result, showScans bool) {
	fmt.Fprintf(w, "== %s ==\n", caption)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "structure\tdistribution\tupdates M/s\t")
	if showScans {
		fmt.Fprintf(tw, "scanned M elts/s\t")
	}
	fmt.Fprintf(tw, "final size\twall\n")
	for _, r := range rs {
		fmt.Fprintf(tw, "%s\t%s\t%.3f\t", r.Store, r.Dist, r.UpdatesPerSec/1e6)
		if showScans {
			fmt.Fprintf(tw, "%.2f\t", r.ScansPerSec/1e6)
		}
		fmt.Fprintf(tw, "%d\t%s\n", r.FinalLen, r.Wall.Round(time.Millisecond))
	}
	tw.Flush()
	fmt.Fprintln(w)
}

// PrintSpeedups renders a Figure 4 sub-plot.
func PrintSpeedups(w io.Writer, caption string, variants []Figure4Variant, rows []SpeedupRow) {
	fmt.Fprintf(w, "== %s (speedup w.r.t. baseline) ==\n", caption)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "distribution\tbaseline M/s")
	for _, v := range variants[1:] {
		fmt.Fprintf(tw, "\t%s", v.Name)
	}
	fmt.Fprintln(tw)
	for _, row := range rows {
		fmt.Fprintf(tw, "%s\t%.3f", row.Dist, row.Baseline/1e6)
		for _, s := range row.Speedup[1:] {
			fmt.Fprintf(tw, "\t%.2fx", s)
		}
		fmt.Fprintln(tw)
	}
	tw.Flush()
	fmt.Fprintln(w)
}
