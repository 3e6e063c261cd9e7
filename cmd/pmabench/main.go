// Command pmabench regenerates the paper's evaluation: Section 4 and the
// Section 6 graph.
//
// Every figure has a driver:
//
//	pmabench -experiment figure3 -plot a     # Figure 3a-f
//	pmabench -experiment figure4 -plot b     # Figure 4a-c
//	pmabench -experiment ablation-segment    # Section 4.1 text: B=128 vs 256
//	pmabench -experiment ablation-leaf       # Section 4.1 text: 4KiB vs 8KiB leaves
//	pmabench -experiment graph               # Section 6: CRS graph on the PMA
//	pmabench -experiment all                 # everything, in order
//
// -experiment also accepts a comma-separated list (e.g. "figure4,graph").
// -pprof ADDR serves net/http/pprof for profiling a run. The system's own
// layers (reads, batches, compression, durability, sharding, the wire) are
// measured by the benchmark module in benchmark/, not here.
//
// The defaults are laptop-scale; -inserts/-load/-ops/-threads restore any
// scale (the paper used 1G elements and 16 hardware threads). With -json
// FILE every experiment in the run additionally records its measurements
// into one machine-readable report (see internal/bench/json.go): CI uploads
// a tiny-scale report as an artifact on each run.
package main

import (
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof"
	"os"
	"runtime"
	"slices"
	"strings"
	"time"

	"pmago/internal/bench"
)

func main() {
	var (
		experiment = flag.String("experiment", "all", "figure3 | figure4 | ablation-segment | ablation-leaf | graph | all, or a comma-separated list")
		plot       = flag.String("plot", "", "figure3: a-f (empty = all); figure4: a-c (empty = all)")
		inserts    = flag.Int("inserts", bench.DefaultScale().InsertN, "elements inserted in insert-only experiments")
		loadN      = flag.Int("load", bench.DefaultScale().LoadN, "preloaded base size for the mixed experiments")
		mixedN     = flag.Int("ops", bench.DefaultScale().MixedN, "timed update ops in the mixed experiments")
		threads    = flag.Int("threads", bench.DefaultScale().Threads, "total worker threads (goroutines), as in the paper's 16")
		seed       = flag.Int64("seed", 1, "base RNG seed")
		jsonPath   = flag.String("json", "", "also write all measurements to this file as a JSON report")
		pprofAddr  = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060) for profiling a run")
	)
	flag.Parse()

	if *pprofAddr != "" {
		go func() {
			// DefaultServeMux: the blank pprof import registered /debug/pprof.
			fmt.Fprintf(os.Stderr, "pprof server: %v\n", http.ListenAndServe(*pprofAddr, nil))
		}()
		fmt.Printf("pprof endpoint: http://%s/debug/pprof/\n\n", *pprofAddr)
	}

	sc := bench.Scale{InsertN: *inserts, LoadN: *loadN, MixedN: *mixedN, Threads: *threads, Seed: *seed}
	fmt.Printf("pmabench: scale inserts=%d load=%d mixed-ops=%d threads=%d (GOMAXPROCS=%d)\n\n",
		sc.InsertN, sc.LoadN, sc.MixedN, sc.Threads, runtime.GOMAXPROCS(0))

	var report *bench.Report
	if *jsonPath != "" {
		report = bench.NewReport(sc)
	}

	// "all" expands to every experiment name, so each experiment has
	// exactly one handler (no drift between the single and the all run).
	known := []string{"figure3", "figure4", "ablation-segment", "ablation-leaf", "graph"}
	var experiments []string
	for _, exp := range strings.Split(*experiment, ",") {
		if exp = strings.TrimSpace(exp); exp == "all" {
			experiments = append(experiments, known...)
		} else {
			// Reject unknown names before any experiment runs: a typo at
			// the end of a list must not waste the whole run.
			if !slices.Contains(known, exp) {
				fmt.Fprintf(os.Stderr, "unknown experiment %q\n", exp)
				os.Exit(2)
			}
			experiments = append(experiments, exp)
		}
	}
	// Dedupe (e.g. "all,graph"): rerunning an experiment doubles runtime
	// and emits duplicate metric rows trend tooling would trip over.
	seen := map[string]bool{}
	experiments = slices.DeleteFunc(experiments, func(e string) bool {
		if seen[e] {
			return true
		}
		seen[e] = true
		return false
	})
	for _, exp := range experiments {
		switch exp {
		case "figure3":
			runFigure3(sc, *plot, report)
		case "figure4":
			runFigure4(sc, *plot, report)
		case "ablation-segment":
			rs := bench.RunSegmentAblation(sc)
			bench.PrintResults(os.Stdout, "Section 4.1 ablation: PMA segment size 128 vs 256 ("+bench.AblationPlot(sc.Threads).Caption+")", rs, true)
			report.AddResults("ablation-segment", rs, true)
		case "ablation-leaf":
			rs := bench.RunLeafAblation(sc)
			bench.PrintResults(os.Stdout, "Section 4.1 ablation: ART/B+-tree leaf 4KiB vs 8KiB ("+bench.AblationPlot(sc.Threads).Caption+")", rs, true)
			report.AddResults("ablation-leaf", rs, true)
		case "graph":
			printGraph(sc, report)
		}
	}

	if report != nil {
		if err := report.WriteFile(*jsonPath); err != nil {
			fmt.Fprintf(os.Stderr, "writing %s: %v\n", *jsonPath, err)
			os.Exit(1)
		}
		fmt.Printf("wrote %d metrics to %s\n", len(report.Metrics), *jsonPath)
	}
}

func printGraph(sc bench.Scale, report *bench.Report) {
	res := bench.RunGraph(sc.InsertN, 1<<20, sc.Threads/2, sc.Seed)
	fmt.Println("== Section 6: dynamic CRS graph on the concurrent PMA ==")
	fmt.Printf("edge updates:        %.3f M/s\n", res.EdgesPerSec/1e6)
	fmt.Printf("neighbour expansion: %.2f M edges/s concurrent with updates\n", res.NeighborsPerSec/1e6)
	fmt.Printf("PageRank (3 iters):  %v over %d edges\n\n", res.PageRankTime.Round(time.Millisecond), res.FinalEdges)
	report.Add("graph", "edge_updates", nil, "ops/s", res.EdgesPerSec)
	report.Add("graph", "neighbour_expansion", nil, "edges/s", res.NeighborsPerSec)
	report.Add("graph", "pagerank_3iters", nil, "seconds", res.PageRankTime.Seconds())
}

func runFigure3(sc bench.Scale, plot string, report *bench.Report) {
	for _, p := range bench.Figure3Plots(sc.Threads) {
		if plot != "" && p.ID != plot {
			continue
		}
		rs := bench.RunFigure3(p, bench.PaperFactories(), sc)
		bench.PrintResults(os.Stdout, fmt.Sprintf("Figure 3%s) %s", p.ID, p.Caption), rs, p.ScanThreads > 0)
		report.AddResults("figure3"+p.ID, rs, p.ScanThreads > 0)
	}
}

func runFigure4(sc bench.Scale, plot string, report *bench.Report) {
	for _, p := range bench.Figure4Plots(sc.Threads) {
		if plot != "" && p.ID != plot {
			continue
		}
		variants, rows := bench.RunFigure4(p, sc)
		bench.PrintSpeedups(os.Stdout, fmt.Sprintf("Figure 4%s) %s", p.ID, p.Caption), variants, rows)
		for _, row := range rows {
			labels := map[string]string{"distribution": row.Dist.String(), "variant": "Baseline"}
			report.Add("figure4"+p.ID, "updates", labels, "ops/s", row.Baseline)
			for i, v := range variants[1:] {
				labels := map[string]string{"distribution": row.Dist.String(), "variant": v.Name}
				report.Add("figure4"+p.ID, "updates", labels, "ops/s", row.Baseline*row.Speedup[i+1])
			}
		}
	}
}
