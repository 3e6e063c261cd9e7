// Command pmabench regenerates the paper's evaluation (Section 4).
//
// Every figure has a driver:
//
//	pmabench -experiment figure3 -plot a     # Figure 3a-f
//	pmabench -experiment figure4 -plot b     # Figure 4a-c
//	pmabench -experiment ablation-segment    # Section 4.1 text: B=128 vs 256
//	pmabench -experiment ablation-leaf       # Section 4.1 text: 4KiB vs 8KiB leaves
//	pmabench -experiment reads               # optimistic (seqlock) vs latched reads
//	pmabench -experiment batch               # batch subsystem: PutBatch/BulkLoad vs point loops
//	pmabench -experiment memory              # compressed chunks: heap and bytes/pair vs uncompressed
//	pmabench -experiment durability          # WAL fsync policies + recovery time
//	pmabench -experiment shards              # sharded store: shard count scaling
//	pmabench -experiment wire                # TCP front end: cross-client group commit
//	pmabench -experiment all                 # everything, in order
//
// -experiment also accepts a comma-separated list (e.g. "reads,batch").
//
// -stats additionally reports each store's metrics snapshot (the pmago.Stats
// counters: seqlock read outcomes, combining, rebalances, per-shard routing)
// and records it as stats_* rows in the -json report; -pprof ADDR serves
// net/http/pprof for profiling a run.
//
// The defaults are laptop-scale; -inserts/-load/-ops/-threads restore any
// scale (the paper used 1G elements and 16 hardware threads). With -json
// FILE every experiment in the run additionally records its measurements
// into one machine-readable report (see internal/bench/json.go): CI uploads
// a tiny-scale report as an artifact on each run, and full-scale local
// reports are committed as BENCH_<pr>.json to track the perf trajectory.
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
	"pmago/internal/obs"
)

func main() {
	var (
		experiment = flag.String("experiment", "all", "figure3 | figure4 | ablation-segment | ablation-leaf | reads | batch | memory | durability | graph | shards | wire | all, or a comma-separated list")
		plot       = flag.String("plot", "", "figure3: a-f (empty = all); figure4: a-c (empty = all)")
		inserts    = flag.Int("inserts", bench.DefaultScale().InsertN, "elements inserted in insert-only experiments")
		loadN      = flag.Int("load", bench.DefaultScale().LoadN, "preloaded base size for the mixed experiments")
		mixedN     = flag.Int("ops", bench.DefaultScale().MixedN, "timed update ops in the mixed experiments")
		threads    = flag.Int("threads", bench.DefaultScale().Threads, "total worker threads (goroutines), as in the paper's 16")
		seed       = flag.Int64("seed", 1, "base RNG seed")
		jsonPath   = flag.String("json", "", "also write all measurements to this file as a JSON report")
		readSecs   = flag.Float64("read-seconds", 1.0, "measured seconds per cell of the reads experiment")
		maxShards  = flag.Int("shards", 8, "largest shard count in the shards experiment (runs powers of two up to it)")
		maxClients = flag.Int("wire-clients", 16, "largest client count in the wire experiment (runs powers of two up to it)")
		stats      = flag.Bool("stats", false, "print the stores' metrics snapshots and record stats_* rows in the JSON report")
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
	readDur := time.Duration(*readSecs * float64(time.Second))

	// "all" expands to every experiment name, so each experiment has
	// exactly one handler (no drift between the single and the all run).
	known := []string{
		"figure3", "figure4", "ablation-segment", "ablation-leaf",
		"reads", "batch", "memory", "durability", "graph", "shards", "wire",
	}
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
	// Dedupe (e.g. "all,batch"): rerunning an experiment doubles runtime
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
			bench.PrintResults(os.Stdout, "Section 4.1 ablation: PMA segment size 128 vs 256 (8 upd + 8 scan threads)", rs, true)
			report.AddResults("ablation-segment", rs, true)
		case "ablation-leaf":
			rs := bench.RunLeafAblation(sc)
			bench.PrintResults(os.Stdout, "Section 4.1 ablation: ART/B+-tree leaf 4KiB vs 8KiB (8 upd + 8 scan threads)", rs, true)
			report.AddResults("ablation-leaf", rs, true)
		case "reads":
			printReads(sc, readDur, report, *stats)
		case "batch":
			printBatch(sc, report)
		case "memory":
			printMemory(sc, report)
		case "durability":
			printDurability(sc, report)
		case "graph":
			printGraph(sc, report)
		case "shards":
			printShards(sc, *maxShards, report, *stats)
		case "wire":
			printWire(sc, *maxClients, report, *stats)
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

func printReads(sc bench.Scale, perCell time.Duration, report *bench.Report, stats bool) {
	fmt.Println("== Read path: optimistic (seqlock) Get vs shared-latch baseline ==")
	rs := bench.RunReads(sc, perCell)
	// Cells come in (latched, optimistic, nometrics) triples per mix; index
	// them for the speedup and overhead columns.
	byKey := map[string]bench.ReadsResult{}
	for _, r := range rs {
		byKey[fmt.Sprintf("%s/%d", r.Variant, r.WriterPct)] = r
	}
	for _, pct := range bench.ReadsWriterMixes {
		opt := byKey[fmt.Sprintf("optimistic/%d", pct)]
		lat := byKey[fmt.Sprintf("latched/%d", pct)]
		nom := byKey[fmt.Sprintf("nometrics/%d", pct)]
		cmp := byKey[fmt.Sprintf("compressed/%d", pct)]
		speedup := 0.0
		if lat.GetsPerSec > 0 {
			speedup = opt.GetsPerSec / lat.GetsPerSec
		}
		fmt.Printf("%2d%% writers (%2dr/%2dw): latched %7.2f M gets/s, optimistic %7.2f M gets/s, speedup %5.2fx",
			pct, opt.Readers, opt.Writers, lat.GetsPerSec/1e6, opt.GetsPerSec/1e6, speedup)
		if nom.GetsPerSec > 0 {
			// The observability overhead guard: optimistic runs with metrics
			// on, nometrics is the same path with them disabled.
			fmt.Printf(", metrics overhead %+5.1f%%", (nom.GetsPerSec-opt.GetsPerSec)/nom.GetsPerSec*100)
		}
		if cmp.GetsPerSec > 0 && opt.GetsPerSec > 0 {
			// The decode cost of compressed chunks, relative to the same
			// optimistic path over the uncompressed layout.
			fmt.Printf(", compressed %6.2f M gets/s (%.2fx)", cmp.GetsPerSec/1e6, cmp.GetsPerSec/opt.GetsPerSec)
		}
		if opt.Writers > 0 {
			fmt.Printf("  (puts: latched %5.2f M/s, optimistic %5.2f M/s)", lat.PutsPerSec/1e6, opt.PutsPerSec/1e6)
		}
		fmt.Println()
	}
	if stats {
		for _, pct := range bench.ReadsWriterMixes {
			st := byKey[fmt.Sprintf("optimistic/%d", pct)].Stats
			fmt.Printf("   stats %2d%% writers: %d optimistic gets, %d latched fallbacks, %d probe retries, %d combined ops\n",
				pct, st.Reads.GetOptimistic, st.Reads.GetLatched, st.Reads.GetProbeFails, st.Updates.CombinedOps)
		}
	}
	fmt.Println()
	report.AddReads(rs)
	if stats {
		for _, r := range rs {
			report.AddStats("reads",
				map[string]string{"variant": r.Variant, "writer_pct": fmt.Sprintf("%d", r.WriterPct)},
				obs.Snapshot{CoreSnapshot: r.Stats})
		}
	}
}

func printBatch(sc bench.Scale, report *bench.Report) {
	fmt.Println("== Batch subsystem: PutBatch / BulkLoad vs point-update loops ==")
	n := sc.InsertN / 2
	for _, cl := range []int{0, 32, 128} {
		shape := "scattered"
		if cl > 0 {
			shape = fmt.Sprintf("clusters of %d", cl)
		}
		r := bench.RunBatchComparison(sc.LoadN, n, 10_000, cl, sc.Seed)
		overhead := 0.0
		if r.NoMetricsPerSec > 0 {
			overhead = (r.NoMetricsPerSec - r.BatchPerSec) / r.NoMetricsPerSec * 100
		}
		fmt.Printf("PutBatch 10k (%-15s): point %6.2f M/s, batch %6.2f M/s, speedup %5.1fx, metrics overhead %+5.1f%%, compressed %6.2f M/s\n",
			shape, r.PointPerSec/1e6, r.BatchPerSec/1e6, r.Speedup, overhead, r.CompressedPerSec/1e6)
		labels := map[string]string{"shape": shape}
		report.Add("batch", "point_put", labels, "ops/s", r.PointPerSec)
		report.Add("batch", "put_batch", labels, "ops/s", r.BatchPerSec)
		report.Add("batch", "put_batch_nometrics", labels, "ops/s", r.NoMetricsPerSec)
		report.Add("batch", "put_batch_compressed", labels, "ops/s", r.CompressedPerSec)
	}
	b := bench.RunBulkComparison(sc.InsertN, sc.Seed)
	fmt.Printf("BulkLoad %d keys: point %v, bulk %v (compressed %v), speedup %.1fx\n\n",
		b.N, b.PointWall.Round(time.Millisecond), b.BulkWall.Round(time.Millisecond),
		b.BulkCompressedWall.Round(time.Millisecond), b.Speedup)
	report.Add("batch", "bulk_load", map[string]string{"n": fmt.Sprintf("%d", b.N)}, "seconds", b.BulkWall.Seconds())
	report.Add("batch", "point_load", map[string]string{"n": fmt.Sprintf("%d", b.N)}, "seconds", b.PointWall.Seconds())
	report.Add("batch", "bulk_load_compressed", map[string]string{"n": fmt.Sprintf("%d", b.N)}, "seconds", b.BulkCompressedWall.Seconds())
}

func printMemory(sc bench.Scale, report *bench.Report) {
	fmt.Println("== Memory: compressed chunks (delta-encoded segments) vs uncompressed ==")
	rs := bench.RunMemory(sc)
	var base bench.MemoryResult
	for _, r := range rs {
		fmt.Printf("%-12s %9d pairs: heap %9s (%5.2f B/pair", r.Variant, r.N, byteSize(int64(r.HeapBytes)), r.HeapBytesPerPair)
		if r.EncodedBytesPerPair > 0 {
			fmt.Printf(", payload %.2f B/pair", r.EncodedBytesPerPair)
		}
		fmt.Printf("), bulk load %v, scan %6.1f M pairs/s",
			r.BulkLoadWall.Round(time.Millisecond), r.ScanPairsPerSec/1e6)
		if r.Variant == "uncompressed" {
			base = r
		} else if base.HeapBytes > 0 && r.HeapBytes > 0 {
			fmt.Printf("  (%.2fx less heap)", float64(base.HeapBytes)/float64(r.HeapBytes))
		}
		fmt.Println()
		labels := map[string]string{"variant": r.Variant}
		report.Add("memory", "heap_bytes_per_pair", labels, "bytes", r.HeapBytesPerPair)
		if r.EncodedBytesPerPair > 0 {
			report.Add("memory", "encoded_bytes_per_pair", labels, "bytes", r.EncodedBytesPerPair)
		}
		report.Add("memory", "bulk_load", labels, "seconds", r.BulkLoadWall.Seconds())
		report.Add("memory", "scan", labels, "pairs/s", r.ScanPairsPerSec)
	}
	fmt.Println()
}

func printDurability(sc bench.Scale, report *bench.Report) {
	fmt.Println("== Durability: WAL fsync policies and crash recovery ==")
	n := sc.MixedN
	for _, r := range bench.RunDurableWrites(n, sc.Threads, sc.Seed) {
		fmt.Printf("durable Put %8d ops, %2d threads, fsync=%-8s: %7.2f M/s\n",
			r.N, r.Threads, r.Policy, r.PerSec/1e6)
		report.Add("durability", "durable_put",
			map[string]string{"fsync": fmt.Sprintf("%v", r.Policy), "threads": fmt.Sprintf("%d", r.Threads)},
			"ops/s", r.PerSec)
	}
	sizes := []int{sc.InsertN / 8, sc.InsertN}
	if sizes[0] < 1 {
		sizes = sizes[1:]
	}
	for _, r := range bench.RunRecovery(sizes, sc.Seed) {
		fmt.Printf("recovery %9d pairs (snapshot %s + WAL tail %d): Open in %v\n",
			r.N, byteSize(r.SnapshotBytes), r.TailN, r.OpenTime.Round(time.Millisecond))
		report.Add("durability", "recovery",
			map[string]string{"pairs": fmt.Sprintf("%d", r.N)}, "seconds", r.OpenTime.Seconds())
	}
	fmt.Println()
}

func printShards(sc bench.Scale, maxShards int, report *bench.Report, stats bool) {
	fmt.Println("== Sharding: multi-PMA store, write scaling by shard count ==")
	var counts []int
	for c := 1; c <= maxShards; c *= 2 {
		counts = append(counts, c)
	}
	rs := bench.RunShards(sc.MixedN, sc.Threads, counts, sc.Seed)
	base := rs[0]
	for _, r := range rs {
		fmt.Printf("shards %2d, %2d threads: put %6.2f M/s (%.2fx), batch %6.2f M/s, merged scan %7.2f M pairs/s\n",
			r.Shards, r.Threads, r.PutsPerSec/1e6, r.PutsPerSec/base.PutsPerSec,
			r.BatchPerSec/1e6, r.ScanPerSec/1e6)
		labels := map[string]string{
			"shards":  fmt.Sprintf("%d", r.Shards),
			"threads": fmt.Sprintf("%d", r.Threads),
		}
		report.Add("shards", "put", labels, "ops/s", r.PutsPerSec)
		report.Add("shards", "put_batch", labels, "ops/s", r.BatchPerSec)
		report.Add("shards", "scan_merge", labels, "pairs/s", r.ScanPerSec)
		if stats {
			fmt.Print("   routed ops per shard:")
			for _, sh := range r.Stats.Shards {
				fmt.Printf(" %d", sh.Ops)
			}
			fmt.Println()
			report.AddStats("shards", labels, r.Stats)
		}
	}
	fmt.Println()
}

func printWire(sc bench.Scale, maxClients int, report *bench.Report, stats bool) {
	fmt.Println("== Wire: framed TCP front end, durable FsyncAlways backend, cross-client group commit ==")
	rs := bench.RunWire(sc, maxClients)
	base := rs[0]
	for _, r := range rs {
		fmt.Printf("clients %2d: put %8.0f /s (%5.2fx), p50 %8s  p95 %8s  p99 %8s, commit batch avg %5.1f max %d\n",
			r.Clients, r.PerSec, r.PerSec/base.PerSec, r.P50, r.P95, r.P99, r.BatchAvg, r.BatchMax)
		labels := map[string]string{"clients": fmt.Sprintf("%d", r.Clients)}
		report.Add("wire", "put", labels, "ops/s", r.PerSec)
		report.Add("wire", "latency_p50", labels, "s", r.P50.Seconds())
		report.Add("wire", "latency_p95", labels, "s", r.P95.Seconds())
		report.Add("wire", "latency_p99", labels, "s", r.P99.Seconds())
		report.Add("wire", "commit_batch_avg", labels, "ops", r.BatchAvg)
		report.Add("wire", "commit_batch_max", labels, "ops", float64(r.BatchMax))
		if r.Trace != nil {
			// Server-side windowed percentiles at cell end: unlike the
			// client-measured rows above these exclude the network and
			// decompose into stages in the stats rows.
			for _, op := range r.Trace.Ops {
				if op.Total.Count == 0 {
					continue
				}
				wl := map[string]string{"clients": labels["clients"], "op": op.Op}
				report.Add("wire", "window_p50", wl, "s", op.Total.P50*1e-9)
				report.Add("wire", "window_p95", wl, "s", op.Total.P95*1e-9)
				report.Add("wire", "window_p99", wl, "s", op.Total.P99*1e-9)
				if op.Op == "put" {
					fmt.Printf("   windowed put: p50 %8s  p95 %8s  p99 %8s  p999 %8s (server-side, trailing window)\n",
						time.Duration(op.Total.P50), time.Duration(op.Total.P95),
						time.Duration(op.Total.P99), time.Duration(op.Total.P999))
				}
			}
		}
	}
	if stats {
		// Cumulative serving-layer snapshot after the whole sweep, fetched
		// through the protocol's own stats op; Trace carries the final
		// cell's windowed per-stage tails into stats_trace_* rows.
		final := rs[len(rs)-1]
		last := final.ServerStat
		fmt.Printf("   server totals: %d conns, %s in / %s out, %d group commits, %d busy\n",
			last.ConnsOpened, byteSize(int64(last.BytesRead)), byteSize(int64(last.BytesWritten)),
			last.CommitOps.Count, last.Busy)
		report.AddStats("wire", nil, obs.Snapshot{Server: last, Trace: final.Trace})
	}
	fmt.Println()
}

func byteSize(n int64) string {
	switch {
	case n >= 1<<20:
		return fmt.Sprintf("%.1f MiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1f KiB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%d B", n)
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
	type sub struct {
		id      string
		updThr  int
		caption string
	}
	subs := []sub{
		{"a", sc.Threads, fmt.Sprintf("Figure 4a) %d threads", sc.Threads)},
		{"b", sc.Threads * 3 / 4, fmt.Sprintf("Figure 4b) %d threads", sc.Threads*3/4)},
		{"c", sc.Threads / 2, fmt.Sprintf("Figure 4c) %d threads", sc.Threads/2)},
	}
	for _, s := range subs {
		if plot != "" && s.id != plot {
			continue
		}
		variants, rows := bench.RunFigure4(s.updThr, sc)
		bench.PrintSpeedups(os.Stdout, s.caption, variants, rows)
		for _, row := range rows {
			labels := map[string]string{"distribution": row.Dist.String(), "variant": "Baseline"}
			report.Add("figure4"+s.id, "updates", labels, "ops/s", row.Baseline)
			for i, v := range variants[1:] {
				labels := map[string]string{"distribution": row.Dist.String(), "variant": v.Name}
				report.Add("figure4"+s.id, "updates", labels, "ops/s", row.Baseline*row.Speedup[i+1])
			}
		}
	}
}
