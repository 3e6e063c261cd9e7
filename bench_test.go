// Benchmarks mirroring the paper's evaluation, one per figure/plot (scaled;
// cmd/pmabench runs the full sweeps). Each benchmark iteration executes a
// fixed-size workload and reports throughput metrics:
//
//	upd/s      update operations per second
//	scanelts/s elements visited by concurrent scan threads per second
//
// Run with: go test -bench=. -benchmem
//
// This file is an external test package (pmago_test): internal/bench now
// imports pmago for the durability drivers, so an in-package test here
// would be an import cycle.
package pmago_test

import (
	"testing"
	"time"

	"pmago"
	"pmago/internal/bench"
	"pmago/internal/workload"
)

const benchOps = 200_000

func reportRun(b *testing.B, f bench.Factory, w bench.Workload) {
	b.Helper()
	var upd, scans float64
	for i := 0; i < b.N; i++ {
		w.Seed = int64(i + 1)
		res := bench.Run(f, w)
		upd += res.UpdatesPerSec
		scans += res.ScansPerSec
	}
	b.ReportMetric(upd/float64(b.N), "upd/s")
	if w.ScanThreads > 0 {
		b.ReportMetric(scans/float64(b.N), "scanelts/s")
	}
}

// BenchmarkFigure3a: insert-only, all threads updating.
func BenchmarkFigure3a(b *testing.B) {
	for _, d := range workload.PaperDistributions() {
		for _, f := range bench.PaperFactories() {
			b.Run(d.String()+"/"+f.Name, func(b *testing.B) {
				reportRun(b, f, bench.Workload{
					Dist: d, Ops: benchOps, UpdateThreads: 4,
				})
			})
		}
	}
}

// BenchmarkFigure3c: insert + scan, half the threads each.
func BenchmarkFigure3c(b *testing.B) {
	for _, d := range workload.PaperDistributions() {
		for _, f := range bench.PaperFactories() {
			b.Run(d.String()+"/"+f.Name, func(b *testing.B) {
				reportRun(b, f, bench.Workload{
					Dist: d, Ops: benchOps, UpdateThreads: 2, ScanThreads: 2,
				})
			})
		}
	}
}

// BenchmarkFigure3f: mixed insert+delete rounds over a preloaded base, with
// concurrent scans.
func BenchmarkFigure3f(b *testing.B) {
	for _, d := range workload.PaperDistributions() {
		for _, f := range bench.PaperFactories() {
			b.Run(d.String()+"/"+f.Name, func(b *testing.B) {
				reportRun(b, f, bench.Workload{
					Dist: d, LoadN: benchOps, Ops: benchOps / 2, Mixed: true,
					UpdateThreads: 2, ScanThreads: 2,
				})
			})
		}
	}
}

// BenchmarkFigure4 compares the asynchronous update schemes under skew (the
// speedup experiment, here as absolute throughput per variant).
func BenchmarkFigure4(b *testing.B) {
	for _, v := range bench.Figure4Variants() {
		for _, d := range []workload.Distribution{workload.Uniform(), workload.Zipf(2)} {
			b.Run(v.Name+"/"+d.String(), func(b *testing.B) {
				reportRun(b, bench.PMAFactory("PMA-"+v.Name, v.Cfg), bench.Workload{
					Dist: d, Ops: benchOps, UpdateThreads: 4,
				})
			})
		}
	}
}

// BenchmarkAblationSegment: the Section 4.1 segment-size trade-off.
func BenchmarkAblationSegment(b *testing.B) {
	for _, segCap := range []int{128, 256} {
		cfg := bench.PaperPMAConfig()
		cfg.SegmentCapacity = segCap
		name := map[int]string{128: "B128", 256: "B256"}[segCap]
		b.Run(name, func(b *testing.B) {
			reportRun(b, bench.PMAFactory("PMA-"+name, cfg), bench.Workload{
				Dist: workload.Uniform(), Ops: benchOps, UpdateThreads: 2, ScanThreads: 2,
			})
		})
	}
}

// BenchmarkAblationLeaf: the Section 4.1 ART/B+-tree leaf-size trade-off.
func BenchmarkAblationLeaf(b *testing.B) {
	for _, leaf := range []int{256, 512} {
		name := map[int]string{256: "4KiB", 512: "8KiB"}[leaf]
		b.Run(name, func(b *testing.B) {
			reportRun(b, bench.ABTreeFactory("ART-"+name, leaf), bench.Workload{
				Dist: workload.Uniform(), Ops: benchOps, UpdateThreads: 2, ScanThreads: 2,
			})
		})
	}
}

// BenchmarkScanOnly isolates the read side: full ordered scans of a loaded
// store — the panel where the PMA dominates in every Figure 3 plot.
func BenchmarkScanOnly(b *testing.B) {
	for _, f := range bench.PaperFactories() {
		b.Run(f.Name, func(b *testing.B) {
			s := f.New()
			defer func() {
				if c, ok := s.(bench.Closer); ok {
					c.Close()
				}
			}()
			gen := workload.NewGenerator(workload.Uniform(), workload.DefaultDomain, 1)
			for i := 0; i < benchOps; i++ {
				k := gen.Next()
				s.Put(k, k)
			}
			if fl, ok := s.(bench.Flusher); ok {
				fl.Flush()
			}
			b.ResetTimer()
			total := 0
			for i := 0; i < b.N; i++ {
				s.ScanAll(func(_, _ int64) bool { total++; return true })
			}
			b.ReportMetric(float64(total)/b.Elapsed().Seconds(), "scanelts/s")
		})
	}
}

// BenchmarkGraphEdgeStream: Section 6 — edge insertions into the CRS-on-PMA
// representation with a concurrent neighbourhood-scanning analytics thread.
func BenchmarkGraphEdgeStream(b *testing.B) {
	g, err := pmago.NewGraph()
	if err != nil {
		b.Fatal(err)
	}
	defer g.Close()
	stop := make(chan struct{})
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
			}
			g.Neighbors(1, func(uint32, int64) bool { return true })
		}
	}()
	gen := workload.NewGenerator(workload.Zipf(1), 1<<20, 1)
	b.ResetTimer()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		src := uint32(gen.Next())
		dst := uint32(gen.Next())
		g.AddEdge(src, dst, 1)
	}
	g.Flush()
	b.ReportMetric(float64(b.N)/time.Since(start).Seconds(), "edges/s")
	close(stop)
}
