// Benchmarks mirroring the paper's evaluation, one per figure/plot (scaled;
// cmd/pmabench runs the full sweeps). Each benchmark iteration executes a
// fixed-size workload and reports throughput metrics:
//
//	upd/s      update operations per second
//	scanelts/s elements visited by concurrent scan threads per second
//
// Run with: go test -bench=. -benchmem
//
// This file is an external test package (pmago_test): internal/bench
// imports pmago for the Section 6 graph driver, so an in-package test here
// would be an import cycle.
package pmago_test

import (
	"math/rand"
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

// BenchmarkShardedScan prices the straw2 merge: 65 536-key windows over
// 2^22 random-value pairs (keys 0..2^22-1), in one store, in 4 straw2 shards
// (each window a merge of four cursors) and in 4 range shards (the shards
// walked in key order, no merge). ns/pair is the figure to compare; the
// straw2 row over the one-store row is what a merge costs.
func BenchmarkShardedScan(b *testing.B) {
	const n, window = 1 << 22, 1 << 16
	keys, vals := make([]int64, n), make([]int64, n)
	rng := rand.New(rand.NewSource(1))
	for i := range keys {
		keys[i], vals[i] = int64(i), int64(rng.Uint64())
	}
	for _, c := range []struct {
		name string
		load func() (pmago.Store, func(), error)
	}{
		{"one-store", func() (pmago.Store, func(), error) {
			p, err := pmago.BulkLoad(keys, vals)
			if err != nil {
				return nil, nil, err
			}
			return p, p.Close, nil
		}},
		{"straw2-4", func() (pmago.Store, func(), error) {
			s, err := pmago.BulkLoadSharded(keys, vals, pmago.WithShards(4))
			if err != nil {
				return nil, nil, err
			}
			return s, func() { s.Close() }, nil
		}},
		{"range-4", func() (pmago.Store, func(), error) {
			s, err := pmago.BulkLoadSharded(keys, vals, pmago.WithRangeSplits([]int64{n / 4, n / 2, 3 * n / 4}))
			if err != nil {
				return nil, nil, err
			}
			return s, func() { s.Close() }, nil
		}},
	} {
		b.Run(c.name, func(b *testing.B) {
			st, closeStore, err := c.load()
			if err != nil {
				b.Fatal(err)
			}
			defer closeStore()
			pairs := 0
			los := rand.New(rand.NewSource(2))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				lo := los.Int63n(n - window)
				st.Scan(lo, lo+window-1, func(_, _ int64) bool {
					pairs++
					return true
				})
			}
			b.StopTimer()
			if pairs != b.N*window {
				b.Fatalf("%d windows visited %d pairs, want %d", b.N, pairs, b.N*window)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(pairs), "ns/pair")
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
