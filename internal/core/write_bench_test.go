package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"pmago/internal/obs"
)

// BenchmarkLoneWriter prices the uncontended point-update path per mode: one
// goroutine, a store preloaded with n even keys, rounds of 4096 Puts of fresh
// odd keys followed by their 4096 Deletes (the benchmark module's rw writer,
// without its reader). One op is one Put or one Delete. The async modes must
// report 0 allocs/op and stay close to ModeSync: nobody combines with a lone
// writer, so the queue should cost it a flag and a mutex trip.
func BenchmarkLoneWriter(b *testing.B) {
	for _, n := range []int{1 << 16, 1 << 22} {
		keys := make([]int64, n)
		vals := make([]int64, n)
		for i := range keys {
			keys[i] = int64(i) * 2
			vals[i] = int64(i)
		}
		for _, mode := range allModes() {
			b.Run(fmt.Sprintf("%v/pairs=%d", mode, n), func(b *testing.B) {
				cfg := DefaultConfig()
				cfg.Mode = mode
				p, err := BulkLoad(cfg, keys, vals)
				if err != nil {
					b.Fatal(err)
				}
				defer p.Close()
				const round = 4096
				var fresh [round]int64
				rng := uint64(1)
				b.ReportAllocs()
				b.ResetTimer()
				for done := 0; done < b.N; {
					for i := range fresh {
						rng = rng*6364136223846793005 + 1442695040888963407
						fresh[i] = int64(rng>>16%uint64(n))*2 + 1
					}
					for i := 0; i < round && done < b.N; i, done = i+1, done+1 {
						p.Put(fresh[i], 1)
					}
					for i := 0; i < round && done < b.N; i, done = i+1, done+1 {
						p.Delete(fresh[i])
					}
				}
			})
		}
	}
}

// BenchmarkPutBatchClustered prices the batch path as the benchmark module's
// ingest drives it, per layout: a store preloaded with n jittered even keys
// takes batches of 1024 odd keys in clusters of 32, each cluster's position
// drawn from a Zipf(1.1) over 65536 key ranges so hot segments fill up and
// are hit again and again. Only the PutBatch is timed; once the batches have
// added n/4 keys the store is loaded afresh, so it stays between n and 1.25n
// pairs however long the run. ns/key is the figure to compare; global/batch,
// local/batch and resizes/batch count the rebalances behind it, summed over
// every store a run loads.
func BenchmarkPutBatchClustered(b *testing.B) {
	const batch, cluster, buckets = 1024, 32, 65536
	for _, n := range []int{1 << 16, 1 << 22} {
		keys, vals := make([]int64, n), make([]int64, n)
		rng := rand.New(rand.NewSource(1))
		for i := range keys {
			keys[i], vals[i] = 16*int64(i)+2*rng.Int63n(8), int64(rng.Uint64())
		}
		span := 16 * int64(n)
		width := max(span/buckets, 1024) // key units a cluster's keys are drawn from
		for _, compressed := range []bool{false, true} {
			layout := "slots"
			if compressed {
				layout = "blocks"
			}
			b.Run(fmt.Sprintf("%s/pairs=%d", layout, n), func(b *testing.B) {
				cfg := DefaultConfig()
				cfg.CompressedChunks = compressed
				var p *PMA
				var reb obs.RebalanceStats // summed over the stores load retires
				tally := func() {
					p.Flush()
					r := p.Stats().Rebalance
					reb.Global += r.Global
					reb.Local += r.Local
					reb.Resizes += r.Resizes
				}
				load := func() {
					if p != nil {
						tally()
						p.Close()
					}
					var err error
					if p, err = BulkLoad(cfg, keys, vals); err != nil {
						b.Fatal(err)
					}
				}
				load()
				defer func() { p.Close() }()
				zipf := rand.NewZipf(rand.New(rand.NewSource(2)), 1.1, 1, buckets-1)
				ks, vs := make([]int64, 0, batch), make([]int64, batch)
				for i := range vs {
					vs[i] = int64(rng.Uint64())
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					if i > 0 && i%(n/4/batch) == 0 {
						load()
					}
					ks = ks[:0]
					for len(ks) < batch {
						base := int64(zipf.Uint64()*40503%buckets) * (span / buckets)
						for j := 0; j < cluster; j++ {
							ks = append(ks, (base+rng.Int63n(width))%span|1)
						}
					}
					slices.Sort(ks)
					b.StartTimer()
					p.PutBatch(ks, vs)
				}
				b.StopTimer()
				tally()
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batch), "ns/key")
				b.ReportMetric(float64(reb.Global)/float64(b.N), "global/batch")
				b.ReportMetric(float64(reb.Local)/float64(b.N), "local/batch")
				b.ReportMetric(float64(reb.Resizes)/float64(b.N), "resizes/batch")
			})
		}
	}
}

// BenchmarkBulkLoad prices BulkLoad of 2^22 ascending pairs with random
// 64-bit values, the benchmark module's preload, per chunk layout: the
// chunk fill and its key check run over Workers goroutines (GOMAXPROCS
// capped at 8, so -cpu sets them). As the benchmark module's set-up does,
// each load runs while the previous store is still alive. Reports ns/pair.
func BenchmarkBulkLoad(b *testing.B) {
	const n = 1 << 22
	rng := rand.New(rand.NewSource(22))
	keys, vals := make([]int64, n), make([]int64, n)
	for i := range keys {
		keys[i] = int64(i)*16 + 2*rng.Int63n(8)
		vals[i] = int64(rng.Uint64())
	}
	for _, compressed := range []bool{false, true} {
		name := "slots"
		if compressed {
			name = "blocks"
		}
		b.Run(name, func(b *testing.B) {
			cfg := DefaultConfig()
			cfg.CompressedChunks = compressed
			var prev *PMA
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p, err := BulkLoad(cfg, keys, vals)
				if err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				if prev != nil {
					prev.Close()
				}
				prev = p
				b.StartTimer()
			}
			b.StopTimer()
			prev.Close()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/pair")
		})
	}
}
