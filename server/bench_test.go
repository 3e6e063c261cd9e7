package server_test

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"pmago"
	"pmago/client"
	"pmago/server"
)

// BenchmarkGroupCommit prices a synchronous Put through client, loopback
// TCP and server into an FsyncAlways store. Each client keeps one request
// in flight, so any drain of more than one op holds other clients' writes:
// ops/drain (Stats().Server.CommitOps) is what cross-client group commit
// shares one WAL append and one fsync across.
func BenchmarkGroupCommit(b *testing.B) {
	for _, clients := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("clients=%d", clients), func(b *testing.B) {
			db, err := pmago.Open(b.TempDir(), pmago.WithFsync(pmago.FsyncAlways), pmago.WithCompactRatio(0))
			if err != nil {
				b.Fatal(err)
			}
			defer db.Close()
			srv, addr := startServer(b, db, server.Options{})
			conns := make([]*client.Client, clients)
			for i := range conns {
				if conns[i], err = client.Dial(addr, client.Options{}); err != nil {
					b.Fatal(err)
				}
				defer conns[i].Close()
			}
			var next atomic.Int64
			var wg sync.WaitGroup
			b.ResetTimer()
			for _, cl := range conns {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := next.Add(1); i <= int64(b.N); i = next.Add(1) {
						if err := cl.Put(i, i); err != nil {
							b.Error(err)
							return
						}
					}
				}()
			}
			wg.Wait()
			b.StopTimer()
			co := srv.Stats().Server.CommitOps
			b.ReportMetric(float64(co.Sum)/float64(co.Count), "ops/drain")
			srv.Close()
			if err := db.Close(); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// BenchmarkServedScan prices a whole-store scan of 2^16 pairs through
// server, loopback TCP and client, the scan the benchmark's served workload
// runs long windows of: ns/pair is a served pair's cost, B/op what one scan
// allocates on both sides of the socket.
func BenchmarkServedScan(b *testing.B) {
	const n = 1 << 16
	rng := rand.New(rand.NewSource(1))
	keys, vals := make([]int64, n), make([]int64, n)
	for i := range keys {
		keys[i], vals[i] = int64(16*i), int64(rng.Uint64())
	}
	p, err := pmago.BulkLoad(keys, vals)
	if err != nil {
		b.Fatal(err)
	}
	defer p.Close()
	_, addr := startServer(b, p, server.Options{})
	cl, err := client.Dial(addr, client.Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer cl.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		got := 0
		if err := cl.Scan(pmago.KeyMin+1, pmago.KeyMax-1, func(k, v int64) bool { got++; return true }); err != nil || got != n {
			b.Fatalf("scan delivered %d of %d pairs: %v", got, n, err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/pair")
}
