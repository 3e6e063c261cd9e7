package core

import (
	"runtime"
	"sync/atomic"
	"testing"
)

// BenchmarkGetRandom measures random point Gets of stored keys on one
// goroutine (run it at -cpu 1): what one Get costs end to end. The uniform
// cells load the benchmark harness's key shape, key i = 16*i + 2*(mix(i)&7):
// 2^16 pairs sit in the L2 cache, 2^22 pairs are where every level misses.
// The clustered cell stores runs of 48 consecutive keys 10^9 apart, so
// every segment straddles a gap: the bad case for the interpolating segment
// search (seekSeg). latched and metrics-off are the comparison cells: the
// shared-latch path, and the observability overhead guard, which must stay
// within a few percent of uniform. writer reads on every other gate while a
// goroutine overwrites values on the gates between them, so it prices a
// reader beside a writer it never conflicts with. Every cell runs
// allocation-free (TestGetDoesNotAllocate pins the same); CI greps the
// metrics-off cell for it.
func BenchmarkGetRandom(b *testing.B) {
	uniform := func(i int64) int64 { return 16*i + 2*int64(splitmix(uint64(i))&7) }
	clustered := func(i int64) int64 { return i/48*1e9 + i%48 }
	for _, c := range []struct {
		name   string
		n      int64
		key    func(i int64) int64
		mutate func(*Config)
		writer bool
	}{
		{name: "uniform-64Ki", n: 1 << 16, key: uniform},
		{name: "uniform-4Mi", n: 1 << 22, key: uniform},
		{name: "clustered-4Mi", n: 1 << 22, key: clustered},
		{name: "latched-4Mi", n: 1 << 22, key: uniform, mutate: func(c *Config) { c.DisableOptimisticReads = true }},
		{name: "metrics-off-64Ki", n: 1 << 16, key: uniform, mutate: func(c *Config) { c.DisableMetrics = true }},
		{name: "writer-64Ki", n: 1 << 16, key: uniform, writer: true},
	} {
		var p *PMA
		b.Run(c.name, func(b *testing.B) {
			if p == nil { // b.Run calls this once per b.N: load once
				cfg := DefaultConfig()
				if c.mutate != nil {
					c.mutate(&cfg)
				}
				p = loadKeys(b, cfg, c.n, c.key)
			}
			if c.writer {
				benchGetBesideWriter(b, p, c.n, c.key)
				return
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i, rng := 0, uint64(1); i < b.N; i++ {
				rng = rng*6364136223846793005 + 1442695040888963407
				if _, ok := p.Get(c.key(int64((rng >> 16) % uint64(c.n)))); !ok {
					b.Fatal("stored key missing")
				}
			}
		})
		if p != nil {
			p.Close()
		}
	}
}

// benchGetBesideWriter is the writer cell: readers (b.RunParallel) Get keys
// of the even gates while one goroutine overwrites the values of keys on the
// odd gates. Overwrites change no structure, so the two sets of gates stay
// disjoint for the whole run.
func benchGetBesideWriter(b *testing.B, p *PMA, n int64, key func(int64) int64) {
	st := p.state.Load()
	var reads, writes []int64
	for i := int64(0); i < n; i++ {
		k := key(i)
		if st.gates[st.route(k)].idx%2 == 0 {
			reads = append(reads, k)
		} else {
			writes = append(writes, k)
		}
	}
	if len(reads) == 0 || len(writes) == 0 {
		b.Fatal("the store spans a single gate")
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			p.Put(writes[i%len(writes)], int64(i))
		}
	}()
	b.ReportAllocs()
	b.ResetTimer()
	var seeds atomic.Uint64
	b.RunParallel(func(pb *testing.PB) {
		rng := splitmix(seeds.Add(1))
		for pb.Next() {
			rng = rng*6364136223846793005 + 1442695040888963407
			if _, ok := p.Get(reads[(rng>>16)%uint64(len(reads))]); !ok {
				b.Error("stored key missing")
				return
			}
		}
	})
	b.StopTimer()
	close(stop)
	<-done
}

// loadKeys bulk-loads key(0) < ... < key(n-1), each its own value, and
// collects the input before returning, so a benchmark's heap is the store's.
func loadKeys(tb testing.TB, cfg Config, n int64, key func(int64) int64) *PMA {
	keys := make([]int64, n)
	for i := range keys {
		keys[i] = key(int64(i))
	}
	p, err := BulkLoad(cfg, keys, keys)
	if err != nil {
		tb.Fatal(err)
	}
	runtime.GC()
	return p
}

// splitmix is the splitmix64 finalizer the benchmark harness draws its key
// jitter from.
func splitmix(x uint64) uint64 {
	z := x * 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// TestGetDoesNotAllocate pins the read path's zero-allocation contract in
// both metrics modes and both chunk layouts: the striped counters increment
// in place (the stripe index comes from a stack address, not a heap handle),
// the disabled path is a single nil check, and a compressed Get seeks the
// encoded block with no scratch at all. CI asserts the same property on the
// output of BenchmarkGetRandom/metrics-off-64Ki.
func TestGetDoesNotAllocate(t *testing.T) {
	for _, tc := range []struct {
		name                string
		disable, compressed bool
	}{{"metrics-on", false, false}, {"metrics-off", true, false}, {"compressed", false, true}} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.DisableMetrics = tc.disable
			cfg.CompressedChunks = tc.compressed
			const n = 1 << 12
			keys := make([]int64, n)
			vals := make([]int64, n)
			for i := range keys {
				keys[i] = int64(i)*2 + 1
				vals[i] = keys[i]
			}
			p, err := BulkLoad(cfg, keys, vals)
			if err != nil {
				t.Fatal(err)
			}
			defer p.Close()
			rng := int64(1)
			avg := testing.AllocsPerRun(1000, func() {
				rng = rng*6364136223846793005 + 1442695040888963407
				p.Get(keys[(uint64(rng)>>16)%uint64(n)])
			})
			if avg != 0 {
				t.Errorf("Get allocates %.2f objects/op, want 0", avg)
			}
		})
	}
}
