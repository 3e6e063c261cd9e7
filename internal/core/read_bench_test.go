package core

import "testing"

// benchGet measures single-threaded random Get over a 1M-element store —
// the uncontended comparison between the seqlock fast path and the
// shared-latch baseline (the multi-threaded mixes live in
// internal/bench/reads.go behind `pmabench -experiment reads`). The
// metricsOff variant is the observability overhead guard: it must stay
// within a few percent of the default (metrics-on) cell, and both must run
// allocation-free (TestGetDoesNotAllocate pins that).
func benchGet(b *testing.B, mutate func(*Config)) {
	cfg := DefaultConfig()
	mutate(&cfg)
	const n = 1 << 20
	keys := make([]int64, n)
	vals := make([]int64, n)
	for i := range keys {
		keys[i] = int64(i)*2 + 1
		vals[i] = keys[i]
	}
	p, err := BulkLoad(cfg, keys, vals)
	if err != nil {
		b.Fatal(err)
	}
	defer p.Close()
	b.ReportAllocs()
	b.ResetTimer()
	rng := int64(1)
	for i := 0; i < b.N; i++ {
		rng = rng*6364136223846793005 + 1442695040888963407
		k := keys[(uint64(rng)>>16)%uint64(n)]
		p.Get(k)
	}
}

func BenchmarkGetOptimistic(b *testing.B) { benchGet(b, func(*Config) {}) }
func BenchmarkGetLatched(b *testing.B) {
	benchGet(b, func(c *Config) { c.DisableOptimisticReads = true })
}
func BenchmarkGetMetricsOff(b *testing.B) {
	benchGet(b, func(c *Config) { c.DisableMetrics = true })
}

// TestGetDoesNotAllocate pins the read path's zero-allocation contract in
// both metrics modes and both chunk layouts: the striped counters increment
// in place (the stripe index comes from a stack address, not a heap handle),
// the disabled path is a single nil check, and a compressed Get seeks the
// encoded block with no scratch at all. CI asserts the same property on the
// BenchmarkGetMetricsOff output.
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
