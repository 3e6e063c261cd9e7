package core

import (
	"fmt"
	"testing"
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
