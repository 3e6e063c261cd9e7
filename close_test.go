package pmago_test

import (
	"runtime"
	"testing"
	"time"

	"pmago"
)

// TestCloseStopsGoroutines pins that a store runs goroutines only while it
// is open: after Close the process is back to the goroutine count it had
// before the store was built — the rebalancer's master and workers, a
// durable store's flusher and every shard's services all exit. A leftover
// from an earlier test may still be winding down, so the count need only
// return to at most its starting value, within a deadline.
func TestCloseStopsGoroutines(t *testing.T) {
	cases := []struct {
		name string
		open func(t *testing.T) (put func(k, v int64), close func() error)
	}{
		{"mem", func(t *testing.T) (func(k, v int64), func() error) {
			p, err := pmago.New()
			if err != nil {
				t.Fatal(err)
			}
			return p.Put, func() error { p.Close(); return nil }
		}},
		{"mem-compressed", func(t *testing.T) (func(k, v int64), func() error) {
			p, err := pmago.New(pmago.WithCompressedChunks())
			if err != nil {
				t.Fatal(err)
			}
			return p.Put, func() error { p.Close(); return nil }
		}},
		{"durable", func(t *testing.T) (func(k, v int64), func() error) {
			db, err := pmago.Open(t.TempDir(), pmago.WithFsync(pmago.FsyncInterval))
			if err != nil {
				t.Fatal(err)
			}
			return db.Put, db.Close
		}},
		{"sharded", func(t *testing.T) (func(k, v int64), func() error) {
			s, err := pmago.NewSharded(pmago.WithShards(4))
			if err != nil {
				t.Fatal(err)
			}
			return s.Put, s.Close
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			put, closeStore := tc.open(t)
			for k := int64(0); k < 1<<12; k++ {
				put(k, k)
			}
			if n := runtime.NumGoroutine(); n <= before {
				t.Fatalf("%d goroutines with the store open, %d before: it started none", n, before)
			}
			if err := closeStore(); err != nil {
				t.Fatal(err)
			}
			n := runtime.NumGoroutine()
			for deadline := time.Now().Add(5 * time.Second); n > before && time.Now().Before(deadline); {
				time.Sleep(time.Millisecond)
				n = runtime.NumGoroutine()
			}
			if n > before {
				t.Fatalf("%d goroutines after Close, %d before the store was built", n, before)
			}
		})
	}
}
