package obs

import (
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestCounterConcurrent hammers one Counter from many goroutines while a
// reader keeps summing it, then checks the quiesced total. Run under -race
// this also proves the striped update path is data-race-free.
func TestCounterConcurrent(t *testing.T) {
	var c Counter
	const (
		goroutines = 8
		perG       = 100000
	)
	stop := make(chan struct{})
	var readerWG sync.WaitGroup
	readerWG.Add(1)
	go func() { // concurrent racy reader: sums may lag but never overshoot
		defer readerWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if v := c.Load(); v > goroutines*perG {
				t.Errorf("Load()=%d exceeds true total %d", v, goroutines*perG)
				return
			}
		}
	}()
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				if i%10 == 0 {
					c.Add(1)
				} else {
					c.Inc()
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	readerWG.Wait()
	if got := c.Load(); got != goroutines*perG {
		t.Fatalf("quiesced Load()=%d, want %d", got, goroutines*perG)
	}
}

// TestHistogramBuckets checks the log2 bucket boundaries exactly.
func TestHistogramBuckets(t *testing.T) {
	var h Histogram
	// One observation per bucket-edge value.
	vals := []uint64{0, 1, 2, 3, 4, 7, 8, 1023, 1024, math.MaxUint64}
	for _, v := range vals {
		h.Observe(v)
	}
	d := h.Snapshot()
	if d.Count != uint64(len(vals)) {
		t.Fatalf("Count=%d want %d", d.Count, len(vals))
	}
	wantSum := uint64(0)
	for _, v := range vals {
		wantSum += v // wraps; Sum wraps identically
	}
	if d.Sum != wantSum {
		t.Fatalf("Sum=%d want %d", d.Sum, wantSum)
	}
	if d.Max != math.MaxUint64 {
		t.Fatalf("Max=%d want MaxUint64", d.Max)
	}
	// Bucket bounds: 0→le 0; 1→le 1; 2,3→le 3; 4,7→le 7; 8→le 15;
	// 1023→le 1023; 1024→le 2047; MaxUint64→le MaxUint64.
	want := map[uint64]uint64{
		0: 1, 1: 1, 3: 2, 7: 2, 15: 1, 1023: 1, 2047: 1, math.MaxUint64: 1,
	}
	if len(d.Buckets) != len(want) {
		t.Fatalf("got %d buckets, want %d: %+v", len(d.Buckets), len(want), d.Buckets)
	}
	var prev uint64
	for i, b := range d.Buckets {
		if n, ok := want[b.Le]; !ok || n != b.N {
			t.Errorf("bucket le=%d n=%d, want n=%d", b.Le, b.N, want[b.Le])
		}
		if i > 0 && b.Le <= prev {
			t.Errorf("buckets not ascending at %d: %d after %d", i, b.Le, prev)
		}
		prev = b.Le
	}
}

// TestHistogramConcurrent observes from many goroutines under -race while
// snapshotting, then validates the quiesced totals.
func TestHistogramConcurrent(t *testing.T) {
	var h Histogram
	const (
		goroutines = 8
		perG       = 50000
	)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	var snapWG sync.WaitGroup
	snapWG.Add(1)
	go func() {
		defer snapWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
				d := h.Snapshot()
				var n uint64
				for _, b := range d.Buckets {
					n += b.N
				}
				// Racy snapshot: bucket totals may lag count or vice versa,
				// but nothing can exceed the true final total.
				if n > goroutines*perG {
					t.Errorf("bucket total %d exceeds true total", n)
					return
				}
			}
		}
	}()
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				h.Observe(uint64(g*perG + i))
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	snapWG.Wait()
	d := h.Snapshot()
	if d.Count != goroutines*perG {
		t.Fatalf("Count=%d want %d", d.Count, goroutines*perG)
	}
	var n uint64
	for _, b := range d.Buckets {
		n += b.N
	}
	if n != d.Count {
		t.Fatalf("bucket total %d != Count %d", n, d.Count)
	}
	if d.Max != goroutines*perG-1 {
		t.Fatalf("Max=%d want %d", d.Max, goroutines*perG-1)
	}
}

func TestHistogramDuration(t *testing.T) {
	var hh Histogram
	hh.ObserveDuration(-time.Second) // clamps to 0
	hh.ObserveDuration(3 * time.Millisecond)
	d := hh.Snapshot()
	if d.Count != 2 || d.Max != uint64(3*time.Millisecond) {
		t.Fatalf("duration snapshot wrong: %+v", d)
	}
	if d.Mean() != float64(3*time.Millisecond)/2 {
		t.Fatalf("Mean=%v", d.Mean())
	}
	if (Distribution{}).Mean() != 0 {
		t.Fatal("empty Mean != 0")
	}
}

func TestDistributionMerge(t *testing.T) {
	var a, b Histogram
	for _, v := range []uint64{1, 5, 100} {
		a.Observe(v)
	}
	for _, v := range []uint64{5, 7, 4000} {
		b.Observe(v)
	}
	m := a.Snapshot().merge(b.Snapshot())
	if m.Count != 6 || m.Sum != 1+5+100+5+7+4000 || m.Max != 4000 {
		t.Fatalf("merge totals wrong: %+v", m)
	}
	var n uint64
	var prev uint64
	for i, bk := range m.Buckets {
		n += bk.N
		if i > 0 && bk.Le <= prev {
			t.Fatalf("merged buckets not ascending: %+v", m.Buckets)
		}
		prev = bk.Le
	}
	if n != m.Count {
		t.Fatalf("merged bucket total %d != Count %d", n, m.Count)
	}
	// le=7 bucket (values 4..7) holds 5,5,7 from both sides.
	for _, bk := range m.Buckets {
		if bk.Le == 7 && bk.N != 3 {
			t.Fatalf("le=7 bucket N=%d want 3", bk.N)
		}
	}
	// Merging into/from empty keeps the other side.
	if got := (Distribution{}).merge(m); got.Count != m.Count {
		t.Fatalf("empty.merge lost data: %+v", got)
	}
	if got := m.merge(Distribution{}); got.Count != m.Count {
		t.Fatalf("merge(empty) lost data: %+v", got)
	}
}

func TestSnapshotMerge(t *testing.T) {
	a := Snapshot{Durable: true}
	a.Reads.GetOptimistic = 10
	a.WAL.Appends = 5
	a.Recovery.Recoveries = 1
	a.Checkpoint.AutoCompactions = 1
	a.Checkpoint.DurationNanos = Distribution{Count: 1, Sum: 5, Max: 5}
	a.Shards = []ShardStats{{Ops: 3}}
	b := Snapshot{}
	b.Reads.GetOptimistic = 7
	b.Checkpoint.AutoCompactions = 2
	b.Checkpoint.DurationNanos = Distribution{Count: 2, Sum: 9, Max: 7}
	b.Shards = []ShardStats{{Ops: 9, BatchKeys: 4}}
	m := a.Merge(b)
	if !m.Durable || m.Reads.GetOptimistic != 17 || m.WAL.Appends != 5 ||
		m.Recovery.Recoveries != 1 || m.Checkpoint.AutoCompactions != 3 ||
		m.Checkpoint.DurationNanos.Count != 3 || m.Checkpoint.DurationNanos.Max != 7 {
		t.Fatalf("merge wrong: %+v", m)
	}
	if len(m.Shards) != 2 || m.Shards[1].BatchKeys != 4 {
		t.Fatalf("shards wrong: %+v", m.Shards)
	}
}

func TestWritePrometheus(t *testing.T) {
	var s Snapshot
	s.Durable = true
	s.Reads.GetOptimistic = 42
	var h Histogram
	h.Observe(uint64(2 * time.Millisecond))
	h.Observe(uint64(130 * time.Millisecond))
	s.WAL.FsyncNanos = h.Snapshot()
	s.Checkpoint.DurationNanos = h.Snapshot()
	s.Checkpoint.AutoCompactions = 1
	s.Shards = []ShardStats{{Ops: 1}, {Ops: 2, BatchKeys: 3}}

	var b strings.Builder
	if err := WritePrometheus(&b, "pmago", s); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE pmago_reads_get_optimistic_total counter\n",
		"pmago_reads_get_optimistic_total 42\n",
		"# TYPE pmago_wal_fsync_duration_seconds histogram\n",
		"pmago_wal_fsync_duration_seconds_bucket{le=\"+Inf\"} 2\n",
		"pmago_wal_fsync_duration_seconds_count 2\n",
		"pmago_checkpoint_duration_seconds_count 2\n",
		"pmago_checkpoint_auto_compactions_total 1\n",
		"# TYPE pmago_rebalance_stall_window_seconds summary\n",
		"# TYPE pmago_rebalance_handoff_wait_seconds summary\n",
		"pmago_shard_ops_total{shard=\"0\"} 1\n",
		"pmago_shard_ops_total{shard=\"1\"} 2\n",
		"pmago_shard_batch_keys_total{shard=\"1\"} 3\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q\n---\n%s", want, out)
		}
	}
	// One TYPE line per family even with two shard series.
	if n := strings.Count(out, "# TYPE pmago_shard_ops_total"); n != 1 {
		t.Errorf("shard_ops_total TYPE lines = %d, want 1", n)
	}
	// Histogram sum is scaled to seconds (132ms = 0.132s).
	if !strings.Contains(out, "pmago_wal_fsync_duration_seconds_sum 0.132\n") {
		t.Errorf("scaled _sum missing\n---\n%s", out)
	}
	// Cumulative buckets ascend: first bucket (le≈0.002s region) is 1.
	if !strings.Contains(out, "} 1\npmago_wal_fsync_duration_seconds_bucket") {
		t.Errorf("cumulative bucket chain wrong\n---\n%s", out)
	}
}
