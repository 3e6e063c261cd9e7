package pmago

import (
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"
)

func newTest(t *testing.T, opts ...Option) *PMA {
	t.Helper()
	opts = append([]Option{WithTDelay(0), withWorkers(2)}, opts...)
	p, err := New(opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	return p
}

func TestPublicAPIBasics(t *testing.T) {
	p := newTest(t)
	p.Put(10, 100)
	p.Put(20, 200)
	p.Flush()
	if v, ok := p.Get(10); !ok || v != 100 {
		t.Fatalf("Get = %d,%v", v, ok)
	}
	var keys []int64
	p.Scan(0, 100, func(k, _ int64) bool { keys = append(keys, k); return true })
	if len(keys) != 2 || keys[0] != 10 || keys[1] != 20 {
		t.Fatalf("scan = %v", keys)
	}
	if !p.Delete(10) {
		t.Fatal("delete failed")
	}
	p.Flush()
	if p.Len() != 1 {
		t.Fatalf("Len = %d", p.Len())
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestAllModesThroughPublicAPI(t *testing.T) {
	for _, m := range []Mode{ModeSync, ModeOneByOne, ModeBatch} {
		p := newTest(t, WithMode(m))
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(w)))
				for i := 0; i < 5_000; i++ {
					p.Put(int64(rng.Intn(3_000)), int64(i))
				}
			}(w)
		}
		wg.Wait()
		p.Flush()
		if err := p.Validate(); err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		prev := int64(-1)
		p.ScanAll(func(k, _ int64) bool {
			if k <= prev {
				t.Fatalf("%v: order violation", m)
			}
			prev = k
			return true
		})
	}
}

func TestOptionsApply(t *testing.T) {
	p := newTest(t, WithMode(ModeBatch), WithSegmentCapacity(64),
		withSegmentsPerGate(4), WithTDelay(time.Millisecond))
	for i := int64(0); i < 10_000; i++ {
		p.Put(i, i)
	}
	p.Flush()
	if p.Len() != 10_000 {
		t.Fatalf("Len = %d", p.Len())
	}
	if p.Stats().Rebalance.Resizes == 0 {
		t.Fatal("no resizes despite small segments")
	}
}

func TestInvalidOptionRejected(t *testing.T) {
	if _, err := New(WithSegmentCapacity(7)); err == nil {
		t.Fatal("non-power-of-two segment capacity accepted")
	}
}

func TestGraphPublicAPI(t *testing.T) {
	g, err := NewGraph(WithTDelay(0), withWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	// Small ring with chords, concurrent writers.
	var wg sync.WaitGroup
	const n = 64
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < n; i += 4 {
				g.AddEdge(uint32(i), uint32((i+1)%n), 1)
				g.AddEdge(uint32(i), uint32((i+7)%n), 1)
			}
		}(w)
	}
	wg.Wait()
	g.Flush()
	if g.EdgeCount() != 2*n {
		t.Fatalf("EdgeCount = %d", g.EdgeCount())
	}
	dist := g.BFS(0)
	if len(dist) != n {
		t.Fatalf("BFS reached %d vertices", len(dist))
	}
	pr := g.PageRank(5, 0.85)
	sum := 0.0
	for _, r := range pr {
		sum += r
	}
	if sum < 0.99 || sum > 1.01 {
		t.Fatalf("PageRank sum = %f", sum)
	}
	var ds []uint32
	g.Neighbors(0, func(d uint32, _ int64) bool { ds = append(ds, d); return true })
	if !sort.SliceIsSorted(ds, func(i, j int) bool { return ds[i] < ds[j] }) {
		t.Fatal("neighbors unsorted")
	}
}

func TestPublicBatchAPI(t *testing.T) {
	p := newTest(t)
	keys := []int64{9, 3, 7, 3, 1}
	vals := []int64{90, 30, 70, 31, 10}
	p.PutBatch(keys, vals)
	var got []int64
	p.ScanAll(func(k, _ int64) bool { got = append(got, k); return true })
	want := []int64{1, 3, 7, 9}
	if len(got) != len(want) {
		t.Fatalf("keys = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("keys = %v, want %v", got, want)
		}
	}
	if v, ok := p.Get(3); !ok || v != 31 {
		t.Fatalf("Get(3) = %d,%v: duplicate did not collapse to last", v, ok)
	}
	if n := p.DeleteBatch([]int64{3, 9, 100}); n != 2 {
		t.Fatalf("DeleteBatch = %d, want 2", n)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestPublicBulkLoad(t *testing.T) {
	const n = 100_000
	keys := make([]int64, n)
	vals := make([]int64, n)
	for i := range keys {
		keys[i] = int64(i) * 2
		vals[i] = int64(i)
	}
	p, err := BulkLoad(keys, vals, WithMode(ModeSync))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if p.Len() != n {
		t.Fatalf("Len = %d, want %d", p.Len(), n)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if v, ok := p.Get(keys[n/2]); !ok || v != vals[n/2] {
		t.Fatalf("Get mid = %d,%v", v, ok)
	}
	// Ordered scan across a range boundary.
	count := 0
	p.Scan(100, 200, func(k, v int64) bool { count++; return true })
	if count != 51 {
		t.Fatalf("Scan count = %d, want 51", count)
	}
}
