package core

import (
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"
)

// testConfig uses tiny segments and chunks so rebalances, gates and resizes
// are exercised by small tests.
func testConfig(mode Mode) Config {
	cfg := DefaultConfig()
	cfg.SegmentCapacity = 8
	cfg.SegmentsPerGate = 2
	cfg.Mode = mode
	cfg.TDelay = 0
	cfg.Workers = 2
	return cfg
}

func newTest(t *testing.T, mode Mode) *PMA {
	t.Helper()
	p, err := New(testConfig(mode))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	return p
}

func allModes() []Mode { return []Mode{ModeSync, ModeOneByOne, ModeBatch} }

func TestEmpty(t *testing.T) {
	for _, mode := range allModes() {
		p := newTest(t, mode)
		if p.Len() != 0 {
			t.Fatalf("%v: Len = %d", mode, p.Len())
		}
		if _, ok := p.Get(42); ok {
			t.Fatalf("%v: Get on empty returned ok", mode)
		}
		count := 0
		p.ScanAll(func(_, _ int64) bool { count++; return true })
		if count != 0 {
			t.Fatalf("%v: scan of empty visited %d", mode, count)
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
	}
}

func TestSequentialInsertGrowth(t *testing.T) {
	for _, mode := range allModes() {
		p := newTest(t, mode)
		const n = 20_000
		for i := int64(1); i <= n; i++ {
			p.Put(i, i*2)
		}
		p.Flush()
		if p.Len() != n {
			t.Fatalf("%v: Len = %d, want %d", mode, p.Len(), n)
		}
		if p.NumGates() < 2 {
			t.Fatalf("%v: array never grew beyond one gate", mode)
		}
		for i := int64(1); i <= n; i += 97 {
			v, ok := p.Get(i)
			if !ok || v != i*2 {
				t.Fatalf("%v: Get(%d) = %d,%v", mode, i, v, ok)
			}
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
	}
}

func TestDescendingInsert(t *testing.T) {
	for _, mode := range allModes() {
		p := newTest(t, mode)
		const n = 10_000
		for i := int64(n); i >= 1; i-- {
			p.Put(i, -i)
		}
		p.Flush()
		keys := p.Keys()
		if len(keys) != n {
			t.Fatalf("%v: %d keys, want %d", mode, len(keys), n)
		}
		for i, k := range keys {
			if k != int64(i+1) {
				t.Fatalf("%v: keys[%d] = %d", mode, i, k)
			}
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
	}
}

func TestUpsert(t *testing.T) {
	for _, mode := range allModes() {
		p := newTest(t, mode)
		for i := 0; i < 100; i++ {
			p.Put(7, int64(i))
		}
		p.Flush()
		if p.Len() != 1 {
			t.Fatalf("%v: Len = %d, want 1", mode, p.Len())
		}
		if v, _ := p.Get(7); v != 99 {
			t.Fatalf("%v: Get(7) = %d, want 99", mode, v)
		}
	}
}

func TestDeleteShrinks(t *testing.T) {
	for _, mode := range allModes() {
		p := newTest(t, mode)
		const n = 20_000
		for i := int64(0); i < n; i++ {
			p.Put(i, i)
		}
		p.Flush()
		grown := p.Capacity()
		for i := int64(0); i < n; i++ {
			p.Delete(i)
		}
		p.Flush()
		// Shrink requests are asynchronous hints; give the master a
		// moment and nudge it by flushing again.
		deadline := time.Now().Add(10 * time.Second)
		for p.Capacity() >= grown && time.Now().Before(deadline) {
			p.Flush()
			time.Sleep(time.Millisecond)
		}
		if p.Len() != 0 {
			t.Fatalf("%v: Len = %d after deleting all", mode, p.Len())
		}
		if p.Capacity() >= grown {
			t.Fatalf("%v: capacity %d never shrank from %d", mode, p.Capacity(), grown)
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		// Still usable.
		p.Put(5, 50)
		p.Flush()
		if v, ok := p.Get(5); !ok || v != 50 {
			t.Fatalf("%v: reuse after erasure failed", mode)
		}
	}
}

func TestScanRange(t *testing.T) {
	for _, mode := range allModes() {
		p := newTest(t, mode)
		for i := int64(0); i < 5000; i++ {
			p.Put(i*10, i)
		}
		p.Flush()
		var got []int64
		p.Scan(95, 205, func(k, _ int64) bool { got = append(got, k); return true })
		want := []int64{100, 110, 120, 130, 140, 150, 160, 170, 180, 190, 200}
		if len(got) != len(want) {
			t.Fatalf("%v: scan got %v", mode, got)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%v: scan[%d] = %d want %d", mode, i, got[i], want[i])
			}
		}
		// Early stop.
		count := 0
		p.ScanAll(func(_, _ int64) bool { count++; return count < 7 })
		if count != 7 {
			t.Fatalf("%v: early stop visited %d", mode, count)
		}
	}
}

func TestRandomModelSequential(t *testing.T) {
	for _, mode := range allModes() {
		p := newTest(t, mode)
		model := map[int64]int64{}
		rng := rand.New(rand.NewSource(11))
		for i := 0; i < 50_000; i++ {
			k := int64(rng.Intn(3000))
			if rng.Intn(10) < 3 {
				delete(model, k)
				p.Delete(k)
			} else {
				v := rng.Int63()
				model[k] = v
				p.Put(k, v)
			}
		}
		p.Flush()
		checkModel(t, p, model, mode.String())
	}
}

func checkModel(t *testing.T, p *PMA, model map[int64]int64, label string) {
	t.Helper()
	if p.Len() != len(model) {
		t.Fatalf("%s: Len = %d, model %d", label, p.Len(), len(model))
	}
	want := make([]int64, 0, len(model))
	for k := range model {
		want = append(want, k)
	}
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	var got []int64
	ok := true
	p.ScanAll(func(k, v int64) bool {
		if model[k] != v {
			ok = false
		}
		got = append(got, k)
		return true
	})
	if !ok {
		t.Fatalf("%s: scan saw a wrong value", label)
	}
	if len(got) != len(want) {
		t.Fatalf("%s: scan %d keys, want %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: key[%d] = %d, want %d", label, i, got[i], want[i])
		}
	}
	if err := p.Validate(); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
}

func TestConcurrentDisjointInserts(t *testing.T) {
	for _, mode := range allModes() {
		p := newTest(t, mode)
		const workers = 8
		const per = 5_000
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				base := int64(w * per)
				for i := int64(0); i < per; i++ {
					p.Put(base+i, base+i)
				}
			}(w)
		}
		wg.Wait()
		p.Flush()
		if p.Len() != workers*per {
			t.Fatalf("%v: Len = %d, want %d", mode, p.Len(), workers*per)
		}
		prev := int64(-1)
		count := 0
		p.ScanAll(func(k, v int64) bool {
			if k != prev+1 || v != k {
				t.Errorf("%v: unexpected pair %d/%d after %d", mode, k, v, prev)
				return false
			}
			prev = k
			count++
			return true
		})
		if count != workers*per {
			t.Fatalf("%v: scan visited %d", mode, count)
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
	}
}

func TestConcurrentSkewedInserts(t *testing.T) {
	// All writers hammer the same small key range: the combining-queue
	// worst case.
	for _, mode := range allModes() {
		p := newTest(t, mode)
		const workers = 8
		const per = 4_000
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(w)))
				for i := 0; i < per; i++ {
					k := int64(rng.Intn(2000))
					p.Put(k, k*10)
				}
			}(w)
		}
		wg.Wait()
		p.Flush()
		seen := map[int64]bool{}
		okVals := true
		p.ScanAll(func(k, v int64) bool {
			if v != k*10 {
				okVals = false
			}
			seen[k] = true
			return true
		})
		if !okVals {
			t.Fatalf("%v: wrong value observed", mode)
		}
		if len(seen) != p.Len() {
			t.Fatalf("%v: scan saw %d distinct keys, Len = %d", mode, len(seen), p.Len())
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
	}
}

func TestConcurrentMixedWithScans(t *testing.T) {
	for _, mode := range allModes() {
		p := newTest(t, mode)
		stop := make(chan struct{})
		var scans sync.WaitGroup
		for s := 0; s < 2; s++ {
			scans.Add(1)
			go func() {
				defer scans.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					prev := int64(-1 << 62)
					p.ScanAll(func(k, _ int64) bool {
						if k <= prev {
							t.Errorf("%v: scan order violation %d after %d", mode, k, prev)
							return false
						}
						prev = k
						return true
					})
				}
			}()
		}
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(100 + w)))
				for i := 0; i < 8_000; i++ {
					k := int64(rng.Intn(10_000))
					switch rng.Intn(4) {
					case 0:
						p.Delete(k)
					case 1:
						p.Get(k)
					default:
						p.Put(k, k)
					}
				}
			}(w)
		}
		wg.Wait()
		close(stop)
		scans.Wait()
		p.Flush()
		if err := p.Validate(); err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
	}
}

func TestCombiningHappensUnderSkew(t *testing.T) {
	cfg := testConfig(ModeBatch)
	cfg.TDelay = time.Millisecond
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 5_000; i++ {
				p.Put(int64(rng.Intn(500)), 1)
			}
		}(w)
	}
	wg.Wait()
	p.Flush()
	if p.Stats().Updates.CombinedOps == 0 {
		t.Fatal("no updates were ever combined under heavy skew")
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestTDelayDefersBatches(t *testing.T) {
	cfg := testConfig(ModeBatch)
	cfg.TDelay = time.Hour // effectively forever; only Flush can force them
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 20_000; i++ {
				p.Put(int64(w*1_000_000+i), 1) // contiguous: forces rebalances
			}
		}(w)
	}
	wg.Wait()
	p.Flush()
	if p.Len() != 80_000 {
		t.Fatalf("Len = %d after Flush, want 80000", p.Len())
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestStatsCounters(t *testing.T) {
	p := newTest(t, ModeSync)
	for i := int64(0); i < 30_000; i++ {
		p.Put(i, i)
	}
	st := p.Stats()
	if st.Rebalance.Resizes == 0 {
		t.Error("no resizes recorded")
	}
	if st.Rebalance.Local == 0 {
		t.Error("no local rebalances recorded")
	}
	if st.Rebalance.Global == 0 {
		t.Error("no global rebalances recorded")
	}
}

func TestGetWhileGrowing(t *testing.T) {
	p := newTest(t, ModeSync)
	const n = 30_000
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := int64(0); i < n; i++ {
			p.Put(i, i)
		}
	}()
	// Readers chase the writer across many resizes.
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 20_000; i++ {
				k := int64(rng.Intn(n))
				if v, ok := p.Get(k); ok && v != k {
					t.Errorf("Get(%d) = %d", k, v)
					return
				}
			}
		}(int64(r))
	}
	wg.Wait()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestLargeValuesAndNegativeKeys(t *testing.T) {
	p := newTest(t, ModeSync)
	for i := int64(-5000); i <= 5000; i++ {
		p.Put(i, i<<40)
	}
	if p.Len() != 10_001 {
		t.Fatalf("Len = %d", p.Len())
	}
	for _, k := range []int64{-5000, -1, 0, 1, 5000} {
		v, ok := p.Get(k)
		if !ok || v != k<<40 {
			t.Fatalf("Get(%d) = %d,%v", k, v, ok)
		}
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestSentinelRejected(t *testing.T) {
	p := newTest(t, ModeSync)
	defer func() {
		if recover() == nil {
			t.Fatal("sentinel Put did not panic")
		}
	}()
	p.Put(-1<<63, 0)
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{SegmentCapacity: 3, SegmentsPerGate: 8},
		{SegmentCapacity: 8, SegmentsPerGate: 3},
		{SegmentCapacity: 8, SegmentsPerGate: 16},
		{SegmentCapacity: 8, SegmentsPerGate: 8, TDelay: -1},
	}
	for i, cfg := range bad {
		cfg.Workers = 1
		if _, err := New(cfg); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
}

func TestCloseIsIdempotent(t *testing.T) {
	p, err := New(testConfig(ModeBatch))
	if err != nil {
		t.Fatal(err)
	}
	p.Put(1, 1)
	p.Close()
	p.Close()
}

func TestFlushOnIdleIsNoop(t *testing.T) {
	p := newTest(t, ModeBatch)
	p.Flush()
	p.Put(1, 1)
	p.Flush()
	p.Flush()
	if v, ok := p.Get(1); !ok || v != 1 {
		t.Fatal("value lost across flushes")
	}
}
