package core

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"
)

// checkAgainstModel verifies that the PMA holds exactly the model's pairs in
// ascending key order and that every structural invariant holds.
func checkAgainstModel(t *testing.T, p *PMA, model map[int64]int64, label string) {
	t.Helper()
	p.Flush()
	if p.Len() != len(model) {
		t.Fatalf("%s: Len = %d, want %d", label, p.Len(), len(model))
	}
	if err := p.Validate(); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	want := make([]int64, 0, len(model))
	for k := range model {
		want = append(want, k)
	}
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	i := 0
	p.ScanAll(func(k, v int64) bool {
		if i >= len(want) {
			t.Fatalf("%s: scan visited extra key %d", label, k)
		}
		if k != want[i] || v != model[k] {
			t.Fatalf("%s: scan[%d] = %d/%d, want %d/%d", label, i, k, v, want[i], model[want[i]])
		}
		i++
		return true
	})
	if i != len(want) {
		t.Fatalf("%s: scan visited %d keys, want %d", label, i, len(want))
	}
}

func TestPutBatchSorted(t *testing.T) {
	for _, mode := range allModes() {
		p := newTest(t, mode)
		keys := make([]int64, 5000)
		vals := make([]int64, 5000)
		model := map[int64]int64{}
		for i := range keys {
			keys[i] = int64(i) * 3
			vals[i] = int64(i) * 30
			model[keys[i]] = vals[i]
		}
		p.PutBatch(keys, vals)
		checkAgainstModel(t, p, model, mode.String()+"/sorted")
	}
}

func TestPutBatchUnsorted(t *testing.T) {
	for _, mode := range allModes() {
		p := newTest(t, mode)
		rng := rand.New(rand.NewSource(7))
		keys := make([]int64, 4000)
		vals := make([]int64, 4000)
		model := map[int64]int64{}
		for i := range keys {
			keys[i] = rng.Int63n(1 << 40)
			vals[i] = rng.Int63()
			model[keys[i]] = vals[i]
		}
		p.PutBatch(keys, vals)
		checkAgainstModel(t, p, model, mode.String()+"/unsorted")
	}
}

func TestPutBatchDuplicatesLastWins(t *testing.T) {
	p := newTest(t, ModeBatch)
	keys := []int64{5, 1, 5, 3, 1, 5}
	vals := []int64{50, 10, 51, 30, 11, 52}
	p.PutBatch(keys, vals)
	model := map[int64]int64{5: 52, 1: 11, 3: 30}
	checkAgainstModel(t, p, model, "duplicates")
}

func TestPutBatchUpsertsExisting(t *testing.T) {
	for _, mode := range allModes() {
		p := newTest(t, mode)
		keys := make([]int64, 3000)
		vals := make([]int64, 3000)
		model := map[int64]int64{}
		for i := range keys {
			keys[i] = int64(i)
			vals[i] = 1
			model[keys[i]] = 1
		}
		p.PutBatch(keys, vals)
		// Re-put every key with a new value: pure replaces, no growth.
		for i := range vals {
			vals[i] = 2
			model[keys[i]] = 2
		}
		p.Flush()
		before := p.Len()
		p.PutBatch(keys, vals)
		p.Flush()
		if p.Len() != before {
			t.Fatalf("%v: upsert batch changed Len %d -> %d", mode, before, p.Len())
		}
		checkAgainstModel(t, p, model, mode.String()+"/upsert")
	}
}

func TestPutBatchSpanningManyGates(t *testing.T) {
	p := newTest(t, ModeBatch)
	// Grow the array so a later batch spans a large number of gates.
	base := make([]int64, 40_000)
	for i := range base {
		base[i] = int64(i) * 10
	}
	p.PutBatch(base, base)
	p.Flush()
	if g := p.NumGates(); g < 32 {
		t.Fatalf("want many gates after load, got %d", g)
	}
	model := map[int64]int64{}
	for _, k := range base {
		model[k] = k
	}
	// Interleaved fresh keys hit every gate in one batch.
	keys := make([]int64, 40_000)
	vals := make([]int64, 40_000)
	for i := range keys {
		keys[i] = int64(i)*10 + 5
		vals[i] = int64(i)
		model[keys[i]] = vals[i]
	}
	p.PutBatch(keys, vals)
	checkAgainstModel(t, p, model, "spanning")
}

func TestPutBatchOverflowFallsBackToRebalancer(t *testing.T) {
	p := newTest(t, ModeSync)
	// One giant batch into a minimal array cannot fit any chunk: the gate
	// hand-off must trigger global rebalances/resizes via the rebalancer.
	keys := make([]int64, 10_000)
	vals := make([]int64, 10_000)
	model := map[int64]int64{}
	for i := range keys {
		keys[i] = int64(i)
		vals[i] = int64(-i)
		model[keys[i]] = vals[i]
	}
	p.PutBatch(keys, vals)
	st := p.Stats()
	if st.Rebalance.Resizes == 0 {
		t.Fatalf("expected resizes from batch overflow, got %+v", st)
	}
	checkAgainstModel(t, p, model, "overflow")
}

func TestDeleteBatchExactCount(t *testing.T) {
	for _, mode := range allModes() {
		p := newTest(t, mode)
		keys := make([]int64, 8000)
		for i := range keys {
			keys[i] = int64(i)
		}
		p.PutBatch(keys, keys)
		p.Flush()

		// Delete every third key plus some misses and duplicates.
		var dels []int64
		model := map[int64]int64{}
		for _, k := range keys {
			model[k] = k
		}
		want := 0
		for i := int64(0); i < 8000; i += 3 {
			dels = append(dels, i, i, i+100_000) // dup + miss
			if _, ok := model[i]; ok {
				delete(model, i)
				want++
			}
		}
		if got := p.DeleteBatch(dels); got != want {
			t.Fatalf("%v: DeleteBatch = %d, want %d", mode, got, want)
		}
		checkAgainstModel(t, p, model, mode.String()+"/delete")
	}
}

// TestDeleteBatchExactCountConcurrentWriters pins the exact-count contract
// under concurrency: while DeleteBatch removes a set of present keys, point
// and batch writers hammer disjoint keys hard enough to force rebalances,
// fence moves and resizes under the batch. None of that may perturb the
// returned count, because every deletion applies in place under its gate
// latch.
func TestDeleteBatchExactCountConcurrentWriters(t *testing.T) {
	for _, mode := range allModes() {
		for round := 0; round < 3; round++ {
			p := newTest(t, mode)
			// Present targets: keys = 0 mod 4. Concurrent writers use
			// keys = 1,2,3 mod 4 — disjoint, so the expected count is
			// exact even while the array churns.
			const targets = 4000
			tk := make([]int64, targets)
			for i := range tk {
				tk[i] = int64(i) * 4
			}
			p.PutBatch(tk, tk)
			p.Flush()

			stop := make(chan struct{})
			var wg sync.WaitGroup
			for w := 0; w < 4; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(w)))
					var batchK, batchV []int64
					for i := 0; ; i++ {
						select {
						case <-stop:
							return
						default:
						}
						k := rng.Int63n(4*targets)&^3 + 1 + int64(w%3)
						switch i % 3 {
						case 0:
							p.Put(k, k)
						case 1:
							p.Delete(k)
						default:
							batchK = append(batchK[:0], k, k+4, k+8)
							batchV = append(batchV[:0], k, k, k)
							p.PutBatch(batchK, batchV)
						}
					}
				}(w)
			}
			// Two concurrent DeleteBatches over disjoint halves of the
			// targets: each count must be exact, and so must the sum.
			type res struct{ got, want int }
			results := make(chan res, 2)
			for half := 0; half < 2; half++ {
				go func(half int) {
					part := tk[half*targets/2 : (half+1)*targets/2]
					// Shuffled + duplicated input exercises sortDedupOps.
					dels := make([]int64, 0, len(part)*2)
					rng := rand.New(rand.NewSource(int64(half)))
					for _, k := range part {
						dels = append(dels, k, k) // dup collapses
					}
					rng.Shuffle(len(dels), func(i, j int) { dels[i], dels[j] = dels[j], dels[i] })
					results <- res{got: p.DeleteBatch(dels), want: len(part)}
				}(half)
			}
			var rs []res
			for i := 0; i < 2; i++ {
				rs = append(rs, <-results)
			}
			close(stop)
			wg.Wait()
			for _, r := range rs {
				if r.got != r.want {
					t.Fatalf("%v/round%d: DeleteBatch = %d, want %d", mode, round, r.got, r.want)
				}
			}
			p.Flush()
			if err := p.Validate(); err != nil {
				t.Fatalf("%v/round%d: %v", mode, round, err)
			}
			// Every target key must be gone despite the concurrent churn.
			for _, k := range tk {
				if _, ok := p.Get(k); ok {
					t.Fatalf("%v/round%d: deleted key %d still present", mode, round, k)
				}
			}
			p.Close()
		}
	}
}

func TestDeleteBatchTriggersShrink(t *testing.T) {
	p := newTest(t, ModeSync)
	keys := make([]int64, 30_000)
	for i := range keys {
		keys[i] = int64(i)
	}
	p.PutBatch(keys, keys)
	p.Flush()
	capBefore := p.Capacity()
	if got := p.DeleteBatch(keys[:29_000]); got != 29_000 {
		t.Fatalf("DeleteBatch = %d", got)
	}
	// The master serves requests in order, so a Flush round-trip drains
	// the shrink request DeleteBatch submitted.
	p.Flush()
	if p.Capacity() >= capBefore {
		t.Fatalf("capacity %d did not shrink from %d", p.Capacity(), capBefore)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestBatchMixedRandomAgainstModel(t *testing.T) {
	// Random op stream applied in chunks via PutBatch/DeleteBatch must
	// match the model that applies the same chunks in order.
	for _, mode := range allModes() {
		p := newTest(t, mode)
		rng := rand.New(rand.NewSource(99))
		model := map[int64]int64{}
		for round := 0; round < 30; round++ {
			n := 1 + rng.Intn(700)
			if rng.Intn(3) == 0 {
				dels := make([]int64, n)
				for i := range dels {
					dels[i] = rng.Int63n(5000)
					delete(model, dels[i])
				}
				p.DeleteBatch(dels)
			} else {
				keys := make([]int64, n)
				vals := make([]int64, n)
				for i := range keys {
					keys[i] = rng.Int63n(5000)
					vals[i] = rng.Int63()
					model[keys[i]] = vals[i]
				}
				p.PutBatch(keys, vals)
			}
		}
		checkAgainstModel(t, p, model, mode.String()+"/mixed")
	}
}

func TestBulkLoadBasic(t *testing.T) {
	keys := make([]int64, 50_000)
	vals := make([]int64, 50_000)
	model := map[int64]int64{}
	for i := range keys {
		keys[i] = int64(i) * 7
		vals[i] = int64(i)
		model[keys[i]] = vals[i]
	}
	p, err := BulkLoad(testConfig(ModeBatch), keys, vals)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	checkAgainstModel(t, p, model, "bulkload")

	// The load density must sit between the root thresholds, like a resize.
	fill := float64(p.Len()) / float64(p.Capacity())
	if fill < 0.30 || fill > 0.80 {
		t.Fatalf("bulk load fill factor %.2f outside sane range", fill)
	}

	// The store must remain fully usable for point updates afterwards.
	for i := int64(0); i < 2000; i++ {
		p.Put(i*7+1, i)
		model[i*7+1] = i
	}
	checkAgainstModel(t, p, model, "bulkload+puts")
}

func TestBulkLoadUnsortedWithDuplicates(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	keys := make([]int64, 20_000)
	vals := make([]int64, 20_000)
	model := map[int64]int64{}
	for i := range keys {
		keys[i] = rng.Int63n(8000) // plenty of duplicates
		vals[i] = int64(i)
		model[keys[i]] = vals[i] // later occurrence wins, as documented
	}
	p, err := BulkLoad(testConfig(ModeSync), keys, vals)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	checkAgainstModel(t, p, model, "bulkload-dups")
}

// TestBulkLoadRetainsNoInput overwrites the caller's slices after BulkLoad —
// ascending input is laid out straight from them, other input through a
// sorted copy — and finds the store unchanged, in both chunk layouts.
func TestBulkLoadRetainsNoInput(t *testing.T) {
	for _, cfg := range []Config{testConfig(ModeSync), testConfigC(ModeSync)} {
		for _, ascending := range []bool{true, false} {
			keys := make([]int64, 5_000)
			vals := make([]int64, 5_000)
			model := map[int64]int64{}
			for i := range keys {
				keys[i] = int64(i) * 3
				if !ascending {
					keys[i] = int64(len(keys)-i) * 3
				}
				vals[i] = int64(i)
				model[keys[i]] = vals[i]
			}
			p, err := BulkLoad(cfg, keys, vals)
			if err != nil {
				t.Fatal(err)
			}
			for i := range keys {
				keys[i], vals[i] = 1, -1
			}
			checkAgainstModel(t, p, model, fmt.Sprintf("compressed=%v ascending=%v", cfg.CompressedChunks, ascending))
			p.Close()
		}
	}
}

func TestBulkLoadEmpty(t *testing.T) {
	p, err := BulkLoad(testConfig(ModeBatch), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if p.Len() != 0 {
		t.Fatalf("Len = %d", p.Len())
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	p.Put(1, 2)
	p.Flush()
	if v, ok := p.Get(1); !ok || v != 2 {
		t.Fatalf("Get after empty bulk load = %d,%v", v, ok)
	}
}

func TestBulkLoadErrors(t *testing.T) {
	if _, err := BulkLoad(testConfig(ModeBatch), []int64{1, 2}, []int64{1}); err == nil {
		t.Fatal("mismatched lengths accepted")
	}
	for _, keys := range [][]int64{{KeyMin}, {1, KeyMax}, {2, 1, KeyMax}} {
		if _, err := BulkLoad(testConfig(ModeBatch), keys, make([]int64, len(keys))); err == nil {
			t.Fatalf("sentinel key accepted in %v", keys)
		}
	}
}

func TestPutBatchPanics(t *testing.T) {
	p := newTest(t, ModeBatch)
	mustPanic(t, func() { p.PutBatch([]int64{1, 2}, []int64{1}) })
	mustPanic(t, func() { p.PutBatch([]int64{KeyMax}, []int64{1}) })
}

func mustPanic(t *testing.T, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	fn()
}

// TestBatchAbsorbsParkedQueue reproduces the program-order hazard the batch
// path must avoid: ops parked in a gate's combining queue (as an overflowing
// drain or a redistribution leaves them) are older than a later batch. The
// batch must absorb them — applying them, but never letting them overwrite
// its own newer values or resurrect its deletions.
func TestBatchAbsorbsParkedQueue(t *testing.T) {
	p := newTest(t, ModeBatch)
	p.Put(100, 1)
	p.Flush()
	park := func(ops []op) {
		st := p.state.Load()
		g := st.gates[st.route(ops[0].key)]
		g.mu.Lock()
		g.qOpen, g.qOps = true, ops
		g.mu.Unlock()
	}

	// A newer PutBatch wins over the parked older write to the same key
	// and applies the unrelated parked op.
	park([]op{{key: 100, val: 2}, {key: 300, val: 2}})
	p.PutBatch([]int64{100}, []int64{3})
	p.Flush()
	if v, ok := p.Get(100); !ok || v != 3 {
		t.Fatalf("Get(100) = %d,%v, want 3: parked older op overwrote a newer batch", v, ok)
	}
	if v, ok := p.Get(300); !ok || v != 2 {
		t.Fatalf("Get(300) = %d,%v, want 2: parked op was lost", v, ok)
	}

	// A newer DeleteBatch cancels a parked insert instead of being
	// resurrected by it.
	park([]op{{key: 400, val: 5}})
	if n := p.DeleteBatch([]int64{400}); n != 0 {
		t.Fatalf("DeleteBatch(400) = %d, want 0 (cancelled parked insert was never applied)", n)
	}
	p.Flush()
	if _, ok := p.Get(400); ok {
		t.Fatal("parked insert resurrected a key deleted by a newer DeleteBatch")
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
}
