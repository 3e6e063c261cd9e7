package core

import (
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

// quickOps is a generated random operation sequence.
type quickOps struct {
	ops  []op
	mode Mode
}

func (quickOps) Generate(r *rand.Rand, size int) reflect.Value {
	n := 500 + r.Intn(3000)
	domain := int64(1 + r.Intn(2000))
	ops := make([]op, n)
	for i := range ops {
		ops[i] = op{
			key: r.Int63n(domain) - domain/4,
			val: r.Int63(),
			del: r.Intn(4) == 0,
		}
	}
	return reflect.ValueOf(quickOps{ops: ops, mode: Mode(r.Intn(3))})
}

// TestQuickModelEquivalence: after any op sequence (in any mode, flushed),
// the concurrent PMA equals a model map, in sorted order, with every
// structural invariant intact. The generator's seed is logged and named on
// failure: the same seed regenerates the same op sequences (their
// interleaving with the store's goroutines is the scheduler's).
func TestQuickModelEquivalence(t *testing.T) {
	seed := time.Now().UnixNano()
	t.Logf("seed %d", seed)
	property := func(q quickOps) bool {
		p, err := New(testConfig(q.mode))
		if err != nil {
			return false
		}
		defer p.Close()
		model := map[int64]int64{}
		for _, o := range q.ops {
			if o.del {
				delete(model, o.key)
				p.Delete(o.key)
			} else {
				model[o.key] = o.val
				p.Put(o.key, o.val)
			}
		}
		p.Flush()
		if p.Len() != len(model) {
			t.Logf("mode %v: Len %d != model %d", q.mode, p.Len(), len(model))
			return false
		}
		if err := p.Validate(); err != nil {
			t.Logf("mode %v: %v", q.mode, err)
			return false
		}
		want := make([]int64, 0, len(model))
		for k := range model {
			want = append(want, k)
		}
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		i := 0
		ok := true
		p.ScanAll(func(k, v int64) bool {
			if i >= len(want) || k != want[i] || v != model[k] {
				ok = false
				return false
			}
			i++
			return true
		})
		return ok && i == len(want)
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 25, Rand: rand.New(rand.NewSource(seed))}); err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
}

// TestQuickConcurrentPutBatchScan checks the batch/scan consistency
// contract: while a writer replaces every value with generation-stamped
// batches, concurrent scans must always observe the full sorted key set
// with no duplicates or tears, every value must be a valid generation, and
// the value seen for a key must never move backwards between scans
// (per-gate atomicity means a scan may mix generations, but generations
// only advance).
func TestQuickConcurrentPutBatchScan(t *testing.T) {
	for _, mode := range allModes() {
		p := newTest(t, mode)
		const n = 20_000
		const gens = 25
		keys := make([]int64, n)
		vals := make([]int64, n)
		for i := range keys {
			keys[i] = int64(i) * 3
		}
		p.PutBatch(keys, vals) // generation 0
		p.Flush()

		var maxGen atomic.Int64
		done := make(chan struct{})
		go func() {
			defer close(done)
			for gen := int64(1); gen <= gens; gen++ {
				for i := range vals {
					vals[i] = gen
				}
				p.PutBatch(keys, vals)
				maxGen.Store(gen)
			}
		}()

		var wg sync.WaitGroup
		errCh := make(chan string, 4)
		report := func(msg string) {
			select {
			case errCh <- msg:
			default:
			}
		}
		for s := 0; s < 2; s++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				last := make([]int64, n) // highest generation seen per key
				for {
					select {
					case <-done:
						return
					default:
					}
					i := 0
					prev := int64(-1)
					bad := false
					p.ScanAll(func(k, v int64) bool {
						if k <= prev || i >= n || k != keys[i] {
							report("scan saw torn or out-of-order keys")
							bad = true
							return false
						}
						if v < last[i] || v > maxGen.Load()+1 {
							report("scan saw value from an impossible generation")
							bad = true
							return false
						}
						last[i] = v
						prev = k
						i++
						return true
					})
					if !bad && i != n {
						report("scan missed keys")
					}
				}
			}()
		}
		<-done
		wg.Wait()
		select {
		case msg := <-errCh:
			t.Fatalf("mode %v: %s", mode, msg)
		default:
		}
		p.Flush()
		if err := p.Validate(); err != nil {
			t.Fatalf("mode %v: %v", mode, err)
		}
	}
}
