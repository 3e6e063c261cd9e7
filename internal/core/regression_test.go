package core

import (
	"sync"
	"testing"
	"time"
)

// TestNoOpsLostUnderBatchPressure is a regression test for a bug where a
// shrink request that could not materialise (pending inserts absorbed from
// the combining queues inflated the element count past the shrink guard)
// detached every gate's queue and then returned, dropping tens of thousands
// of accepted updates. With an effectively infinite TDelay every overflow is
// funnelled through the rebalancer's queues, maximising the exposure.
func TestNoOpsLostUnderBatchPressure(t *testing.T) {
	cfg := testConfig(ModeBatch)
	cfg.TDelay = time.Hour
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	const writers = 4
	const per = 20_000
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				p.Put(int64(w*1_000_000+i), 1)
			}
		}(w)
	}
	wg.Wait()
	p.Flush()
	if got := p.Len(); got != writers*per {
		missing := 0
		for w := 0; w < writers; w++ {
			for i := 0; i < per; i++ {
				if _, ok := p.Get(int64(w*1_000_000 + i)); !ok {
					missing++
				}
			}
		}
		t.Fatalf("Len = %d, want %d (%d keys unreachable)", got, writers*per, missing)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestShrinkDuringBatchBacklog exercises the same machinery with deletes in
// the mix, so shrink requests genuinely fire while queues hold backlogs.
func TestShrinkDuringBatchBacklog(t *testing.T) {
	cfg := testConfig(ModeBatch)
	cfg.TDelay = 50 * time.Millisecond
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	const n = 30_000
	for i := int64(0); i < n; i++ {
		p.Put(i, i)
	}
	p.Flush()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := int64(w); i < n; i += 4 {
				if i%3 == 0 {
					p.Delete(i)
				} else {
					p.Put(n+i, i)
				}
			}
		}(w)
	}
	wg.Wait()
	p.Flush()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	// Recount: every surviving key must be reachable.
	expect := map[int64]bool{}
	for i := int64(0); i < n; i++ {
		expect[i] = true
	}
	for w := int64(0); w < 4; w++ {
		for i := w; i < n; i += 4 {
			if i%3 == 0 {
				delete(expect, i)
			} else {
				expect[n+i] = true
			}
		}
	}
	if p.Len() != len(expect) {
		t.Fatalf("Len = %d, want %d", p.Len(), len(expect))
	}
	for k := range expect {
		if _, ok := p.Get(k); !ok {
			t.Fatalf("key %d lost", k)
		}
	}
}

// TestWriterKeepsParkedOps is a regression test for a lost update: the
// rebalancer master parks displaced ops in a gate's combining queue holding
// only the gate mutex (redistribute), so it can do so after an async writer
// has won the latch and before that writer installs its own queue — which
// used to overwrite the parked one.
func TestWriterKeepsParkedOps(t *testing.T) {
	for _, mode := range []Mode{ModeOneByOne, ModeBatch} {
		p := newTest(t, mode)
		st := p.state.Load()
		g := st.gates[0]
		own := op{key: 1, val: 1}
		if p.lockForWrite(g, own) != lockAcquired {
			t.Fatalf("%v: idle gate not acquired", mode)
		}
		g.mu.Lock()
		g.q = &opQueue{ops: []op{{key: 2, val: 2}}}
		g.mu.Unlock()
		guard := p.epochs.Enter()
		p.runWriter(st, g, own, guard)
		guard.Leave()
		p.Flush()
		for k := int64(1); k <= 2; k++ {
			if v, ok := p.Get(k); !ok || v != k {
				t.Fatalf("%v: Get(%d) = %d,%v after the drain", mode, k, v, ok)
			}
		}
	}
}
