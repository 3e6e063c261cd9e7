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
		if g.lockOrCombine(own, st, st.fenceGen.Load()) != lockAcquired {
			t.Fatalf("%v: idle gate not acquired", mode)
		}
		g.mu.Lock()
		g.qOpen, g.qOps = true, []op{{key: 2, val: 2}}
		g.mu.Unlock()
		p.applyOwn(st, g, own, g.openQueue(own))
		p.Flush()
		for k := int64(1); k <= 2; k++ {
			if v, ok := p.Get(k); !ok || v != k {
				t.Fatalf("%v: Get(%d) = %d,%v after the drain", mode, k, v, ok)
			}
		}
	}
}

// TestLoneWriterStillCombines pins what the in-place path must not lose: the
// holder's queue is open (and empty) while it applies its own op in the
// chunk, so a writer arriving meanwhile combines — it never latches — and the
// holder applies that op before its own call returns, with no Flush.
func TestLoneWriterStillCombines(t *testing.T) {
	for _, mode := range []Mode{ModeOneByOne, ModeBatch} {
		p := newTest(t, mode)
		for k := int64(10); k < 14; k++ { // nobody combines: no queue is drained
			p.Put(k, k)
			p.Delete(k)
		}
		if n := p.metrics.DrainSize.Snapshot().Count; n != 0 {
			t.Fatalf("%v: %d drains observed for uncontended updates, want 0", mode, n)
		}
		st := p.state.Load()
		g := st.gates[0]
		own := op{key: 1, val: 1}
		if g.lockOrCombine(own, st, st.fenceGen.Load()) != lockAcquired {
			t.Fatalf("%v: idle gate not acquired", mode)
		}
		if g.openQueue(own) {
			t.Fatalf("%v: the holder's op was queued behind nothing", mode)
		}
		// The holder is now inside its in-place apply.
		p.Put(2, 2)
		if c, q := p.metrics.CombinedOps.Load(), p.QueuedOps(); c != 1 || q != 1 {
			t.Fatalf("%v: combined %d queued %d after a Put under the holder, want 1 and 1", mode, c, q)
		}
		p.applyOwn(st, g, own, false)
		if q := p.QueuedOps(); q != 0 {
			t.Fatalf("%v: %d ops still queued after the holder returned", mode, q)
		}
		for k := int64(1); k <= 2; k++ {
			if v, ok := p.Get(k); !ok || v != k {
				t.Fatalf("%v: Get(%d) = %d,%v after the holder returned", mode, k, v, ok)
			}
		}
		if d := p.metrics.DrainSize.Snapshot(); d.Count != 1 || d.Sum != 1 {
			t.Fatalf("%v: drains %d of %d ops, want one drain of the absorbed op", mode, d.Count, d.Sum)
		}
		if err := p.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestLoneWriterOverflowTakesTDelay: an in-place insert that does not fit its
// chunk takes the route a queued one takes — parked in the gate's queue as a
// batch for the rebalancer, rate-limited by TDelay. The Flush before every
// Put keeps the master idle, so each Put is a lone writer.
func TestLoneWriterOverflowTakesTDelay(t *testing.T) {
	cfg := testConfig(ModeBatch)
	cfg.TDelay = time.Hour
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	for k := int64(0); ; k++ {
		if k == 10_000 {
			t.Fatal("no overflowing insert was ever deferred")
		}
		p.Flush()
		p.Put(k, k)
		if d := p.metrics.DeferredBatches.Load(); d != 0 {
			if c, q := p.metrics.CombinedOps.Load(), p.QueuedOps(); d != 1 || c != 0 || q != 1 {
				t.Fatalf("deferred %d combined %d queued %d after Put(%d), want 1, 0 and 1", d, c, q, k)
			}
			if _, ok := p.Get(k); ok {
				t.Fatalf("Put(%d) was deferred and applied", k)
			}
			p.Flush()
			if p.Len() != int(k)+1 {
				t.Fatalf("Len = %d after Flush, want %d", p.Len(), k+1)
			}
			break
		}
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
}

// displacedScene sets up the displaced-op tests: in a flushed store, the
// aligned four-gate window g0, g1, h, g3 with g0 and g1 emptied and h's
// queue open on an update (to value 1) of every key h stores. rebalance puts
// batch into g3, more fresh keys than the pair (h, g3) has slots: the master
// rebalances the four gates evenly, which moves every key h stored to the
// left. It checks that parked[0]'s key moved.
func displacedScene(t *testing.T) (p *PMA, st *state, h *gate, parked, batch []op, rebalance func()) {
	p = newTest(t, ModeBatch)
	for k := int64(0); k < 400; k++ {
		p.Put(k*10, 0)
	}
	p.Flush()
	st = p.state.Load()
	w := len(st.gates) / 2 &^ 3
	g0, g1, h, g3 := st.gates[w], st.gates[w+1], st.gates[w+2], st.gates[w+3]
	var gone []int64
	p.Scan(g0.fenceLo, g1.fenceHi, func(k, _ int64) bool {
		gone = append(gone, k)
		return true
	})
	p.DeleteBatch(gone)
	p.Scan(h.fenceLo, h.fenceHi, func(k, _ int64) bool {
		parked = append(parked, op{key: k, val: 1})
		return true
	})
	// In all 5/8 of the four gates' slots: more than the pair (h, g3) has,
	// and within the window of four's density threshold (tau >= 0.75).
	total := 5 * st.spg * st.b / 2
	for k := g3.fenceLo + 1; len(batch) < total-h.gcard-g3.gcard; k++ {
		if k%10 != 0 {
			batch = append(batch, op{key: k, val: -k})
		}
	}
	if last := batch[len(batch)-1].key; last > g3.fenceHi {
		t.Fatalf("gate %d [%d, %d] has no room for fresh key %d", g3.idx, g3.fenceLo, g3.fenceHi, last)
	}
	h.mu.Lock()
	h.qOpen, h.qOps = true, append([]op(nil), parked...)
	h.mu.Unlock()
	return p, st, h, parked, batch, func() {
		keys, vals := make([]int64, len(batch)), make([]int64, len(batch))
		for i, o := range batch {
			keys[i], vals[i] = o.key, o.val
		}
		p.PutBatch(keys, vals)
		if k := parked[0].key; p.state.Load() != st || k >= h.fenceLo {
			t.Fatalf("the rebalance did not move key %d out of its gate (fenceLo %d)", k, h.fenceLo)
		}
	}
}

// checkDisplaced flushes and verifies the scene's outcome: every parked update
// applied, except that k carries the later value want.
func checkDisplaced(t *testing.T, p *PMA, parked []op, k, want int64) {
	p.Flush()
	for _, o := range parked {
		w := o.val
		if o.key == k {
			w = want
		}
		if v, ok := p.Get(o.key); !ok || v != w {
			t.Fatalf("Get(%d) = %d,%v, want %d", o.key, v, ok, w)
		}
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestWriterCombinesBehindDisplacedOps is a regression test for the
// displaced-replay inversion: ops waiting in a gate's queue stayed there when
// a neighbour's global rebalance moved the gate's fences off their keys, so a
// later update of such a key found its new gate idle, was applied at once,
// and was then overwritten by the older op when that finally moved over. The
// master now parks them at their new gate before it unlatches the window.
func TestWriterCombinesBehindDisplacedOps(t *testing.T) {
	p, st, _, parked, _, rebalance := displacedScene(t)
	rebalance()
	for _, x := range st.gates {
		x.mu.Lock()
		for _, o := range x.qOps {
			if o.key < x.fenceLo || o.key > x.fenceHi {
				t.Fatalf("gate %d [%d, %d] still queues key %d", x.idx, x.fenceLo, x.fenceHi, o.key)
			}
		}
		x.mu.Unlock()
	}
	k := parked[0].key
	p.Put(k, 2)
	checkDisplaced(t, p, parked, k, 2)
}

// TestCombinerRechecksFences is a regression test for the enqueue that had no
// fence check: a writer that looked its key up just before a global rebalance
// published, and reached the queue just after the master's re-parking pass,
// appended to a gate that no longer owned the key; the next update of the key
// went to the right gate, was applied first, and lost to the misrouted op at
// the Flush. The two halves of the writer's entry are run here with the
// rebalance in between: the second must notice the fence generation moved.
func TestCombinerRechecksFences(t *testing.T) {
	p, st, h, parked, _, rebalance := displacedScene(t)
	k := parked[0].key
	gen, gi := st.fenceGen.Load(), st.route(k) // enter, up to the lookup
	if gi != h.idx {
		t.Fatalf("key %d routed to gate %d, want %d", k, gi, h.idx)
	}
	rebalance()
	// h's queue is still open on the keys it kept, and k's writer arrives.
	if res := h.lockOrCombine(op{key: k, val: 2}, st, gen); res != lockStale {
		t.Errorf("a writer routed before the rebalance was let into gate %d [%d, %d] with key %d (result %d)",
			h.idx, h.fenceLo, h.fenceHi, k, res)
	}
	p.Put(k, 3) // what enter does next: route again
	checkDisplaced(t, p, parked, k, 3)
}

// TestBatchHandOffAppliesDisplaced pins what a waited hand-off promises: a
// PutBatch whose overflow displaced ops parked in another gate's queue
// returns only once the master has applied them too, so a quiet store holds
// nothing queued, the displaced updates read back without a Flush, and the
// batch's own values are intact.
func TestBatchHandOffAppliesDisplaced(t *testing.T) {
	p, _, _, parked, batch, rebalance := displacedScene(t)
	rebalance()
	if q := p.QueuedOps(); q != 0 {
		t.Fatalf("%d ops still queued after the batch returned", q)
	}
	for _, o := range append(parked, batch...) {
		if v, ok := p.Get(o.key); !ok || v != o.val {
			t.Fatalf("Get(%d) = %d,%v, want %d", o.key, v, ok, o.val)
		}
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
}
