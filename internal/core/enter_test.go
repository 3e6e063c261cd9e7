package core

import (
	"sync"
	"testing"
)

// TestEnter drives the entry routine through its two latch modes. In each:
// index separators stale in either direction still lead to the owning gate
// (the fence walk), the version is odd exactly while the caller holds the
// gate, and a gate retired by a resize sends the caller to the new state.
// Combine mode on a closed queue is an exclusive acquisition (the cases
// above); on an open one the op is appended.
func TestEnter(t *testing.T) {
	for _, tc := range []struct {
		name string
		mode latchMode
	}{{"exclusive", latchExclusive}, {"combine", latchCombine}} {
		t.Run(tc.name, func(t *testing.T) {
			p := newTest(t, ModeBatch)
			for k := int64(0); k < 400; k++ {
				p.Put(k*10, k)
			}
			p.Flush()
			st := p.state.Load()
			mid := len(st.gates) / 2
			owner := st.gates[mid]
			key := owner.fenceLo // the first key it stores
			o := op{key: key, val: 7}

			// The owner's separator too high routes to the left neighbour,
			// the right neighbour's too low routes to that one.
			for _, stale := range []struct {
				gate int
				sep  int64
			}{{mid, key + 1}, {mid + 1, key}} {
				sep := st.index.get(stale.gate)
				st.index.set(stale.gate, stale.sep)
				if gi := st.route(key); gi == mid {
					t.Fatalf("separator %d of gate %d did not misroute key %d", stale.sep, stale.gate, key)
				}
				before := owner.version.Load()
				gst, g := p.enter(key, tc.mode, o)
				if gst != st || g != owner {
					t.Fatalf("enter with gate %d's separator at %d arrived at %+v, want gate %d", stale.gate, stale.sep, g, mid)
				}
				if v := owner.version.Load(); v != before+1 {
					t.Fatalf("version %d -> %d under an exclusive latch, want odd", before, v)
				}
				g.release()
				if v := owner.version.Load(); v&1 != 0 {
					t.Fatalf("version %d odd after the release", v)
				}
				st.index.set(stale.gate, sep)
			}

			if tc.mode == latchCombine {
				owner.mu.Lock()
				owner.qOpen = true
				owner.mu.Unlock()
				combined, version := p.metrics.CombinedOps.Load(), owner.version.Load()
				if gst, g := p.enter(key, tc.mode, o); gst != nil || g != nil {
					t.Fatalf("enter latched gate %d past its open queue", g.idx)
				}
				if q := p.detachQueue(owner); len(q) != 1 || q[0] != o {
					t.Fatalf("the open queue holds %v, want the one op %v", q, o)
				}
				if c, v := p.metrics.CombinedOps.Load(), owner.version.Load(); c != combined+1 || v != version {
					t.Fatalf("combined ops %d -> %d, version %d -> %d; want one tick and no latch", combined, c, version, v)
				}
			}

			// A batch of more new keys than the array has slots makes it
			// grow: owner is retired. Putting the retired state back makes
			// enter start on it for certain; the current one is swapped in
			// once enter went through its reload, which the onReload hook
			// reports.
			keys, vals := make([]int64, st.slots()), make([]int64, st.slots())
			for i := range keys {
				keys[i] = 4000 + int64(i) // above every stored key
			}
			p.PutBatch(keys, vals)
			grown := p.state.Load()
			if grown == st || !owner.invalid {
				t.Fatal("the forced resize did not retire the gate")
			}
			p.state.Store(st)
			reloaded := make(chan struct{})
			var once sync.Once
			p.onReload = func() { once.Do(func() { close(reloaded) }) }
			arrived := make(chan *gate)
			go func() {
				gst, g := p.enter(key, tc.mode, o)
				if gst != grown {
					g = nil
				}
				arrived <- g
			}()
			<-reloaded
			p.state.Store(grown)
			g := <-arrived
			if g == nil || g.invalid || g != grown.gates[g.idx] || key < g.fenceLo || key > g.fenceHi {
				t.Fatalf("enter came back from a retired gate with %+v", g)
			}
			g.release()
			if err := p.Validate(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
