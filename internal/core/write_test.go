package core

import (
	"fmt"
	"sort"
	"sync"
	"testing"
	"time"
)

// TestLoneWriterDoesNotAllocate: an uncontended writer applies its op in the
// chunk — in the async modes it never enters its own combining queue — so a
// warmed Put+Delete cycle allocates nothing in any mode or layout.
func TestLoneWriterDoesNotAllocate(t *testing.T) {
	for _, mode := range allModes() {
		for _, compressed := range []bool{false, true} {
			if got := updateCycleAllocs(t, mode, compressed); got != 0 {
				t.Errorf("%v compressed=%v: Put+Delete allocates %.2f objects, want 0", mode, compressed, got)
			}
		}
	}
}

// TestOverwriteInFullSegmentStaysInPlace: a Put of a key that its full
// segment already holds replaces the value where it is, in every mode and
// layout. A lone point insert is a run of one, and a run that creates no
// element fits its segment, so nothing rebalances, resizes or hands off.
func TestOverwriteInFullSegmentStaysInPlace(t *testing.T) {
	for _, mode := range allModes() {
		for _, compressed := range []bool{false, true} {
			p := newTest(t, mode)
			if compressed {
				p = newTestC(t, mode)
			}
			for k := int64(1); k <= 8; k++ {
				p.Put(k, k)
			}
			if g, s := gateOf(t, p, 5); g.segCard[s] != g.b {
				t.Fatalf("%v compressed=%v: segment %d holds %d of %d", mode, compressed, s, g.segCard[s], g.b)
			}
			counts := func() [4]uint64 {
				r := p.Stats().Rebalance
				return [4]uint64{r.Local, r.Global, r.Resizes, r.HandOffWait.Count}
			}
			before := counts()
			p.Put(5, -5)
			if after := counts(); after != before {
				t.Errorf("%v compressed=%v: the overwrite moved local, global, resizes, hand-off waits from %v to %v", mode, compressed, before, after)
			}
			if v, ok := p.Get(5); !ok || v != -5 {
				t.Errorf("%v compressed=%v: Get(5) = %d,%v after the overwrite", mode, compressed, v, ok)
			}
			if err := p.Validate(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// compactOpsRef is compactOps the straightforward way: a map holds the last
// in-fence op per key.
func compactOpsRef(ops []op, lo, hi int64) (ins, dels, reroute []op) {
	final := map[int64]op{}
	for _, o := range ops {
		if o.key < lo || o.key > hi {
			reroute = append(reroute, o)
		} else {
			final[o.key] = o
		}
	}
	for _, o := range final {
		if o.del {
			dels = append(dels, o)
		} else {
			ins = append(ins, o)
		}
	}
	sort.Slice(ins, func(i, j int) bool { return ins[i].key < ins[j].key })
	sort.Slice(dels, func(i, j int) bool { return dels[i].key < dels[j].key })
	return ins, dels, reroute
}

func TestCompactOps(t *testing.T) {
	put := func(k, v int64) op { return op{key: k, val: v} }
	del := func(k int64) op { return op{key: k, del: true} }
	const lo, hi = 10, 20
	for _, tc := range []struct {
		name string
		ops  []op
	}{
		{"empty", nil},
		{"one put", []op{put(12, 1)}},
		{"one delete", []op{del(12)}},
		{"one out of fence", []op{put(5, 1)}},
		{"sorted unique", []op{put(11, 1), del(12), put(13, 3)}},
		{"unsorted", []op{put(19, 1), put(11, 2), del(15), put(13, 4), del(10)}},
		{"duplicates: last wins", []op{put(12, 1), put(14, 2), put(12, 3), put(12, 4), put(14, 5)}},
		{"put then delete", []op{put(12, 1), put(13, 1), del(12)}},
		{"delete then put", []op{del(12), del(13), put(12, 7)}},
		{"put delete put delete", []op{put(15, 1), del(15), put(15, 2), del(15)}},
		{"fence keys are inside", []op{put(lo, 1), put(hi, 2), del(lo - 1), put(hi+1, 3)}},
		{"all out of fence, arrival order", []op{put(30, 1), del(2), put(30, 2), put(KeyMax-1, 0), del(KeyMin + 1)}},
		{"mixed", []op{put(25, 1), put(18, 1), del(3), put(18, 2), del(16), put(25, 2), put(16, 9), del(18)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			wantIns, wantDels, wantOut := compactOpsRef(tc.ops, lo, hi)
			ins, dels, out := compactOps(append([]op(nil), tc.ops...), lo, hi)
			got := fmt.Sprint(ins, dels, out) // prints nil and empty alike
			want := fmt.Sprint(wantIns, wantDels, wantOut)
			if got != want {
				t.Fatalf("compactOps(%v):\n got %s\nwant %s", tc.ops, got, want)
			}
		})
	}
}

// TestPutBatchAllocs bounds the allocations of a 1024-key PutBatch that
// merges into 32 gates segment by segment, in both layouts: the op array
// PutBatch builds, and nothing per gate.
func TestPutBatchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own, and drops pooled scratch")
	}
	const n, clusters = 1 << 15, 32
	keys, vals := make([]int64, n), make([]int64, n)
	for i := range keys {
		keys[i], vals[i] = int64(i)*16, int64(i)<<40
	}
	batch, bv := make([]int64, 0, 1024), make([]int64, 0, 1024)
	for c := 0; c < clusters; c++ {
		base := int64(c) * n / clusters * 16
		for j := int64(0); j < 1024/clusters; j++ {
			batch, bv = append(batch, base+2*j+1), append(bv, -j)
		}
	}
	for _, compressed := range []bool{false, true} {
		cfg := DefaultConfig()
		cfg.CompressedChunks = compressed
		p, err := BulkLoad(cfg, keys, vals)
		if err != nil {
			t.Fatal(err)
		}
		gates := map[*gate]bool{}
		for c := 0; c < clusters; c++ {
			g, _ := gateOf(t, p, batch[c*1024/clusters])
			gates[g] = true
		}
		if len(gates) != clusters {
			t.Fatalf("the batch reaches %d gates, want %d", len(gates), clusters)
		}
		allocs := testing.AllocsPerRun(20, func() { p.PutBatch(batch, bv) })
		if st := p.Stats().Rebalance; st.Local+st.Global != 0 {
			t.Fatalf("compressed=%v: the batch rebalanced (%+v), not merged by segment", compressed, st)
		}
		if err := p.Validate(); err != nil {
			t.Fatal(err)
		}
		p.Close()
		t.Logf("compressed=%v: %v allocations", compressed, allocs)
		if allocs > 2 {
			t.Errorf("compressed=%v: a 1024-key PutBatch over %d gates allocates %v times, want at most 2", compressed, clusters, allocs)
		}
	}
}

// TestWriterLastValueWins is a regression test for two lost updates. In
// ModeOneByOne a holder whose drain overflowed its chunk took the combined
// ops it had already acknowledged off the queue, handed its latch to the
// rebalancer and replayed them after the gate was free again, so a writer's
// later update of the same key, applied in place meanwhile, was overwritten
// by its earlier one. In ModeBatch a writer whose key a global rebalance had
// just moved could join the key's new gate before the rebalance re-parked
// the key's older ops there, behind it. Each writer here rewrites its own
// keys round after round, with a fresh insert after every Put to keep chunks
// overflowing; at the end every key must hold its writer's last round.
func TestWriterLastValueWins(t *testing.T) {
	const writers, keys, rounds, trials = 4, 64, 40, 30
	for _, mode := range allModes() {
		t.Run(mode.String(), func(t *testing.T) {
			for trial := 0; trial < trials; trial++ {
				p := newTest(t, mode)
				var wg sync.WaitGroup
				for w := int64(0); w < writers; w++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						for r := int64(0); r < rounds; r++ {
							for i := int64(0); i < keys; i++ {
								k := (i*writers + w) * 1000
								p.Put(k, r)
								p.Put(k+1+r, -1) // fresh: no earlier round wrote it
							}
						}
					}()
				}
				wg.Wait()
				p.Flush()
				for w := int64(0); w < writers; w++ {
					for i := int64(0); i < keys; i++ {
						k := (i*writers + w) * 1000
						if v, ok := p.Get(k); !ok || v != rounds-1 {
							t.Fatalf("trial %d: writer %d's key %d holds %d,%v after its last round %d", trial, w, k, v, ok, rounds-1)
						}
					}
				}
				if err := p.Validate(); err != nil {
					t.Fatal(err)
				}
				p.Close()
			}
		})
	}
}

// TestLastValueWinsBesideBatchesAndFlush: point writers rewrite and delete
// keys of their own round after round, while a batch writer overflows chunks
// beside them and Flush runs in a loop; at the end every key must hold its
// writer's last update. Two replays used to overwrite newer updates of a
// key: a batch run that absorbed its gate's queue and overflowed handed the
// absorbed ops to the master on its request, which is applied after the
// newer ops combined behind the hand-off; and Flush took an idle queue and
// replayed its ops with the gate released, after a writer had updated the
// same key in place.
func TestLastValueWinsBesideBatchesAndFlush(t *testing.T) {
	const writers, keys, rounds, width, trials = 4, 200, 30, 32, 10
	for _, mode := range allModes() {
		t.Run(mode.String(), func(t *testing.T) {
			for trial := 0; trial < trials; trial++ {
				p := newTest(t, mode)
				want := make([]map[int64]int64, writers+1) // one per writer
				var wg sync.WaitGroup
				for w := 0; w < writers; w++ {
					want[w] = map[int64]int64{}
					wg.Add(1)
					go func(w int) {
						defer wg.Done()
						for r := 0; r < rounds; r++ {
							for i := 0; i < keys; i++ {
								k := int64(w*keys + i + 1)
								if (i+r)%5 == 0 {
									p.Delete(k)
									delete(want[w], k)
									continue
								}
								p.Put(k, int64(r))
								want[w][k] = int64(r)
							}
						}
					}(w)
				}
				want[writers] = map[int64]int64{}
				wg.Add(1)
				go func() {
					defer wg.Done()
					m := want[writers]
					ks, vs := make([]int64, width), make([]int64, width)
					for r := 0; r < rounds; r++ {
						for b := 0; b < keys/width; b++ {
							for i := range ks {
								// Batches overlap by half: the next rewrites a key.
								ks[i], vs[i] = int64(writers*keys+b*width/2+i+1), int64(r)
								m[ks[i]] = vs[i]
							}
							p.PutBatch(ks, vs)
							if (b+r)%3 == 0 {
								p.DeleteBatch(ks[:width/4])
								for _, k := range ks[:width/4] {
									delete(m, k)
								}
							}
						}
					}
				}()
				stop, flushed := make(chan struct{}), make(chan struct{})
				go func() {
					defer close(flushed)
					for {
						select {
						case <-stop:
							return
						default:
							p.Flush()
						}
					}
				}()
				wg.Wait()
				close(stop)
				<-flushed
				p.Flush()
				all := map[int64]int64{}
				for _, m := range want {
					for k, v := range m {
						all[k] = v
					}
				}
				got := map[int64]int64{}
				p.Scan(KeyMin+1, KeyMax-1, func(k, v int64) bool {
					got[k] = v
					return true
				})
				for k, v := range all {
					if g, ok := got[k]; !ok || g != v {
						t.Fatalf("trial %d: key %d holds %d,%v; its last update wrote %d", trial, k, g, ok, v)
					}
				}
				if len(got) != len(all) {
					t.Fatalf("trial %d: %d keys present, want %d", trial, len(got), len(all))
				}
			}
		})
	}
}

// overflowKey puts fresh keys into gate g of a ModeSync store, each applied
// in place, until the next fresh key would overflow the chunk — its segment
// is full and no in-chunk window can take one more — and returns that key.
func overflowKey(t *testing.T, p *PMA, g *gate) int64 {
	t.Helper()
	st := p.state.Load()
	for k := g.fenceLo + 1; k <= g.fenceHi; k++ {
		if _, ok := p.Get(k); ok {
			continue
		}
		s := g.findSeg(k)
		if _, _, ok := g.localWindow(st, s, s, 1); !ok && g.segCard[s] == g.b {
			return k
		}
		p.Put(k, k)
	}
	t.Fatalf("gate %d [%d, %d] never filled up", g.idx, g.fenceLo, g.fenceHi)
	return 0
}

// preloaded returns a ModeSync store holding the keys 0, 10, ..., 3990.
func preloaded(t *testing.T) *PMA {
	p := newTest(t, ModeSync)
	for k := int64(0); k < 400; k++ {
		p.Put(k*10, k)
	}
	return p
}

// TestSyncOverflowIsVisible: a ModeSync Put whose insert overflows its chunk
// hands it to the rebalancer and returns only once it has been applied —
// also when the master is busy with a resize that retires the gate before
// it picks the request up: the request, for a retired state, routes the
// insert into the new array, and the master applies it before it releases
// the Put.
func TestSyncOverflowIsVisible(t *testing.T) {
	t.Run("rebalance", func(t *testing.T) {
		p := preloaded(t)
		st := p.state.Load()
		k := overflowKey(t, p, st.gates[1])
		p.Put(k, -1)
		if v, ok := p.Get(k); !ok || v != -1 {
			t.Fatalf("Get(%d) = %d,%v after its Put returned", k, v, ok)
		}
		if rs := p.Stats().Rebalance; rs.Global+rs.Resizes == 0 {
			t.Fatalf("%+v: the Put did not overflow", rs)
		}
	})
	t.Run("resized meanwhile", func(t *testing.T) {
		p := preloaded(t)
		st := p.state.Load()
		g := st.gates[1]
		k := overflowKey(t, p, g)
		// The master stops at gate 0, latching the whole array for a batch
		// the array cannot hold, while the Put hands off at gate 1.
		a := st.gates[0]
		a.lockX()
		keys, vals := make([]int64, st.slots()), make([]int64, st.slots())
		for i := range keys {
			keys[i] = 4000 + int64(i) // above every stored key
		}
		var wg sync.WaitGroup
		wg.Add(2)
		go func() { defer wg.Done(); p.PutBatch(keys, vals) }()
		waitFor(t, a, func() bool { return a.rebWanted })
		go func() { defer wg.Done(); p.Put(k, -1) }()
		waitFor(t, g, func() bool { return g.qOpen && g.lstate == lsFree })
		a.release()
		wg.Wait()
		if p.state.Load() == st || !g.invalid {
			t.Fatal("the batch did not resize the array")
		}
		if v, ok := p.Get(k); !ok || v != -1 {
			t.Fatalf("Get(%d) = %d,%v after its Put returned", k, v, ok)
		}
		if err := p.Validate(); err != nil {
			t.Fatal(err)
		}
	})
}

// waitFor polls cond under g.mu until it holds.
func waitFor(t *testing.T, g *gate, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		g.mu.Lock()
		ok := cond()
		g.mu.Unlock()
		if ok {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("gate %d never reached the awaited state", g.idx)
		}
	}
}

// TestHandOffWaitObservedOnce: the one place a writer waits on the master is
// timed, and only there — an overflowing ModeSync insert observes exactly
// one hand-off wait, and the in-place Puts that filled its chunk none.
func TestHandOffWaitObservedOnce(t *testing.T) {
	p := preloaded(t)
	waits := func() uint64 { return p.Stats().Rebalance.HandOffWait.Count }
	before := waits()
	k := overflowKey(t, p, p.state.Load().gates[1])
	if n := waits() - before; n != 0 {
		t.Fatalf("%d hand-off waits observed for in-place Puts", n)
	}
	p.Put(k, -1)
	if n := waits() - before; n != 1 {
		t.Fatalf("%d hand-off waits observed for one overflowing insert, want 1", n)
	}
}

// TestWaitedHandOffAppliesRerouted: a waited hand-off — a ModeSync Put, or a
// batch run, whose insert overflows its chunk — returns only once its insert
// is applied, also when a global rebalance ahead of it in the master's
// channel moved the key to a gate whose combining queue is already open, so
// parking the insert there schedules nothing of its own. The master is held
// at two far gates the test latches: at the first while both hand-offs at
// gate 1 reach the channel, a stall request for the second between them; at
// the second, after the first hand-off's rebalance moved the key, while the
// key's new gate z is handed off (its queue open, its request behind the
// insert's in the channel) and a ModeSync writer latches it in place. The
// insert's hand-off may not return while the insert sits in z's queue; after
// it does, a second update of the key, applied in place, must outlast z's
// request, which would otherwise apply the queued insert over it.
func TestWaitedHandOffAppliesRerouted(t *testing.T) {
	for name, put := range map[string]func(p *PMA, k, v int64){
		"Put":      func(p *PMA, k, v int64) { p.Put(k, v) },
		"PutBatch": func(p *PMA, k, v int64) { p.PutBatch([]int64{k}, []int64{v}) },
	} {
		t.Run(name, func(t *testing.T) {
			p := preloaded(t)
			st := p.state.Load()
			g := st.gates[1]
			overflows := func(k int64) bool {
				s := g.findSeg(k)
				_, _, ok := g.localWindow(st, s, s, 1)
				return !ok && g.segCard[s] == g.b
			}
			// Fill gate 1 but for its lowest fresh key ka: every fresh key
			// that would overflow is skipped, and the last one is kb.
			ka, kb := g.fenceLo+1, int64(-1)
			for k := ka + 1; k <= g.fenceHi; k++ {
				if _, ok := p.Get(k); ok {
					continue
				}
				if overflows(k) {
					kb = k
					continue
				}
				p.Put(k, k)
			}
			if _, ok := p.Get(ka); ok || kb < 0 || !overflows(ka) || !overflows(kb) {
				t.Fatalf("gate 1 [%d, %d] did not fill up around keys %d and %d", g.fenceLo, g.fenceHi, ka, kb)
			}
			n := len(st.gates)
			s0, s1 := st.gates[n-1], st.gates[n-2]
			s0.lockX()
			s1.lockX()
			p.reb.submit(&request{kind: reqBatch, st: st, g: s0})
			waitFor(t, s0, func() bool { return s0.rebWanted })

			var wg sync.WaitGroup
			wg.Add(1)
			go func() { defer wg.Done(); p.Put(kb, -1) }()
			waitFor(t, g, func() bool { return g.qOpen && g.lstate == lsFree })
			p.reb.submit(&request{kind: reqBatch, st: st, g: s1})
			aDone := make(chan struct{})
			go func() { defer close(aDone); put(p, ka, 1) }()
			waitFor(t, g, func() bool { return len(p.reb.ch) == 3 })

			s0.release()
			waitFor(t, s1, func() bool { return s1.rebWanted })
			wg.Wait()
			if ka >= g.fenceLo {
				t.Fatalf("the rebalance did not move key %d out of gate 1 [%d, %d]", ka, g.fenceLo, g.fenceHi)
			}
			z := st.gates[st.route(ka)]
			z.mu.Lock()
			if z.qOpen {
				t.Fatalf("gate %d's queue is open already", z.idx)
			}
			z.qOpen = true
			z.mu.Unlock()
			p.reb.submit(&request{kind: reqBatch, st: st, g: z})
			z.lockX()
			s1.release()

			for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
				select {
				case <-aDone:
					z.mu.Lock()
					q := append([]op(nil), z.qOps...)
					z.mu.Unlock()
					z.release() // for Close
					t.Fatalf("the hand-off returned with key %d still queued at gate %d: %v", ka, z.idx, q)
				default:
				}
				z.mu.Lock()
				wanted := z.rebWanted
				z.mu.Unlock()
				if wanted {
					break
				}
				if time.Now().After(deadline) {
					t.Fatal("the master never asked for the key's new gate")
				}
			}
			z.release()
			<-aDone
			if v, ok := p.Get(ka); !ok || v != 1 {
				t.Fatalf("Get(%d) = %d,%v after its hand-off returned", ka, v, ok)
			}
			p.Put(ka, 2)
			p.Flush()
			if v, ok := p.Get(ka); !ok || v != 2 {
				t.Fatalf("Get(%d) = %d,%v after a second Put of 2", ka, v, ok)
			}
			if err := p.Validate(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
