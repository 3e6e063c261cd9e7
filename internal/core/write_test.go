package core

import (
	"fmt"
	"sort"
	"testing"
)

// TestLoneWriterDoesNotAllocate: an uncontended writer of the async modes
// applies its op in the chunk and never enters its own combining queue, so a
// warmed Put+Delete cycle allocates nothing in either layout.
func TestLoneWriterDoesNotAllocate(t *testing.T) {
	for _, mode := range []Mode{ModeBatch, ModeOneByOne} {
		for _, compressed := range []bool{false, true} {
			if got := updateCycleAllocs(t, mode, compressed); got != 0 {
				t.Errorf("%v compressed=%v: Put+Delete allocates %.2f objects, want 0", mode, compressed, got)
			}
		}
	}
}

// compactOpsRef is compactOps the straightforward way: a map holds the last
// in-fence op per key.
func compactOpsRef(ops []op, lo, hi int64) (ins []op, dels []int64, reroute []op) {
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
			dels = append(dels, o.key)
		} else {
			ins = append(ins, o)
		}
	}
	sort.Slice(ins, func(i, j int) bool { return ins[i].key < ins[j].key })
	sort.Slice(dels, func(i, j int) bool { return dels[i] < dels[j] })
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
