package core

import (
	"math/rand"
	"sort"
	"sync"
	"testing"
)

// buildSeps creates n sorted separators spaced by 100: gate i >= keys
// [i*100, (i+1)*100).
func buildSeps(n int) (*staticIndex, []int64) {
	ix := newStaticIndex(n)
	seps := make([]int64, n)
	seps[0] = KeyMin
	for i := 1; i < n; i++ {
		seps[i] = int64(i * 100)
	}
	for i, s := range seps {
		ix.set(i, s)
	}
	return ix, seps
}

// refLookup is the O(n) reference: rightmost separator <= k.
func refLookup(seps []int64, k int64) int {
	g := 0
	for i, s := range seps {
		if s <= k {
			g = i
		}
	}
	return g
}

func TestLookupSingleGate(t *testing.T) {
	ix := newStaticIndex(1)
	ix.set(0, KeyMin)
	for _, k := range []int64{-1 << 60, 0, 1 << 60} {
		if g := ix.lookup(k); g != 0 {
			t.Fatalf("Lookup(%d) = %d, want 0", k, g)
		}
	}
}

func TestLookupExhaustiveSmall(t *testing.T) {
	for _, n := range []int{1, 2, 3, 15, 16, 17, 255, 256, 257, 1000} {
		ix, seps := buildSeps(n)
		for k := int64(-50); k < int64(n*100+50); k += 7 {
			want := refLookup(seps, k)
			if got := ix.lookup(k); got != want {
				t.Fatalf("n=%d Lookup(%d) = %d, want %d", n, k, got, want)
			}
		}
	}
}

func TestLookupOnSeparatorBoundary(t *testing.T) {
	ix, _ := buildSeps(64)
	for i := 1; i < 64; i++ {
		if g := ix.lookup(int64(i * 100)); g != i {
			t.Fatalf("Lookup(sep %d) = %d, want %d", i*100, g, i)
		}
		if g := ix.lookup(int64(i*100 - 1)); g != i-1 {
			t.Fatalf("Lookup(sep-1) = %d, want %d", g, i-1)
		}
	}
}

func TestSetPropagatesToAncestors(t *testing.T) {
	n := indexFanout*indexFanout + 1 // forces three levels
	ix, seps := buildSeps(n)
	if h := len(ix.levels); h != 3 {
		t.Fatalf("height = %d, want 3", h)
	}
	// Gate indexFanout^2 is the leftmost leaf of both its level-1 and level-2
	// ancestors: updating it must update both copies, otherwise lookups
	// route wrongly.
	g := indexFanout * indexFanout
	seps[g] = seps[g] + 50
	ix.set(g, seps[g])
	for k := seps[g] - 60; k < seps[g]+60; k++ {
		want := refLookup(seps, k)
		if got := ix.lookup(k); got != want {
			t.Fatalf("after Set: Lookup(%d) = %d, want %d", k, got, want)
		}
	}
}

func TestSetOutOfRangePanics(t *testing.T) {
	ix := newStaticIndex(4)
	for _, g := range []int{-1, 4} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("Set(%d) did not panic", g)
				}
			}()
			ix.set(g, 1)
		}()
	}
}

func TestLookupRandomisedAgainstReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(2000)
		seps := make([]int64, n)
		seps[0] = KeyMin
		cur := int64(0)
		for i := 1; i < n; i++ {
			cur += 1 + rng.Int63n(1000)
			seps[i] = cur
		}
		ix := newStaticIndex(n)
		for i, s := range seps {
			ix.set(i, s)
		}
		for q := 0; q < 200; q++ {
			k := rng.Int63n(cur + 100)
			want := refLookup(seps, k)
			if got := ix.lookup(k); got != want {
				t.Fatalf("n=%d Lookup(%d) = %d, want %d", n, k, got, want)
			}
		}
	}
}

// TestConcurrentLookupsAndSets verifies the contract under races: lookups
// must stay within bounds and, once updates stop, converge to the reference.
func TestConcurrentLookupsAndSets(t *testing.T) {
	const n = 500
	ix, seps := buildSeps(n)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				g := ix.lookup(rng.Int63n(n * 100))
				if g < 0 || g >= n {
					t.Errorf("Lookup out of bounds: %d", g)
					return
				}
			}
		}(int64(w))
	}
	// Writer: jitter separators (keeping them within their slot) as a
	// rebalance updating fence keys would.
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 50_000; i++ {
		g := 1 + rng.Intn(n-1)
		ix.set(g, int64(g*100)+rng.Int63n(50))
	}
	close(stop)
	wg.Wait()
	// Restore canonical separators and verify convergence.
	for i, s := range seps {
		ix.set(i, s)
	}
	for k := int64(0); k < n*100; k += 13 {
		if got, want := ix.lookup(k), refLookup(seps, k); got != want {
			t.Fatalf("after quiescence Lookup(%d) = %d, want %d", k, got, want)
		}
	}
}

func TestHeightGrowth(t *testing.T) {
	cases := []struct{ n, h int }{
		{1, 1}, {indexFanout, 1}, {indexFanout + 1, 2},
		{indexFanout * indexFanout, 2}, {indexFanout*indexFanout + 1, 3},
	}
	for _, c := range cases {
		if got := len(newStaticIndex(c.n).levels); got != c.h {
			t.Errorf("Height(%d gates) = %d, want %d", c.n, got, c.h)
		}
	}
}

func TestLookupIsMonotonic(t *testing.T) {
	ix, _ := buildSeps(333)
	prev := 0
	keys := make([]int64, 0, 1000)
	for k := int64(-10); k < 34000; k += 11 {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	for _, k := range keys {
		g := ix.lookup(k)
		if g < prev {
			t.Fatalf("Lookup not monotonic: key %d -> gate %d after gate %d", k, g, prev)
		}
		prev = g
	}
}
