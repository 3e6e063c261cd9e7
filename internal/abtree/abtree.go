// Package abtree implements the ART + B+-tree baseline of Section 4: the
// elements live in the sorted leaves of a custom B+-tree (4 KiB leaves by
// default, linked for range scans, protected by conventional lock coupling),
// while an Adaptive Radix Tree with optimistic lock coupling serves as the
// secondary index mapping each leaf's minimum key to the leaf.
//
// The paper issues explicit prefetch instructions when scanning the leaf
// chain; Go has no portable prefetch intrinsic, so that constant-factor
// optimisation is omitted.
package abtree

import (
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"pmago/internal/art"
)

// search returns the position of the first key >= k.
func search(keys []int64, k int64) int {
	return sort.Search(len(keys), func(i int) bool { return keys[i] >= k })
}

// DefaultLeafCapacity is 256 pairs of 16 bytes = 4 KiB, the paper's default
// leaf size. The Section 4.1 ablation doubles it to 512 (8 KiB).
const DefaultLeafCapacity = 256

const (
	keyMin = math.MinInt64
	keyMax = math.MaxInt64
)

// Config tunes the tree.
type Config struct {
	// LeafCapacity is the number of key/value pairs per leaf.
	LeafCapacity int
}

// leaf is one B+-tree leaf: a sorted run of pairs plus the fence interval
// [lo, hi] it is responsible for. next links the leaf chain; it only changes
// under the leaf's write lock, and a reader holding the lock (shared or
// exclusive) is guaranteed next is alive, because merges lock both sides.
type leaf struct {
	mu     sync.RWMutex
	lo, hi int64
	keys   []int64
	vals   []int64
	next   *leaf
	dead   bool
}

// Tree is the concurrent ART + B+-tree store. All methods are safe for
// concurrent use.
type Tree struct {
	cap  int
	idx  *art.Tree[leaf]
	head *leaf // first leaf (lo = keyMin); never dies
	size atomic.Int64
}

// ukey maps int64 keys to uint64 preserving order (ART compares unsigned).
func ukey(k int64) uint64 { return uint64(k) ^ (1 << 63) }

// New returns an empty tree.
func New(cfg Config) *Tree {
	if cfg.LeafCapacity <= 1 {
		cfg.LeafCapacity = DefaultLeafCapacity
	}
	t := &Tree{cap: cfg.LeafCapacity, idx: art.New[leaf]()}
	t.head = &leaf{lo: keyMin, hi: keyMax}
	t.idx.Insert(ukey(keyMin), t.head)
	return t
}

// Len returns the number of stored pairs.
func (t *Tree) Len() int { return int(t.size.Load()) }

// findLeaf routes k through ART and locks the owning leaf in the requested
// mode, retrying across splits, merges and borrows.
func (t *Tree) findLeaf(k int64, write bool) *leaf {
	for i := 0; ; i++ {
		l, ok := t.idx.Floor(ukey(k))
		if !ok {
			// Transient window while a borrow republishes a leaf's
			// separator; the head leaf always routes eventually.
			runtime.Gosched()
			continue
		}
		if write {
			l.mu.Lock()
		} else {
			l.mu.RLock()
		}
		if !l.dead && k >= l.lo && k <= l.hi {
			return l
		}
		if write {
			l.mu.Unlock()
		} else {
			l.mu.RUnlock()
		}
		if i > 32 {
			runtime.Gosched()
		}
	}
}

// Get returns the value stored under k.
func (t *Tree) Get(k int64) (int64, bool) {
	l := t.findLeaf(k, false)
	i := search(l.keys, k)
	var v int64
	ok := i < len(l.keys) && l.keys[i] == k
	if ok {
		v = l.vals[i]
	}
	l.mu.RUnlock()
	return v, ok
}

// Put inserts or replaces k/v.
func (t *Tree) Put(k, v int64) {
	if k == keyMin || k == keyMax {
		panic("abtree: cannot store sentinel key")
	}
	l := t.findLeaf(k, true)
	i := search(l.keys, k)
	if i < len(l.keys) && l.keys[i] == k {
		l.vals[i] = v
		l.mu.Unlock()
		return
	}
	l.keys = append(l.keys, 0)
	l.vals = append(l.vals, 0)
	copy(l.keys[i+1:], l.keys[i:])
	copy(l.vals[i+1:], l.vals[i:])
	l.keys[i] = k
	l.vals[i] = v
	t.size.Add(1)
	if len(l.keys) > t.cap {
		t.split(l)
	}
	l.mu.Unlock()
}

// split halves the (over-full, write-locked) leaf, publishing the right half
// in ART before truncating the left, so routed readers always find the keys.
func (t *Tree) split(l *leaf) {
	mid := len(l.keys) / 2
	right := &leaf{
		lo:   l.keys[mid],
		hi:   l.hi,
		keys: append(make([]int64, 0, t.cap+1), l.keys[mid:]...),
		vals: append(make([]int64, 0, t.cap+1), l.vals[mid:]...),
		next: l.next,
	}
	t.idx.Insert(ukey(right.lo), right)
	l.keys = l.keys[:mid]
	l.vals = l.vals[:mid]
	l.hi = right.lo - 1
	l.next = right
}

// Delete removes k, reporting whether it was present.
func (t *Tree) Delete(k int64) bool {
	l := t.findLeaf(k, true)
	i := search(l.keys, k)
	if i == len(l.keys) || l.keys[i] != k {
		l.mu.Unlock()
		return false
	}
	l.keys = append(l.keys[:i], l.keys[i+1:]...)
	l.vals = append(l.vals[:i], l.vals[i+1:]...)
	t.size.Add(-1)
	if len(l.keys) < t.cap/4 {
		t.rebalanceLeaf(l)
	}
	l.mu.Unlock()
	return true
}

// rebalanceLeaf merges the underfull leaf with its successor or borrows from
// it. Lock order is strictly left-to-right (the same order scans couple
// locks in), so there is no deadlock. The caller holds l's write lock.
func (t *Tree) rebalanceLeaf(l *leaf) {
	r := l.next
	if r == nil {
		return // rightmost leaf may stay underfull
	}
	r.mu.Lock()
	if len(l.keys)+len(r.keys) <= t.cap {
		// Merge r into l.
		l.keys = append(l.keys, r.keys...)
		l.vals = append(l.vals, r.vals...)
		l.hi = r.hi
		l.next = r.next
		oldLo := r.lo
		r.dead = true
		r.mu.Unlock()
		t.idx.Delete(ukey(oldLo))
		return
	}
	if len(r.keys) > len(l.keys)+1 {
		// Borrow the front of r: move keys, then republish r's
		// separator (delete + insert leaves a tiny routing window that
		// findLeaf absorbs by retrying).
		m := (len(r.keys) - len(l.keys)) / 2
		l.keys = append(l.keys, r.keys[:m]...)
		l.vals = append(l.vals, r.vals[:m]...)
		oldLo := r.lo
		r.keys = append(make([]int64, 0, t.cap+1), r.keys[m:]...)
		r.vals = append(make([]int64, 0, t.cap+1), r.vals[m:]...)
		r.lo = r.keys[0]
		l.hi = r.lo - 1
		newLo := r.lo
		r.mu.Unlock()
		t.idx.Delete(ukey(oldLo))
		t.idx.Insert(ukey(newLo), r)
		return
	}
	r.mu.Unlock()
}

// Scan visits all pairs with lo <= key <= hi in ascending order, stopping
// when fn returns false. Leaf locks are coupled left-to-right.
func (t *Tree) Scan(lo, hi int64, fn func(k, v int64) bool) {
	if lo > hi {
		return
	}
	l := t.findLeaf(lo, false)
	i := search(l.keys, lo)
	for {
		for ; i < len(l.keys); i++ {
			if l.keys[i] > hi {
				l.mu.RUnlock()
				return
			}
			if !fn(l.keys[i], l.vals[i]) {
				l.mu.RUnlock()
				return
			}
		}
		if l.hi >= hi || l.next == nil {
			l.mu.RUnlock()
			return
		}
		nxt := l.next
		nxt.mu.RLock() // coupling: next cannot die while we hold l
		l.mu.RUnlock()
		l = nxt
		i = 0
	}
}

// ScanAll visits every pair in ascending key order.
func (t *Tree) ScanAll(fn func(k, v int64) bool) {
	t.Scan(keyMin+1, keyMax-1, fn)
}

// Keys returns all keys in order (test helper).
func (t *Tree) Keys() []int64 {
	out := make([]int64, 0, t.Len())
	t.ScanAll(func(k, _ int64) bool { out = append(out, k); return true })
	return out
}

// Validate checks leaf-chain invariants (sorted keys, fence tiling, index
// agreement). Quiescent use only.
func (t *Tree) Validate() error {
	var prevHi int64 // only checked from the second leaf onward
	total := 0
	for l := t.head; l != nil; l = l.next {
		if l.dead {
			return errf("dead leaf in chain at lo=%d", l.lo)
		}
		if l == t.head {
			if l.lo != keyMin {
				return errf("head leaf lo = %d", l.lo)
			}
		} else if l.lo != prevHi+1 {
			return errf("leaf lo %d does not tile with previous hi %d", l.lo, prevHi)
		}
		for i, k := range l.keys {
			if k < l.lo || k > l.hi {
				return errf("key %d outside leaf fences [%d,%d]", k, l.lo, l.hi)
			}
			if i > 0 && l.keys[i-1] >= k {
				return errf("unsorted leaf at key %d", k)
			}
		}
		total += len(l.keys)
		prevHi = l.hi
	}
	if prevHi != keyMax {
		return errf("last leaf hi = %d", prevHi)
	}
	if total != t.Len() {
		return errf("leaf sum %d != size %d", total, t.Len())
	}
	return nil
}
