// Package sindex implements the static index of Section 3.2: a B+-tree over
// the gates' minimum fence keys (the separator keys) whose nodes are laid out
// contiguously in dense arrays, level by level, and traversed with pointer
// arithmetic instead of child pointers.
//
// The index is static: the number of separators is fixed at construction and
// the whole index is rebuilt only when the sparse array is resized. The
// *values* of separators change during rebalances; a writer owning the
// corresponding gate's latch updates them in place with plain atomic stores,
// at positions computed arithmetically — no traversal, no latching of the
// index itself.
//
// Readers traverse without synchronisation. A concurrent separator update
// can therefore route a reader to a nearby-but-wrong gate; callers must
// verify the target gate's fence keys and walk to neighbours, as the paper
// prescribes. What the index does guarantee, even under races, is that the
// returned position is always a valid gate number.
package sindex

import (
	"math"
	"sync/atomic"
)

// Fanout is the number of separator keys per node. Sixteen 8-byte keys span
// two cache lines, keeping the per-level search short and local.
const Fanout = 16

// MinKey is the -inf separator of gate 0.
const MinKey = math.MinInt64

// Index is the static separator-key tree. It is immutable in shape; separator
// values are updated atomically in place.
type Index struct {
	// levels[0] holds the n separator keys; levels[i+1][j] caches
	// levels[i][j*Fanout]. The top level has at most Fanout entries.
	levels [][]int64
	n      int
}

// New builds an index over n gates. Separators are initialised to MinKey;
// callers set real values with Set before use (or rely on fence-key
// verification, which tolerates any interim value).
func New(n int) *Index {
	if n < 1 {
		n = 1
	}
	idx := &Index{n: n}
	for sz := n; ; sz = (sz + Fanout - 1) / Fanout {
		level := make([]int64, sz)
		for i := range level {
			level[i] = MinKey
		}
		idx.levels = append(idx.levels, level)
		if sz <= Fanout {
			break
		}
	}
	return idx
}

// Len returns the number of gates indexed.
func (ix *Index) Len() int { return ix.n }

// Set updates the separator key of gate g, propagating the value to the
// ancestor copies whose position is derivable arithmetically (gate g is the
// leftmost leaf of an ancestor node exactly when g is divisible by the
// corresponding power of the fanout). The caller must own gate g's latch in
// exclusive mode; concurrent readers may observe the ancestors and the leaf
// out of sync, which the fence-key check absorbs.
func (ix *Index) Set(g int, key int64) {
	if g < 0 || g >= ix.n {
		panic("sindex: separator position out of range")
	}
	atomic.StoreInt64(&ix.levels[0][g], key)
	for l := 1; l < len(ix.levels); l++ {
		if g%Fanout != 0 {
			break
		}
		g /= Fanout
		atomic.StoreInt64(&ix.levels[l][g], key)
	}
}

// Get returns the current separator of gate g (test helper).
func (ix *Index) Get(g int) int64 {
	return atomic.LoadInt64(&ix.levels[0][g])
}

// Lookup returns the gate that should hold key k: the rightmost gate whose
// separator is <= k. Under concurrent separator updates the result may be a
// neighbour of the correct gate; it is always within [0, Len()).
func (ix *Index) Lookup(k int64) int {
	top := len(ix.levels) - 1
	node := 0 // node index within the current level
	for l := top; l >= 0; l-- {
		level := ix.levels[l]
		lo := node * Fanout
		if l == top {
			lo = 0
		}
		hi := lo + Fanout
		if hi > len(level) {
			hi = len(level)
		}
		// Rightmost separator <= k within the node; entry lo is the
		// subtree minimum, taken as the fallback even if a torn read
		// makes it appear > k.
		pos := lo
		for i := lo + 1; i < hi; i++ {
			if atomic.LoadInt64(&level[i]) <= k {
				pos = i
			} else {
				break
			}
		}
		node = pos
	}
	if node >= ix.n {
		node = ix.n - 1
	}
	return node
}
