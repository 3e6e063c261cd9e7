package core

import "sync/atomic"

// The static index of Section 3.2: a B+-tree over the gates' minimum fence
// keys (the separator keys) whose nodes are laid out contiguously in dense
// arrays, level by level, and traversed with arithmetic instead of child
// pointers.
//
// The index is static: the number of separators is fixed at construction and
// the whole index is rebuilt only when the sparse array is resized (a new
// state). The *values* of separators change during rebalances; a writer
// owning the corresponding gate's latch updates them in place with plain
// atomic stores, at positions computed arithmetically — no traversal, no
// latching of the index itself.
//
// Readers traverse without synchronisation. A concurrent separator update
// can therefore route a reader to a nearby-but-wrong gate; callers verify
// the target gate's fence keys and walk to neighbours, as the paper
// prescribes (enter, state.judge). What the index does guarantee, even under
// races, is that the returned position is always a valid gate number.

// indexFanout is the number of separator keys per node. Sixteen 8-byte keys
// span two cache lines, keeping the per-level search short and local.
const indexFanout = 16

// staticIndex is the separator-key tree. It is immutable in shape; separator
// values are updated atomically in place.
type staticIndex struct {
	// levels[0] holds the n separator keys; levels[i+1][j] caches
	// levels[i][j*indexFanout]. The top level has at most indexFanout
	// entries.
	levels [][]int64
	n      int
}

// newStaticIndex builds an index over n gates. Separators start at KeyMin;
// callers set real values before use (or rely on fence-key verification,
// which tolerates any interim value).
func newStaticIndex(n int) *staticIndex {
	if n < 1 {
		n = 1
	}
	idx := &staticIndex{n: n}
	for sz := n; ; sz = (sz + indexFanout - 1) / indexFanout {
		level := make([]int64, sz)
		for i := range level {
			level[i] = KeyMin
		}
		idx.levels = append(idx.levels, level)
		if sz <= indexFanout {
			break
		}
	}
	return idx
}

// set updates the separator key of gate g, propagating the value to the
// ancestor copies whose position is derivable arithmetically (gate g is the
// leftmost leaf of an ancestor node exactly when g is divisible by the
// corresponding power of the fanout). The caller must own gate g's latch in
// exclusive mode, or the state must not yet be published; concurrent readers
// may observe the ancestors and the leaf out of sync, which the fence-key
// check absorbs.
func (ix *staticIndex) set(g int, key int64) {
	if g < 0 || g >= ix.n {
		panic("core: separator position out of range")
	}
	atomic.StoreInt64(&ix.levels[0][g], key)
	for l := 1; l < len(ix.levels); l++ {
		if g%indexFanout != 0 {
			break
		}
		g /= indexFanout
		atomic.StoreInt64(&ix.levels[l][g], key)
	}
}

// get returns the current separator of gate g.
func (ix *staticIndex) get(g int) int64 {
	return atomic.LoadInt64(&ix.levels[0][g])
}

// lookup returns the gate that should hold key k: the rightmost gate whose
// separator is <= k. Under concurrent separator updates the result may be a
// neighbour of the correct gate; it is always within [0, n).
func (ix *staticIndex) lookup(k int64) int {
	top := len(ix.levels) - 1
	node := 0 // node index within the current level
	for l := top; l >= 0; l-- {
		level := ix.levels[l]
		lo := node * indexFanout
		if l == top {
			lo = 0
		}
		hi := lo + indexFanout
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
