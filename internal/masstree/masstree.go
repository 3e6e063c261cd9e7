// Package masstree implements the Masstree-style baseline of Section 4 [Mao,
// Kohler & Morris, EuroSys 2012]: a write-optimised ordered index whose
// defining features are small border (leaf) nodes of 15 entries, unsorted
// in-node storage governed by a single permutation word, and optimistic
// readers that validate per-node version counters instead of taking locks.
// These are exactly the properties the paper credits for Masstree's high
// update throughput and blames for its poor scans ("small leaves cause more
// random memory jumps while introducing additional overhead due to version
// checks and unsorted elements").
//
// With the evaluation's fixed 8-byte keys a single trie layer suffices; the
// interior index above the border nodes reuses the optimistic-lock-coupling
// radix tree from internal/art (a trie interior, in the spirit of Masstree's
// trie-of-B+-trees layering). Masstree's background border-node garbage
// collection is omitted: emptied borders stay linked and scans skip them.
package masstree

import (
	"math"
	"runtime"
	"sync/atomic"

	"pmago/internal/art"
)

// Fanout is the number of entries per border node (Masstree uses 15).
const Fanout = 15

const (
	keyMin = math.MinInt64
	keyMax = math.MaxInt64
)

const lockBit uint32 = 1

// border is a Masstree border node: up to 15 key/value pairs stored in
// insertion slots, with the permutation word mapping key rank to slot. All
// reader-visible fields are atomics; writers serialise through the version
// lock bit and bump the version counter on unlock, invalidating optimistic
// readers.
type border struct {
	version atomic.Uint32
	perm    atomic.Uint64 // low 4 bits: count; nibble i+1: slot of rank i
	keys    [Fanout]atomic.Int64
	vals    [Fanout]atomic.Int64
	lo      int64        // inclusive lower fence; immutable
	hi      atomic.Int64 // inclusive upper fence; changes only on split
	next    atomic.Pointer[border]
}

// permutation helpers. The word always contains all 15 slot ids as nibbles;
// the first count nibbles are the live ranks in key order, the rest are the
// free list.
func permCount(p uint64) int { return int(p & 0xF) }

func permSlot(p uint64, rank int) int {
	return int((p >> (4 * (rank + 1))) & 0xF)
}

// permIdentity is the empty permutation: count 0, slots 0..14 in order.
func permIdentity() uint64 {
	var p uint64
	for i := 0; i < Fanout; i++ {
		p |= uint64(i) << (4 * (i + 1))
	}
	return p
}

// permInsert returns p with the first free slot spliced in at rank r, and
// that slot's index. Requires count < Fanout.
func permInsert(p uint64, r int) (uint64, int) {
	count := permCount(p)
	slot := permSlot(p, count) // first free nibble
	// Shift ranks r..count-1 up by one nibble.
	var np uint64 = uint64(count + 1)
	for i := 0; i < count+1; i++ {
		var s int
		switch {
		case i < r:
			s = permSlot(p, i)
		case i == r:
			s = slot
		default:
			s = permSlot(p, i-1)
		}
		np |= uint64(s) << (4 * (i + 1))
	}
	// Remaining free nibbles (after the consumed one) keep their order.
	for i := count + 1; i < Fanout; i++ {
		np |= uint64(permSlot(p, i)) << (4 * (i + 1))
	}
	return np, slot
}

// permRemove returns p with rank r removed; the freed slot goes to the end
// of the free list.
func permRemove(p uint64, r int) uint64 {
	count := permCount(p)
	freed := permSlot(p, r)
	var np uint64 = uint64(count - 1)
	pos := 0
	for i := 0; i < count; i++ {
		if i == r {
			continue
		}
		np |= uint64(permSlot(p, i)) << (4 * (pos + 1))
		pos++
	}
	for i := count; i < Fanout; i++ {
		np |= uint64(permSlot(p, i)) << (4 * (pos + 1))
		pos++
	}
	np |= uint64(freed) << (4 * (pos + 1))
	return np
}

// lock spins on the border's version lock bit.
func (b *border) lock() {
	for i := 0; ; i++ {
		v := b.version.Load()
		if v&lockBit == 0 && b.version.CompareAndSwap(v, v|lockBit) {
			return
		}
		if i > 64 {
			runtime.Gosched()
		}
	}
}

// unlock releases the lock, bumping the version counter so optimistic
// readers that overlapped the write retry.
func (b *border) unlock() {
	b.version.Store((b.version.Load() &^ lockBit) + 2)
}

// stable samples an unlocked version for an optimistic read.
func (b *border) stable() uint32 {
	for i := 0; ; i++ {
		v := b.version.Load()
		if v&lockBit == 0 {
			return v
		}
		if i > 64 {
			runtime.Gosched()
		}
	}
}

// Tree is the concurrent Masstree-style store.
type Tree struct {
	idx  *art.Tree[border]
	head *border
	size atomic.Int64
}

func ukey(k int64) uint64 { return uint64(k) ^ (1 << 63) }

// New returns an empty tree.
func New() *Tree {
	t := &Tree{idx: art.New[border]()}
	t.head = &border{lo: keyMin}
	t.head.hi.Store(keyMax)
	t.head.perm.Store(permIdentity())
	t.idx.Insert(ukey(keyMin), t.head)
	return t
}

// Len returns the number of stored pairs.
func (t *Tree) Len() int { return int(t.size.Load()) }

// route returns the border whose fences contain k (unlocked; caller
// validates under its own protocol).
func (t *Tree) route(k int64) *border {
	for i := 0; ; i++ {
		b, ok := t.idx.Floor(ukey(k))
		if ok && k >= b.lo && k <= b.hi.Load() {
			return b
		}
		if i > 32 {
			runtime.Gosched()
		}
	}
}

// Get returns the value stored under k via an optimistic read.
func (t *Tree) Get(k int64) (int64, bool) {
	for {
		b := t.route(k)
		v1 := b.stable()
		if k < b.lo || k > b.hi.Load() {
			continue // split moved the range; re-route
		}
		p := b.perm.Load()
		var val int64
		found := false
		for r, c := 0, permCount(p); r < c; r++ {
			s := permSlot(p, r)
			if b.keys[s].Load() == k {
				val = b.vals[s].Load()
				found = true
				break
			}
		}
		if b.version.Load() == v1 {
			return val, found
		}
	}
}

// lockedBorder routes k and locks the owning border, re-routing across
// concurrent splits.
func (t *Tree) lockedBorder(k int64) *border {
	for {
		b := t.route(k)
		b.lock()
		if k >= b.lo && k <= b.hi.Load() {
			return b
		}
		b.unlock()
	}
}

// Put inserts or replaces k/v.
func (t *Tree) Put(k, v int64) {
	if k == keyMin || k == keyMax {
		panic("masstree: cannot store sentinel key")
	}
	for {
		b := t.lockedBorder(k)
		p := b.perm.Load()
		count := permCount(p)
		// Rank search (keys are reached through the permutation, which
		// is maintained in key order).
		r := 0
		for ; r < count; r++ {
			s := permSlot(p, r)
			bk := b.keys[s].Load()
			if bk == k {
				b.vals[s].Store(v)
				b.unlock()
				return
			}
			if bk > k {
				break
			}
		}
		if count < Fanout {
			np, slot := permInsert(p, r)
			b.keys[slot].Store(k)
			b.vals[slot].Store(v)
			b.perm.Store(np) // publish after the pair is in place
			b.unlock()
			t.size.Add(1)
			return
		}
		t.split(b)
		// Retry: k now belongs to one of the two halves.
	}
}

// split divides the full, locked border in two and publishes the right half
// in the interior index; the border is unlocked on return.
func (t *Tree) split(b *border) {
	p := b.perm.Load()
	mid := Fanout / 2 // ranks [mid, Fanout) move right
	right := &border{}
	right.hi.Store(b.hi.Load())
	right.next.Store(b.next.Load())
	rp := permIdentity()
	for i, r := 0, mid; r < Fanout; i, r = i+1, r+1 {
		s := permSlot(p, r)
		var slot int
		rp, slot = permInsert(rp, i)
		right.keys[slot].Store(b.keys[s].Load())
		right.vals[slot].Store(b.vals[s].Load())
	}
	right.perm.Store(rp)
	right.lo = b.keys[permSlot(p, mid)].Load()

	// Publish the right node, then shrink the left under its lock.
	t.idx.Insert(ukey(right.lo), right)
	np := uint64(mid)
	for i := 0; i < mid; i++ {
		np |= uint64(permSlot(p, i)) << (4 * (i + 1))
	}
	pos := mid
	for r := mid; r < Fanout; r++ { // moved slots become free
		np |= uint64(permSlot(p, r)) << (4 * (pos + 1))
		pos++
	}
	b.perm.Store(np)
	b.hi.Store(right.lo - 1)
	b.next.Store(right)
	b.unlock()
}

// Delete removes k, reporting whether it was present. Emptied borders stay
// in place (no structural removal, as documented).
func (t *Tree) Delete(k int64) bool {
	if k == keyMin || k == keyMax {
		return false
	}
	b := t.lockedBorder(k)
	p := b.perm.Load()
	for r, c := 0, permCount(p); r < c; r++ {
		s := permSlot(p, r)
		bk := b.keys[s].Load()
		if bk == k {
			b.perm.Store(permRemove(p, r))
			b.unlock()
			t.size.Add(-1)
			return true
		}
		if bk > k {
			break
		}
	}
	b.unlock()
	return false
}

// Scan visits all pairs with lo <= key <= hi in ascending order, stopping
// when fn returns false. Each border is snapshotted optimistically (the
// version-check overhead the paper attributes to Masstree scans).
func (t *Tree) Scan(lo, hi int64, fn func(k, v int64) bool) {
	if lo > hi {
		return
	}
	var ks, vs [Fanout]int64
	b := t.route(lo)
	for b != nil {
		v1 := b.stable()
		p := b.perm.Load()
		count := permCount(p)
		n := 0
		for r := 0; r < count; r++ {
			s := permSlot(p, r)
			ks[n] = b.keys[s].Load()
			vs[n] = b.vals[s].Load()
			n++
		}
		next := b.next.Load()
		bHi := b.hi.Load()
		if b.version.Load() != v1 {
			continue // retry this border
		}
		for i := 0; i < n; i++ {
			if ks[i] < lo {
				continue
			}
			if ks[i] > hi {
				return
			}
			if !fn(ks[i], vs[i]) {
				return
			}
		}
		if bHi >= hi {
			return
		}
		b = next
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

// Validate checks border-chain invariants; quiescent use only.
func (t *Tree) Validate() error {
	prev := int64(keyMin)
	total := 0
	for b := t.head; b != nil; b = b.next.Load() {
		p := b.perm.Load()
		count := permCount(p)
		seen := map[int]bool{}
		for r := 0; r < count; r++ {
			s := permSlot(p, r)
			if seen[s] {
				return errf("duplicate slot %d in permutation", s)
			}
			seen[s] = true
			k := b.keys[s].Load()
			if k <= prev {
				return errf("order violation: %d after %d", k, prev)
			}
			if k < b.lo || k > b.hi.Load() {
				return errf("key %d outside fences [%d,%d]", k, b.lo, b.hi.Load())
			}
			prev = k
		}
		total += count
	}
	if total != t.Len() {
		return errf("border sum %d != size %d", total, t.Len())
	}
	return nil
}
