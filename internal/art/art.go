// Package art implements an Adaptive Radix Tree [Leis et al., ICDE 2013]
// with Optimistic Lock Coupling [Leis et al., DaMoN 2016] over fixed 8-byte
// keys. In this repository it serves as the secondary index of the ART +
// B+-tree baseline of Section 4: it maps each B+-tree leaf's minimum key to
// the leaf, and answers Floor queries (the rightmost entry <= k) that route
// operations to leaves.
//
// Concurrency: every node carries a version word (bit 0 = obsolete, bit 1 =
// locked, upper bits = counter). Readers traverse without locks, validating
// versions after reading a node's fields and restarting the operation on any
// conflict. Writers spin-lock the nodes they modify (and the parent when the
// node is grown, shrunk or replaced). The fields optimistic readers touch
// (child keys, child count, compressed prefix) are stored atomically so the
// protocol is well-defined under the Go memory model: a torn logical state
// is still a sequence of valid loads, and the version validation rejects it.
//
// With 8-byte keys a compressed prefix is at most 7 bytes (every node
// consumes at least its child byte), so the whole prefix packs into a single
// atomic word: readers always observe a consistent (length, bytes) pair.
package art

import (
	"runtime"
	"sync/atomic"
)

// node kinds.
const (
	kindN4 uint8 = iota
	kindN16
	kindN48
	kindN256
	kindLeaf
)

// node is an ART node of any kind. Children are indexed differently per
// kind: N4/N16 keep parallel keys/children arrays, N48 keeps a 256-entry
// indirection into children, N256 indexes children directly.
type node[V any] struct {
	version atomic.Uint64
	prefix  atomic.Uint64 // packed compressed path: low byte = length, bytes 1..7 = path
	numCh   atomic.Uint32

	kind uint8

	keys     []atomic.Uint32           // N4/N16: child key bytes; N48: child slot + 1 (0 = empty)
	children []atomic.Pointer[node[V]] // kind-dependent fan-out

	// Leaf fields.
	key uint64
	val atomic.Pointer[V]
}

// Tree is a concurrent ART keyed by uint64 (compared numerically, traversed
// big-endian byte-wise) holding *V values.
type Tree[V any] struct {
	root atomic.Pointer[node[V]] // always an inner node (possibly empty N4)
}

// New returns an empty tree.
func New[V any]() *Tree[V] {
	t := &Tree[V]{}
	t.root.Store(newInner[V](kindN4, nil))
	return t
}

// packPrefix encodes up to 7 path bytes plus their count into one word.
func packPrefix(p []byte) uint64 {
	v := uint64(len(p))
	for i, b := range p {
		v |= uint64(b) << (8 * (i + 1))
	}
	return v
}

func unpackPrefix(v uint64) (b [7]byte, l int) {
	l = int(v & 0xFF)
	for i := 0; i < l; i++ {
		b[i] = byte(v >> (8 * (i + 1)))
	}
	return b, l
}

func newInner[V any](kind uint8, prefix []byte) *node[V] {
	n := &node[V]{kind: kind}
	n.prefix.Store(packPrefix(prefix))
	switch kind {
	case kindN4:
		n.keys = make([]atomic.Uint32, 4)
		n.children = make([]atomic.Pointer[node[V]], 4)
	case kindN16:
		n.keys = make([]atomic.Uint32, 16)
		n.children = make([]atomic.Pointer[node[V]], 16)
	case kindN48:
		n.keys = make([]atomic.Uint32, 256)
		n.children = make([]atomic.Pointer[node[V]], 48)
	case kindN256:
		n.children = make([]atomic.Pointer[node[V]], 256)
	}
	return n
}

func newLeaf[V any](k uint64, v *V) *node[V] {
	n := &node[V]{kind: kindLeaf, key: k}
	n.val.Store(v)
	return n
}

// --- version lock protocol ---

const (
	obsoleteBit uint64 = 1
	lockBit     uint64 = 2
)

// readLock samples a stable (unlocked) version.
func (n *node[V]) readLock() (uint64, bool) {
	for i := 0; ; i++ {
		v := n.version.Load()
		if v&lockBit == 0 {
			return v, v&obsoleteBit == 0
		}
		if i > 64 {
			runtime.Gosched()
		}
	}
}

// readUnlock validates that the version did not change.
func (n *node[V]) readUnlock(v uint64) bool {
	return n.version.Load() == v
}

// validate is readUnlock for the parent a descent came through: it must run
// after the child's readLock, because a writer holding both locks (a prefix
// split) can rewrite the child between the two, and the child's fields are
// only meaningful at the depth the unchanged parent implies. A nil parent
// (the descent is at the root) always validates.
func (n *node[V]) validate(v uint64) bool {
	return n == nil || n.readUnlock(v)
}

// lock acquires the write lock, failing if the node became obsolete.
func (n *node[V]) lock() bool {
	for i := 0; ; i++ {
		v := n.version.Load()
		if v&obsoleteBit != 0 {
			return false
		}
		if v&lockBit == 0 && n.version.CompareAndSwap(v, v|lockBit) {
			return true
		}
		if i > 64 {
			runtime.Gosched()
		}
	}
}

// upgrade converts a validated read into a write lock; fails on conflict.
func (n *node[V]) upgrade(v uint64) bool {
	return n.version.CompareAndSwap(v, v|lockBit)
}

// unlock releases the write lock, bumping the version counter.
func (n *node[V]) unlock() {
	n.version.Store((n.version.Load() &^ lockBit) + 4)
}

// unlockObsolete releases the write lock and marks the node dead.
func (n *node[V]) unlockObsolete() {
	n.version.Store(((n.version.Load() &^ lockBit) + 4) | obsoleteBit)
}

// --- byte-wise helpers ---

func keyBytes(k uint64) [8]byte {
	var b [8]byte
	for i := 0; i < 8; i++ {
		b[i] = byte(k >> (56 - 8*i))
	}
	return b
}

// childIndex returns the slot of byte b in n, or -1.
func (n *node[V]) childIndex(b byte) int {
	switch n.kind {
	case kindN4, kindN16:
		nc := int(n.numCh.Load())
		for i := 0; i < nc && i < len(n.keys); i++ {
			if byte(n.keys[i].Load()) == b {
				return i
			}
		}
		return -1
	case kindN48:
		if idx := n.keys[b].Load(); idx != 0 {
			return int(idx - 1)
		}
		return -1
	default: // N256
		if n.children[b].Load() != nil {
			return int(b)
		}
		return -1
	}
}

// child returns the child for byte b (nil if absent).
func (n *node[V]) child(b byte) *node[V] {
	if i := n.childIndex(b); i >= 0 {
		return n.children[i].Load()
	}
	return nil
}

// childrenBelow appends to buf the children whose key byte is strictly below
// limit (pass 256 for all children), in descending byte order. Deletions can
// leave empty inner nodes behind, so floor searches must be able to fall
// back across several candidates, not just the largest one.
func (n *node[V]) childrenBelow(limit int, buf []*node[V]) []*node[V] {
	switch n.kind {
	case kindN4, kindN16:
		type kc struct {
			b byte
			c *node[V]
		}
		var tmp [16]kc
		cnt := 0
		nc := int(n.numCh.Load())
		for i := 0; i < nc && i < len(n.keys); i++ {
			kb := byte(n.keys[i].Load())
			if int(kb) < limit {
				if c := n.children[i].Load(); c != nil {
					tmp[cnt] = kc{kb, c}
					cnt++
				}
			}
		}
		// Insertion sort descending by byte (<= 16 entries).
		for i := 1; i < cnt; i++ {
			for j := i; j > 0 && tmp[j-1].b < tmp[j].b; j-- {
				tmp[j-1], tmp[j] = tmp[j], tmp[j-1]
			}
		}
		for i := 0; i < cnt; i++ {
			buf = append(buf, tmp[i].c)
		}
		return buf
	case kindN48:
		for kb := limit - 1; kb >= 0; kb-- {
			if idx := n.keys[kb].Load(); idx != 0 {
				if c := n.children[idx-1].Load(); c != nil {
					buf = append(buf, c)
				}
			}
		}
		return buf
	default:
		for kb := limit - 1; kb >= 0; kb-- {
			if c := n.children[kb].Load(); c != nil {
				buf = append(buf, c)
			}
		}
		return buf
	}
}

// addChild inserts (b -> c) into a node with spare capacity (caller ensures
// via full()). Caller holds the write lock. The child count is bumped last
// so optimistic readers never observe a half-written entry.
func (n *node[V]) addChild(b byte, c *node[V]) {
	switch n.kind {
	case kindN4, kindN16:
		i := n.numCh.Load()
		n.keys[i].Store(uint32(b))
		n.children[i].Store(c)
		n.numCh.Store(i + 1)
	case kindN48:
		for i := range n.children {
			if n.children[i].Load() == nil {
				n.children[i].Store(c)
				n.keys[b].Store(uint32(i + 1))
				n.numCh.Add(1)
				return
			}
		}
		panic("art: N48 addChild on full node")
	default:
		n.children[b].Store(c)
		n.numCh.Add(1)
	}
}

func (n *node[V]) full() bool {
	switch n.kind {
	case kindN4:
		return n.numCh.Load() == 4
	case kindN16:
		return n.numCh.Load() == 16
	case kindN48:
		return n.numCh.Load() == 48
	default:
		return false
	}
}

// grown returns a copy of n with the next larger kind (caller holds n's
// lock); children pointers are carried over.
func (n *node[V]) grown() *node[V] {
	pb, pl := unpackPrefix(n.prefix.Load())
	var g *node[V]
	switch n.kind {
	case kindN4:
		g = newInner[V](kindN16, pb[:pl])
	case kindN16:
		g = newInner[V](kindN48, pb[:pl])
	case kindN48:
		g = newInner[V](kindN256, pb[:pl])
	default:
		panic("art: cannot grow N256")
	}
	switch n.kind {
	case kindN4, kindN16:
		nc := int(n.numCh.Load())
		for i := 0; i < nc; i++ {
			g.addChild(byte(n.keys[i].Load()), n.children[i].Load())
		}
	case kindN48:
		for b := 0; b < 256; b++ {
			if idx := n.keys[b].Load(); idx != 0 {
				g.addChild(byte(b), n.children[idx-1].Load())
			}
		}
	}
	return g
}

// removeChild deletes the entry for byte b. Caller holds the write lock.
func (n *node[V]) removeChild(b byte) {
	switch n.kind {
	case kindN4, kindN16:
		nc := n.numCh.Load()
		for i := uint32(0); i < nc; i++ {
			if byte(n.keys[i].Load()) == b {
				last := nc - 1
				// Shrink first so readers never see the moved
				// entry twice with the count still high.
				n.numCh.Store(last)
				n.keys[i].Store(n.keys[last].Load())
				n.children[i].Store(n.children[last].Load())
				n.children[last].Store(nil)
				return
			}
		}
	case kindN48:
		if idx := n.keys[b].Load(); idx != 0 {
			n.keys[b].Store(0)
			n.children[idx-1].Store(nil)
			n.numCh.Add(^uint32(0))
		}
	default:
		if n.children[b].Load() != nil {
			n.children[b].Store(nil)
			n.numCh.Add(^uint32(0))
		}
	}
}

// matchPrefix compares the node prefix against the key at depth; returns the
// matched length, the byte position of divergence within the prefix, and
// whether the whole prefix matched. The prefix is read once, atomically.
func (n *node[V]) matchPrefix(kb [8]byte, depth int) (l int, diverge int, full bool) {
	pb, pl := unpackPrefix(n.prefix.Load())
	for i := 0; i < pl; i++ {
		if depth+i >= 8 || pb[i] != kb[depth+i] {
			return pl, i, false
		}
	}
	return pl, pl, true
}
