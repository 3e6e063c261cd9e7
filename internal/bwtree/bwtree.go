// Package bwtree implements the Bw-Tree baseline of Section 4 [Levandoski
// et al., ICDE 2013; Wang et al., SIGMOD 2018]: a lock-free B+-tree variant
// in which updates never modify nodes in place. Every logical node is an
// entry in a mapping table holding a chain of immutable delta records over a
// base node; writers prepend deltas with a single CAS, readers replay the
// chain. Chains are consolidated past a length threshold; splits install a
// consolidated left half whose side link points at the new right node, and
// traversals help by posting index-entry deltas at the parent.
//
// Simplifications relative to OpenBw-Tree: node
// merges are replaced by tolerated underflow (consolidation still removes
// deleted keys, and scans skip empty nodes), and the epoch-based reclamation
// of unlinked deltas is subsumed by Go's garbage collector, which provides
// the same safety property (no freed memory is reachable).
package bwtree

import (
	"math"
	"sort"
	"sync/atomic"
)

const (
	// DefaultLeafCapacity bounds a consolidated leaf before it splits.
	DefaultLeafCapacity = 128
	// DefaultInnerCapacity bounds a consolidated inner node's children.
	DefaultInnerCapacity = 128
	// DefaultConsolidateAt is the delta-chain length that triggers
	// consolidation.
	DefaultConsolidateAt = 8

	keyMin = math.MinInt64
	keyMax = math.MaxInt64
)

// Config tunes the tree.
type Config struct {
	LeafCapacity  int
	InnerCapacity int
	ConsolidateAt int
}

type nodeID int32

const invalidID nodeID = -1

type nodeKind uint8

const (
	leafBase nodeKind = iota
	innerBase
	deltaInsert
	deltaDelete
	deltaIndexEntry
)

// node is either a base node or a delta record; all fields are immutable
// once the node is published through the mapping table.
type node struct {
	kind nodeKind
	leaf bool  // level of the chain this record belongs to
	next *node // older chain suffix (nil for base nodes)

	chainLen int32

	// Base node payload. hiKey is the exclusive upper fence (keyMax =
	// +inf); side is the right sibling at the same level.
	keys []int64
	vals []int64 // leaf values
	kids []nodeID
	hi   int64
	side nodeID

	// Delta payload: insert/delete key+val, or an index entry mapping
	// keys in [key, ...) to child kid.
	key int64
	val int64
	kid nodeID
}

// chunked mapping table: lock-free allocation, stable entries.
const (
	chunkBits = 13
	chunkSize = 1 << chunkBits
	maxChunks = 1 << 15
)

type chunk [chunkSize]atomic.Pointer[node]

// Tree is the concurrent Bw-Tree. All methods are safe for concurrent use.
type Tree struct {
	cfg    Config
	chunks [maxChunks]atomic.Pointer[chunk]
	nextID atomic.Int32
	root   atomic.Int32
	size   atomic.Int64
}

// New returns an empty tree.
func New(cfg Config) *Tree {
	if cfg.LeafCapacity <= 2 {
		cfg.LeafCapacity = DefaultLeafCapacity
	}
	if cfg.InnerCapacity <= 2 {
		cfg.InnerCapacity = DefaultInnerCapacity
	}
	if cfg.ConsolidateAt <= 0 {
		cfg.ConsolidateAt = DefaultConsolidateAt
	}
	t := &Tree{cfg: cfg}
	rootID := t.alloc()
	t.entry(rootID).Store(&node{kind: leafBase, leaf: true, chainLen: 1, hi: keyMax, side: invalidID})
	t.root.Store(int32(rootID))
	return t
}

// Len returns the number of stored pairs.
func (t *Tree) Len() int { return int(t.size.Load()) }

func (t *Tree) alloc() nodeID {
	id := nodeID(t.nextID.Add(1) - 1)
	ci := int(id) >> chunkBits
	if ci >= maxChunks {
		panic("bwtree: mapping table exhausted")
	}
	if t.chunks[ci].Load() == nil {
		t.chunks[ci].CompareAndSwap(nil, new(chunk))
	}
	return id
}

func (t *Tree) entry(id nodeID) *atomic.Pointer[node] {
	return &t.chunks[int(id)>>chunkBits].Load()[int(id)&(chunkSize-1)]
}

// --- traversal ---

// findLeaf descends to the leaf responsible for k, helping complete splits
// it encounters, and returns the leaf's id, its current chain head, and the
// stack of parent ids (root first).
func (t *Tree) findLeaf(k int64) (nodeID, *node, []nodeID) {
	var parents []nodeID
restart:
	parents = parents[:0]
	id := nodeID(t.root.Load())
	for {
		n := t.entry(id).Load()
		if k >= t.chainHi(n) {
			// The node was split and k belongs right; help post the
			// index entry, then jump across the side link.
			side := t.chainSide(n)
			t.help(parents, t.chainHi(n), side, id)
			id = side
			continue
		}
		if n.leaf {
			return id, n, parents
		}
		child := t.route(n, k)
		if child == invalidID {
			goto restart
		}
		parents = append(parents, id)
		id = child
	}
}

// chainHi returns the effective exclusive upper fence of a chain (the base
// node's; deltas never change it because splits install new bases).
func (t *Tree) chainHi(n *node) int64 {
	for n.next != nil {
		n = n.next
	}
	return n.hi
}

func (t *Tree) chainSide(n *node) nodeID {
	for n.next != nil {
		n = n.next
	}
	return n.side
}

// route picks the child of an inner chain for key k: the largest separator
// <= k wins, considering index-entry deltas shadowing the base.
func (t *Tree) route(n *node, k int64) nodeID {
	bestSep := int64(keyMin)
	best := invalidID
	haveDelta := false
	for d := n; d.next != nil; d = d.next {
		if d.kind == deltaIndexEntry && d.key <= k && (!haveDelta || d.key > bestSep) {
			bestSep, best, haveDelta = d.key, d.kid, true
		}
	}
	base := n
	for base.next != nil {
		base = base.next
	}
	// Base inner: kids[i] serves keys in [keys[i-1], keys[i]), with
	// keys[-1] = -inf.
	i := sort.Search(len(base.keys), func(i int) bool { return base.keys[i] > k })
	baseSep := int64(keyMin)
	if i > 0 {
		baseSep = base.keys[i-1]
	}
	child := invalidID
	if len(base.kids) > 0 {
		child = base.kids[i]
	}
	if haveDelta && (child == invalidID || bestSep > baseSep) {
		return best
	}
	return child
}

// help posts an index entry (sep -> right) at the deepest parent, creating a
// new root when the split node was the root. Best-effort: failures are
// retried by later traversals.
func (t *Tree) help(parents []nodeID, sep int64, right nodeID, left nodeID) {
	if right == invalidID {
		return
	}
	if len(parents) == 0 {
		// Root split: build a fresh root over (left, right).
		newRoot := t.alloc()
		t.entry(newRoot).Store(&node{
			kind: innerBase, chainLen: 1,
			keys: []int64{sep},
			kids: []nodeID{left, right},
			hi:   keyMax, side: invalidID,
		})
		t.root.CompareAndSwap(int32(left), int32(newRoot))
		return
	}
	pid := parents[len(parents)-1]
	for {
		pn := t.entry(pid).Load()
		if t.innerKnows(pn, sep) {
			return
		}
		if sep >= t.chainHi(pn) {
			// The parent itself split; the traversal that follows
			// the side link will help at the right place.
			return
		}
		d := &node{
			kind: deltaIndexEntry, leaf: false, next: pn,
			chainLen: pn.chainLen + 1,
			key:      sep, kid: right,
		}
		if t.entry(pid).CompareAndSwap(pn, d) {
			if int(d.chainLen) > t.cfg.ConsolidateAt {
				t.consolidateInner(pid, d, parents[:len(parents)-1])
			}
			return
		}
	}
}

// innerKnows reports whether the inner chain already routes sep.
func (t *Tree) innerKnows(n *node, sep int64) bool {
	for d := n; d.next != nil; d = d.next {
		if d.kind == deltaIndexEntry && d.key == sep {
			return true
		}
	}
	base := n
	for base.next != nil {
		base = base.next
	}
	i := sort.Search(len(base.keys), func(i int) bool { return base.keys[i] >= sep })
	return i < len(base.keys) && base.keys[i] == sep
}
