package art

// Insert upserts k -> v.
func (t *Tree[V]) Insert(k uint64, v *V) {
	kb := keyBytes(k)
	for !t.insertOnce(kb, k, v) {
	}
}

// insertOnce attempts one optimistic descent; false means a version conflict
// forced a restart.
func (t *Tree[V]) insertOnce(kb [8]byte, k uint64, v *V) bool {
	var parent *node[V]
	var parentV uint64
	var parentByte byte

	n := t.root.Load()
	depth := 0
	for {
		nV, ok := n.readLock()
		if !ok || !parent.validate(parentV) {
			return false
		}
		if n.kind == kindLeaf {
			if n.key == k {
				if !n.upgrade(nV) {
					return false
				}
				n.val.Store(v)
				n.unlock()
				return true
			}
			// Split the leaf: a new N4 holds the diverging byte of
			// both keys, with their common bytes as its prefix.
			if !parent.upgrade(parentV) {
				return false
			}
			if !n.upgrade(nV) {
				parent.unlock()
				return false
			}
			nb := keyBytes(n.key)
			c := 0
			for kb[depth+c] == nb[depth+c] {
				c++
			}
			nn := newInner[V](kindN4, kb[depth:depth+c])
			nn.addChild(kb[depth+c], newLeaf(k, v))
			nn.addChild(nb[depth+c], n)
			parent.replaceChild(parentByte, nn)
			n.unlock()
			parent.unlock()
			return true
		}
		pl, p, fullMatch := n.matchPrefix(kb, depth)
		if !fullMatch {
			// Split the compressed path at the divergence point.
			if !parent.upgrade(parentV) {
				return false
			}
			if !n.upgrade(nV) {
				parent.unlock()
				return false
			}
			pb, _ := unpackPrefix(n.prefix.Load())
			nn := newInner[V](kindN4, pb[:p])
			nn.addChild(kb[depth+p], newLeaf(k, v))
			oldByte := pb[p]
			n.prefix.Store(packPrefix(pb[p+1 : pl]))
			nn.addChild(oldByte, n)
			parent.replaceChild(parentByte, nn)
			n.unlock()
			parent.unlock()
			return true
		}
		depth += pl
		b := kb[depth]
		child := n.child(b)
		if !n.readUnlock(nV) {
			return false
		}
		if child == nil {
			if n.full() {
				if parent == nil {
					// Growing the root: swap the tree's root
					// pointer under the root's lock.
					if !n.upgrade(nV) {
						return false
					}
					g := n.grown()
					g.addChild(b, newLeaf(k, v))
					t.root.Store(g)
					n.unlockObsolete()
					return true
				}
				if !parent.upgrade(parentV) {
					return false
				}
				if !n.upgrade(nV) {
					parent.unlock()
					return false
				}
				g := n.grown()
				g.addChild(b, newLeaf(k, v))
				parent.replaceChild(parentByte, g)
				n.unlockObsolete()
				parent.unlock()
				return true
			}
			if !n.upgrade(nV) {
				return false
			}
			n.addChild(b, newLeaf(k, v))
			n.unlock()
			return true
		}
		parent, parentV, parentByte = n, nV, b
		n = child
		depth++
	}
}

// Delete removes k, reporting whether it was present.
func (t *Tree[V]) Delete(k uint64) bool {
	kb := keyBytes(k)
	for {
		if deleted, valid := t.deleteOnce(kb, k); valid {
			return deleted
		}
	}
}

func (t *Tree[V]) deleteOnce(kb [8]byte, k uint64) (deleted, valid bool) {
	var parent *node[V]
	var parentV uint64
	var parentByte byte

	n := t.root.Load()
	depth := 0
	for {
		nV, ok := n.readLock()
		if !ok || !parent.validate(parentV) {
			return false, false
		}
		if n.kind == kindLeaf {
			// Only reachable at the root position when the tree
			// degenerated; handled below via parent.
			return false, n.readUnlock(nV)
		}
		pl, _, fullMatch := n.matchPrefix(kb, depth)
		if !fullMatch {
			return false, n.readUnlock(nV)
		}
		depth += pl
		b := kb[depth]
		child := n.child(b)
		if !n.readUnlock(nV) {
			return false, false
		}
		if child == nil {
			return false, true
		}
		if child.kind == kindLeaf {
			if child.key != k {
				return false, n.readUnlock(nV)
			}
			if !n.upgrade(nV) {
				return false, false
			}
			if !child.lock() {
				n.unlock()
				return false, false
			}
			n.removeChild(b)
			child.unlockObsolete()
			// Path compression: an inner N4 left with one child is
			// folded into its parent (never the root, which stays
			// prefix-free).
			if n.kind == kindN4 && n.numCh.Load() == 1 && parent != nil {
				t.compress(parent, parentV, parentByte, n)
				// compress handles n's unlock; failure to
				// compress is benign (tree stays correct).
				return true, true
			}
			n.unlock()
			return true, true
		}
		parent, parentV, parentByte = n, nV, b
		n = child
		depth++
	}
}

// compress folds the single-child node n (write-locked by the caller) into
// parent, extending the child's prefix. Best-effort: on lock conflicts the
// tree is simply left uncompressed.
func (t *Tree[V]) compress(parent *node[V], parentV uint64, parentByte byte, n *node[V]) {
	if !parent.upgrade(parentV) {
		n.unlock()
		return
	}
	var onlyByte byte
	var only *node[V]
	switch n.kind {
	case kindN4:
		onlyByte = byte(n.keys[0].Load())
		only = n.children[0].Load()
	default:
		parent.unlock()
		n.unlock()
		return
	}
	if only == nil {
		parent.unlock()
		n.unlock()
		return
	}
	if only.kind == kindLeaf {
		// Leaves carry their whole key: drop n entirely.
		parent.replaceChild(parentByte, only)
		parent.unlock()
		n.unlockObsolete()
		return
	}
	if !only.lock() {
		parent.unlock()
		n.unlock()
		return
	}
	// New prefix: n.prefix + onlyByte + only.prefix.
	npb, npl := unpackPrefix(n.prefix.Load())
	opb, opl := unpackPrefix(only.prefix.Load())
	np := make([]byte, 0, npl+1+opl)
	np = append(np, npb[:npl]...)
	np = append(np, onlyByte)
	np = append(np, opb[:opl]...)
	only.prefix.Store(packPrefix(np))
	parent.replaceChild(parentByte, only)
	only.unlock()
	parent.unlock()
	n.unlockObsolete()
}

func (n *node[V]) replaceChild(b byte, c *node[V]) {
	switch n.kind {
	case kindN4, kindN16:
		nc := int(n.numCh.Load())
		for i := 0; i < nc; i++ {
			if byte(n.keys[i].Load()) == b {
				n.children[i].Store(c)
				return
			}
		}
	case kindN48:
		if idx := n.keys[b].Load(); idx != 0 {
			n.children[idx-1].Store(c)
			return
		}
	default:
		n.children[b].Store(c)
		return
	}
	panic("art: replaceChild on absent slot")
}

// Get returns the value stored under k.
func (t *Tree[V]) Get(k uint64) (*V, bool) {
	kb := keyBytes(k)
	for {
		if v, found, valid := t.getOnce(kb, k); valid {
			return v, found
		}
	}
}

func (t *Tree[V]) getOnce(kb [8]byte, k uint64) (v *V, found, valid bool) {
	var parent *node[V]
	var parentV uint64
	n := t.root.Load()
	depth := 0
	for {
		nV, ok := n.readLock()
		if !ok || !parent.validate(parentV) {
			return nil, false, false
		}
		if n.kind == kindLeaf {
			key := n.key
			val := n.val.Load()
			if !n.readUnlock(nV) {
				return nil, false, false
			}
			if key == k {
				return val, true, true
			}
			return nil, false, true
		}
		pl, _, fullMatch := n.matchPrefix(kb, depth)
		if !fullMatch {
			return nil, false, n.readUnlock(nV)
		}
		depth += pl
		child := n.child(kb[depth])
		if !n.readUnlock(nV) {
			return nil, false, false
		}
		if child == nil {
			return nil, false, true
		}
		parent, parentV = n, nV
		n = child
		depth++
	}
}

// Floor returns the value of the largest key <= k.
func (t *Tree[V]) Floor(k uint64) (*V, bool) {
	kb := keyBytes(k)
	for {
		n := t.root.Load()
		if v, found, valid := t.floorRec(nil, 0, n, kb, k, 0); valid {
			return v, found
		}
	}
}

func (t *Tree[V]) floorRec(parent *node[V], parentV uint64, n *node[V], kb [8]byte, k uint64, depth int) (v *V, found, valid bool) {
	nV, ok := n.readLock()
	if !ok || !parent.validate(parentV) {
		return nil, false, false
	}
	if n.kind == kindLeaf {
		key := n.key
		val := n.val.Load()
		if !n.readUnlock(nV) {
			return nil, false, false
		}
		if key <= k {
			return val, true, true
		}
		return nil, false, true
	}
	// Compare the compressed path against the key.
	pb, pl := unpackPrefix(n.prefix.Load())
	cmp := 0
	for i := 0; i < pl; i++ {
		if d := depth + i; d >= 8 || pb[i] != kb[d] {
			if d < 8 && pb[i] < kb[d] {
				cmp = -1
			} else {
				cmp = 1
			}
			break
		}
	}
	if cmp > 0 {
		// Every key below n is greater than k.
		return nil, false, n.readUnlock(nV)
	}
	if cmp < 0 {
		// Every key below n is smaller: the floor is n's maximum.
		if !n.readUnlock(nV) {
			return nil, false, false
		}
		return t.maxRec(parent, parentV, n)
	}
	depth += pl
	b := kb[depth]
	child := n.child(b)
	below := n.childrenBelow(int(b), nil)
	if !n.readUnlock(nV) {
		return nil, false, false
	}
	if child != nil {
		v, found, valid = t.floorRec(n, nV, child, kb, k, depth+1)
		if !valid {
			return nil, false, false
		}
		if found {
			return v, true, true
		}
	}
	// Fall back across the lower siblings in descending order: a deletion
	// may have left the largest one empty.
	for _, c := range below {
		v, found, valid = t.maxRec(n, nV, c)
		if !valid {
			return nil, false, false
		}
		if found {
			return v, true, true
		}
	}
	return nil, false, true
}

// maxRec returns the value under the largest key of n's subtree, skipping
// branches deletions emptied out. n was reached through parent at version
// parentV (parent is nil at the root).
func (t *Tree[V]) maxRec(parent *node[V], parentV uint64, n *node[V]) (*V, bool, bool) {
	nV, ok := n.readLock()
	if !ok || !parent.validate(parentV) {
		return nil, false, false
	}
	if n.kind == kindLeaf {
		val := n.val.Load()
		if !n.readUnlock(nV) {
			return nil, false, false
		}
		return val, true, true
	}
	cands := n.childrenBelow(256, nil)
	if !n.readUnlock(nV) {
		return nil, false, false
	}
	for _, c := range cands {
		v, found, valid := t.maxRec(n, nV, c)
		if !valid {
			return nil, false, false
		}
		if found {
			return v, true, true
		}
	}
	return nil, false, true
}

// Walk visits every key/value in ascending key order. Not concurrency-safe
// with writers; intended for tests and diagnostics.
func (t *Tree[V]) Walk(fn func(k uint64, v *V)) {
	t.walkRec(t.root.Load(), fn)
}

func (t *Tree[V]) walkRec(n *node[V], fn func(k uint64, v *V)) {
	if n == nil {
		return
	}
	if n.kind == kindLeaf {
		fn(n.key, n.val.Load())
		return
	}
	switch n.kind {
	case kindN4, kindN16:
		// Keys are unsorted in the arrays: visit in byte order.
		for b := 0; b < 256; b++ {
			if i := n.childIndex(byte(b)); i >= 0 {
				t.walkRec(n.children[i].Load(), fn)
			}
		}
	case kindN48:
		for b := 0; b < 256; b++ {
			if idx := n.keys[b].Load(); idx != 0 {
				t.walkRec(n.children[idx-1].Load(), fn)
			}
		}
	default:
		for b := 0; b < 256; b++ {
			t.walkRec(n.children[b].Load(), fn)
		}
	}
}

// Len counts the stored entries (O(n); tests only).
func (t *Tree[V]) Len() int {
	n := 0
	t.Walk(func(uint64, *V) { n++ })
	return n
}
