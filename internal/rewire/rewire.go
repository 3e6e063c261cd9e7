// Package rewire simulates memory rewiring [Schuhknecht et al., RUMA] for
// the PMA's rebalances. The original technique copies elements once into a
// spare buffer of physical pages and then swaps the virtual-page mapping in
// O(1). The property the rebalance algorithm relies on is exactly that pair:
// single-copy into a spare buffer, O(1) publication. In Go the same structure
// is obtained by writing into spare chunk-sized slices from a pool and
// swapping the slice headers under the gates' latches; the retired buffers
// return to the pool as the "new spare pages" for the next rebalance.
package rewire

import "sync"

// Buffer is one chunk worth of storage: parallel key and value arrays.
type Buffer struct {
	Keys []int64
	Vals []int64
}

// Pool hands out fixed-size buffers, reusing retired ones.
type Pool struct {
	slots int

	mu   sync.Mutex
	free []*Buffer

	maxFree int
}

// NewPool creates a pool of buffers with the given number of element slots
// per buffer. maxFree bounds how many retired buffers are kept (0 means a
// sensible default).
func NewPool(slots, maxFree int) *Pool {
	if maxFree <= 0 {
		maxFree = 64
	}
	return &Pool{slots: slots, maxFree: maxFree}
}

// Get returns a buffer with Keys and Vals of the pool's slot count. Contents
// are unspecified (the rebalance overwrites exactly the slots it publishes).
func (p *Pool) Get() *Buffer {
	p.mu.Lock()
	if n := len(p.free); n > 0 {
		b := p.free[n-1]
		p.free = p.free[:n-1]
		p.mu.Unlock()
		return b
	}
	p.mu.Unlock()
	return &Buffer{Keys: make([]int64, p.slots), Vals: make([]int64, p.slots)}
}

// Put returns a buffer to the pool. Buffers of the wrong size (e.g. from
// before a resize changed the chunk geometry) are dropped.
func (p *Pool) Put(b *Buffer) {
	if b == nil || len(b.Keys) != p.slots || len(b.Vals) != p.slots {
		return
	}
	p.mu.Lock()
	if len(p.free) < p.maxFree {
		p.free = append(p.free, b)
	}
	p.mu.Unlock()
}
