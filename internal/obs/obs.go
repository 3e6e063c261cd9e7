// Package obs is the observability layer of the store: cache-line-padded
// striped counters, log2-bucketed histograms and their sliding-window ring,
// and the exposition code behind pmago.Stats/pmago.Handler. It has no
// dependencies beyond the standard library and is deliberately a leaf
// package — core, persist and the public pmago layer all report through it.
// Stats is the store's one outward channel: structural events (rebalances,
// resizes, checkpoints, recovery) are instruments here, never callbacks, so
// no user code runs inside a store goroutine.
//
// The design constraints come from where the instruments sit. Counters on
// the Get fast path are incremented by every reader concurrently, so a
// single atomic word would serialise all readers on one cache line; Counter
// stripes its value across padded slots selected per goroutine. Histograms
// record latencies and sizes on service goroutines (rebalancer master, WAL
// group commit), where a plain atomic bucket array is contention-free in
// practice. There is one bucket accumulator, Histogram: a Window is a ring
// of them, and both snapshot through the same fold. Each quantity has one
// instrument, and a window's observe path never reads the clock — its owner
// passes the reading it already took for the duration it records
// (ObserveAt).
// Everything here is allocation-free on the update path; snapshot and
// exposition allocate, but those run at scrape frequency, not op frequency.
//
// There is no metrics-off mode: every layer allocates its metric set with
// itself, and every instrumentation site records unconditionally.
package obs

import (
	"sync/atomic"
	"unsafe"
)

// numStripes is the fixed stripe count of a Counter. Power of two. 16
// stripes × 64 bytes = 1 KiB per counter — cheap enough to embed freely,
// wide enough that even a machine-saturating reader fleet rarely collides.
const numStripes = 16

// stripe is one padded slot: the value plus padding out to a full cache
// line, so adjacent stripes never share a line (the whole point).
type stripe struct {
	n atomic.Uint64
	_ [56]byte
}

// Counter is a monotonic counter striped across padded cache lines.
// Increments pick a stripe from the caller's stack address, so a goroutine
// keeps hitting the same (likely locally cached) line while different
// goroutines spread across stripes. The zero value is ready to use.
type Counter struct {
	stripes [numStripes]stripe
}

// stripeIndex derives a stable per-goroutine stripe from the address of a
// stack variable. Goroutine stacks are allocated at distinct, well-spread
// addresses (2 KiB minimum spans), so shifting off the in-frame bits leaves
// a value that differs between goroutines but is constant within one
// (until a stack growth moves it, which is rare and harmless). This costs
// two ALU ops — no thread-local lookup, no hashing, no allocation: the
// pointer never escapes because it is consumed as a uintptr immediately.
func stripeIndex() int {
	var marker byte
	return int((uintptr(unsafe.Pointer(&marker)) >> 11) & (numStripes - 1))
}

// Inc adds 1.
func (c *Counter) Inc() { c.stripes[stripeIndex()].n.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.stripes[stripeIndex()].n.Add(n) }

// Load sums the stripes. Concurrent increments may or may not be included;
// the result is exact once writers quiesce.
func (c *Counter) Load() uint64 {
	var t uint64
	for i := range c.stripes {
		t += c.stripes[i].n.Load()
	}
	return t
}
