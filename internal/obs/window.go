package obs

import (
	"runtime"
	"sync/atomic"
	"time"
)

// DefaultWindowInterval is the trailing interval a zero-value Window covers.
const DefaultWindowInterval = 10 * time.Second

// winSlots is the sub-window count of a Window: the trailing interval is
// split into winSlots equal slots, and a snapshot folds the slots whose
// absolute slot number still falls inside the interval. More slots smooth
// the roll-off (old observations leave one slot at a time); eight keeps the
// footprint small while the newest ~7/8 of the interval is always covered.
const winSlots = 8

// winSlot is one sub-window: a Histogram plus the absolute slot number it
// currently holds. id publishes slot+1 (0 = never used); claim is the
// rotation latch — a writer that finds the slot stale CASes claim to the
// slot it wants, resets the histogram, then publishes id.
type winSlot struct {
	id    atomic.Int64
	claim atomic.Int64
	h     Histogram
}

// Window is a concurrent sliding-window histogram: a ring of winSlots
// Histograms rotated on a coarse clock, answering "what was the
// distribution over the trailing interval" where a Histogram can only
// answer "since the process started". ObserveAt is allocation-free — plain
// atomics, like Counter and Histogram — and takes the clock reading from
// the caller, which already holds one for the duration it records. The
// zero value is ready to use with DefaultWindowInterval; NewWindow picks
// another interval.
//
// Consistency: each sub-window is monotonic under concurrent observes but a
// snapshot is not a consistent cut, and an observe that is a whole lap late
// (its clock reading, or its goroutine, stalled for about the interval) can
// land in a newer lap or race that lap's reset — bounded slop that metrics
// tolerate by design (the same contract as the striped counters).
// Observes racing an ordinary rotation are never lost. Quantiles interpolate within log2 buckets, so they carry the
// buckets' relative error (below ~41% of the value, typically far less).
type Window struct {
	interval time.Duration // immutable after construction; zero = default
	slots    [winSlots]winSlot
}

// NewWindow returns a Window covering the trailing interval (0 or negative
// selects DefaultWindowInterval).
func NewWindow(interval time.Duration) *Window {
	if interval <= 0 {
		interval = DefaultWindowInterval
	}
	return &Window{interval: interval}
}

func (w *Window) span() time.Duration {
	if w.interval <= 0 {
		return DefaultWindowInterval
	}
	return w.interval
}

// slotOf is the absolute slot number of a clock reading (negative clamps
// to slot 0).
func (w *Window) slotOf(now int64) int64 {
	return max(now, 0) / (int64(w.span()) / winSlots)
}

// ObserveAt records v at the clock reading now (Unix nanoseconds), which
// picks the sub-window.
func (w *Window) ObserveAt(now int64, v uint64) {
	slot := w.slotOf(now)
	s := &w.slots[uint64(slot)%winSlots]
	s.rotate(slot + 1)
	s.h.Observe(v)
}

// rotate makes s hold absolute slot id `want` (1-based), clearing it if it
// still holds an older lap. Exactly one racer wins the claim CAS and
// resets; the losers wait for it to publish, so their counts land in the
// cleared slot rather than in the lap being wiped. The wait is for ~70
// atomic stores by a goroutine that never blocks, and it yields instead of
// giving up after a bounded spin: with the winner descheduled (one proc, or
// more goroutines than procs) a loser that gave up would record into the
// slot before the reset and lose the count. id only moves forward, so a
// winner that reset for an older lap cannot hide a newer publish from a
// waiter.
func (s *winSlot) rotate(want int64) {
	if s.id.Load() >= want {
		return
	}
	for {
		c := s.claim.Load()
		if c >= want {
			for s.id.Load() < c {
				runtime.Gosched()
			}
			return
		}
		if s.claim.CompareAndSwap(c, want) {
			s.h.reset()
			for id := s.id.Load(); id < want && !s.id.CompareAndSwap(id, want); id = s.id.Load() {
			}
			return
		}
	}
}

// Snapshot is SnapshotAt the current time.
func (w *Window) Snapshot() WindowSnapshot {
	return w.SnapshotAt(time.Now().UnixNano())
}

// SnapshotAt folds the slots still inside the trailing interval at the
// clock reading now into a WindowSnapshot with precomputed quantiles.
func (w *Window) SnapshotAt(now int64) WindowSnapshot {
	cur := w.slotOf(now)
	var t tally
	for i := range w.slots {
		s := &w.slots[i]
		if id := s.id.Load(); id > 0 && id-1 > cur-winSlots && id-1 <= cur {
			t.add(&s.h)
		}
	}
	ws := WindowSnapshot{Distribution: t.dist(), IntervalNanos: uint64(w.span())}
	ws.fillQuantiles()
	return ws
}

// WindowSnapshot is the immutable snapshot of a Window: the trailing
// interval's Distribution plus interpolated percentiles.
type WindowSnapshot struct {
	Distribution
	IntervalNanos uint64  `json:"interval_nanos"`
	P50           float64 `json:"p50"`
	P95           float64 `json:"p95"`
	P99           float64 `json:"p99"`
	P999          float64 `json:"p999"`
}

func (s *WindowSnapshot) fillQuantiles() {
	s.P50 = s.Quantile(0.50)
	s.P95 = s.Quantile(0.95)
	s.P99 = s.Quantile(0.99)
	s.P999 = s.Quantile(0.999)
}

// merge folds o into s (sharded stores sum their shards' windows) and
// recomputes the percentiles from the merged buckets — quantiles cannot be
// averaged, but bucket counts merge exactly.
func (s WindowSnapshot) merge(o WindowSnapshot) WindowSnapshot {
	s.Distribution = s.Distribution.merge(o.Distribution)
	if o.IntervalNanos > s.IntervalNanos {
		s.IntervalNanos = o.IntervalNanos
	}
	s.fillQuantiles()
	return s
}
