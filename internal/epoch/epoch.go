// Package epoch implements epoch-based memory reclamation (Section 3.4 of
// the paper). Client operations run inside a Guard carrying the epoch at
// which they started; retiring a pointer tags it with the current epoch; a
// collector frees retired objects once every active guard's epoch has moved
// past the tag. The paper reads the CPU timestamp counter for epochs — here a
// global atomic counter serves the same purpose (only monotonicity matters;
// see DESIGN.md, Substitutions).
package epoch

import (
	"sync"
	"sync/atomic"
	"time"
)

// Manager coordinates client guards and the garbage list for one data
// structure instance.
type Manager struct {
	clock atomic.Int64

	mu     sync.Mutex // guards registration of new guard slots
	guards []*Guard

	pool sync.Pool

	gmu     sync.Mutex // guards the garbage list
	garbage []retired

	reclaimed atomic.Int64
}

type retired struct {
	epoch int64
	free  func()
}

// Guard marks one in-flight client operation. Guards are pooled and
// permanently registered with their manager; an inactive guard has epoch 0.
type Guard struct {
	epoch atomic.Int64
	mgr   *Manager
	// Every operation stores to its guard twice (Enter, Leave). Padded to
	// the 128-byte size class, two goroutines' guards never share a cache
	// line (or an adjacent-line prefetch pair).
	_ [112]byte
}

// NewManager returns a ready-to-use manager whose clock starts at 1.
func NewManager() *Manager {
	m := &Manager{}
	m.clock.Store(1)
	m.pool.New = func() any {
		g := &Guard{mgr: m}
		m.mu.Lock()
		m.guards = append(m.guards, g)
		m.mu.Unlock()
		return g
	}
	return m
}

// Enter begins an operation and returns its guard. The caller must invoke
// Leave when the operation no longer dereferences shared state, and must
// enter a fresh guard before restarting an operation after a resize.
func (m *Manager) Enter() *Guard {
	g := m.pool.Get().(*Guard)
	g.epoch.Store(m.clock.Load())
	return g
}

// Refresh re-stamps the guard with the current epoch, equivalent to
// Leave+Enter without touching the pool. Used when an operation restarts.
func (g *Guard) Refresh() {
	g.epoch.Store(g.mgr.clock.Load())
}

// Leave ends the operation.
func (g *Guard) Leave() {
	g.epoch.Store(0)
	g.mgr.pool.Put(g)
}

// Retire registers free to be run once no active guard can still observe the
// retired object, and advances the epoch clock.
func (m *Manager) Retire(free func()) {
	tag := m.clock.Add(1) - 1
	m.gmu.Lock()
	m.garbage = append(m.garbage, retired{epoch: tag, free: free})
	m.gmu.Unlock()
}

// minEpoch returns the smallest epoch among active guards, or the current
// clock when none are active.
func (m *Manager) minEpoch() int64 {
	minE := m.clock.Load()
	m.mu.Lock()
	guards := m.guards
	m.mu.Unlock()
	for _, g := range guards {
		if e := g.epoch.Load(); e != 0 && e < minE {
			minE = e
		}
	}
	return minE
}

// Collect frees every retired object tagged before the minimum active epoch
// and returns how many were freed.
func (m *Manager) Collect() int {
	minE := m.minEpoch()
	m.gmu.Lock()
	keep := m.garbage[:0]
	var run []func()
	for _, r := range m.garbage {
		if r.epoch < minE {
			run = append(run, r.free)
		} else {
			keep = append(keep, r)
		}
	}
	m.garbage = keep
	m.gmu.Unlock()
	for _, f := range run {
		if f != nil {
			f()
		}
	}
	m.reclaimed.Add(int64(len(run)))
	return len(run)
}

// Pending returns the number of retired-but-not-yet-freed objects.
func (m *Manager) Pending() int {
	m.gmu.Lock()
	defer m.gmu.Unlock()
	return len(m.garbage)
}

// Reclaimed returns the total number of objects freed so far.
func (m *Manager) Reclaimed() int64 { return m.reclaimed.Load() }

// Collector runs Collect periodically on a background goroutine — the
// paper's garbage-collector service thread.
type Collector struct {
	stop chan struct{}
	done chan struct{}
}

// StartCollector launches the background collector with the given period.
func (m *Manager) StartCollector(period time.Duration) *Collector {
	c := &Collector{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(c.done)
		t := time.NewTicker(period)
		defer t.Stop()
		for {
			select {
			case <-c.stop:
				m.Collect()
				return
			case <-t.C:
				m.Collect()
			}
		}
	}()
	return c
}

// Stop halts the collector after one final collection pass.
func (c *Collector) Stop() {
	close(c.stop)
	<-c.done
}
