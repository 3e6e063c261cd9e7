package core

import (
	"pmago/internal/epoch"
	"pmago/internal/rma"
)

// op is one pending update, as stored in a combining queue.
type op struct {
	key int64
	val int64
	del bool
}

// takeQueue closes the gate's combining queue and returns what it held, now
// the caller's to apply. The caller holds mu.
func (g *gate) takeQueue() []op {
	ops := g.qOps
	g.qOpen, g.qOps = false, nil
	return ops
}

// lockResult describes how lockForWrite resolved.
type lockResult int

const (
	lockAcquired lockResult = iota // caller holds the gate exclusively
	lockEnqueued                   // op was absorbed into the active writer's queue
	lockInvalid                    // gate belongs to a retired state; reload
)

// lockForWrite implements the writer-side gate protocol of Section 3.5: if
// the combining queue is open (an active writer, or a batch pending at the
// rebalancer), the update is appended and the call returns immediately;
// otherwise the caller acquires the latch exclusively. The caller opens the
// queue only after verifying the fences (runWriter), matching the paper: a
// writer first reaches its gate, then publishes pQ.
func (p *PMA) lockForWrite(g *gate, o op) lockResult {
	async := p.cfg.Mode != ModeSync
	g.mu.Lock()
	g.wWaiting++ // readers yield while an update is pending here
	for {
		if g.invalid {
			g.wWaiting--
			g.cond.Broadcast()
			g.mu.Unlock()
			return lockInvalid
		}
		if async && g.qOpen {
			g.qOps = append(g.qOps, o)
			g.wWaiting--
			g.cond.Broadcast()
			g.mu.Unlock()
			if m := p.metrics; m != nil {
				m.CombinedOps.Inc()
			}
			return lockEnqueued
		}
		if g.lstate == lsFree && !g.rebWanted {
			g.wWaiting--
			g.lstate = lsWriter
			g.beginExclusive() // optimistic readers stand down until release
			g.mu.Unlock()
			return lockAcquired
		}
		g.cond.Wait()
	}
}

// releaseWriter drops the exclusive latch. The caller has not opened the
// queue (ModeSync, or a misrouted writer moving on); drainQueue is the
// release of a writer that has.
func (g *gate) releaseWriter() {
	g.mu.Lock()
	g.endExclusive() // all mutations precede this; publish to optimistic readers
	g.lstate = lsFree
	g.cond.Broadcast()
	g.mu.Unlock()
}

// Put inserts or replaces k/v. In the asynchronous modes the update may be
// deferred: it is guaranteed to be applied before a Flush returns, but an
// immediately following Get may not observe it.
func (p *PMA) Put(k, v int64) {
	p.checkOpen()
	if k == rma.KeyMin || k == rma.KeyMax {
		panic("core: cannot store sentinel key")
	}
	if h := p.hook; h != nil {
		h.Put(k, v)
	}
	guard := p.epochs.Enter()
	defer guard.Leave()
	p.update(op{key: k, val: v}, guard)
}

// Delete removes k. The result reports whether an element was removed
// synchronously; a deferred (combined) delete returns true optimistically,
// matching the fire-and-forget semantics of Section 3.5.
func (p *PMA) Delete(k int64) bool {
	p.checkOpen()
	if k == rma.KeyMin || k == rma.KeyMax {
		return false
	}
	if h := p.hook; h != nil {
		h.Delete(k)
	}
	guard := p.epochs.Enter()
	defer guard.Leave()
	return p.update(op{key: k, del: true}, guard)
}

// update routes one update to its gate and applies it according to the
// configured mode. It restarts across resizes and walks neighbour gates when
// a racy index read landed it wrongly.
func (p *PMA) update(o op, guard *epoch.Guard) bool {
	for {
		st := p.state.Load()
		gi := clampGate(st.index.Lookup(o.key), len(st.gates))
	walk:
		for {
			g := st.gates[gi]
			switch p.lockForWrite(g, o) {
			case lockEnqueued:
				return true
			case lockInvalid:
				break walk
			}
			// Holding the latch: verify the fences (Section 3.2).
			if g.invalid {
				g.releaseWriter()
				break walk
			}
			if o.key < g.fenceLo && gi > 0 {
				g.releaseWriter()
				gi--
				continue
			}
			if o.key > g.fenceHi && gi < len(st.gates)-1 {
				g.releaseWriter()
				gi++
				continue
			}
			done, res := p.runWriter(st, g, o, guard)
			if done {
				return res
			}
			break walk // a global rebalance intervened; retry from the top
		}
		guard.Refresh()
	}
}

// runWriter applies op o while holding gate g exclusively. It returns
// done=false when a global rebalance was necessary and the caller must
// re-route the operation, which only ModeSync does.
func (p *PMA) runWriter(st *state, g *gate, o op, guard *epoch.Guard) (done, result bool) {
	if p.cfg.Mode == ModeSync {
		return p.applySync(st, g, o)
	}
	return true, p.applyOwn(st, g, o, g.openQueue(o), guard)
}

// openQueue publishes the latch holder's combining queue, waking writers
// blocked in lockForWrite so they can combine. It reports whether the queue
// was open already: the master parks displaced ops holding only mu
// (redistribute), so it can do so after the holder won the latch. Those ops
// are older than o, which then joins the queue behind them.
func (g *gate) openQueue(o op) (queued bool) {
	g.mu.Lock()
	if queued = g.qOpen; queued {
		g.qOps = append(g.qOps, o)
	}
	g.qOpen = true
	g.cond.Broadcast()
	g.mu.Unlock()
	return queued
}

// applyOwn is the active writer of Section 3.5 once its queue is open. An op
// that is not queued is applied in place — an uncontended writer updates the
// chunk directly; the queue is for writers that arrive while it holds the
// latch — and then the queue is drained, which for a writer nobody combined
// with is only the release. The result of a queued Delete is decided by the
// state at latch acquisition.
func (p *PMA) applyOwn(st *state, g *gate, o op, queued bool, guard *epoch.Guard) (result bool) {
	result = true
	own := [1]op{o} // on the stack: nothing below retains it
	var reroute []op
	released := false
	switch {
	case queued:
		if o.del {
			_, result = g.get(o.key)
		}
	case o.del:
		if result = g.del(o.key); result {
			st.card.Add(-1)
		}
	case p.cfg.Mode == ModeOneByOne:
		reroute, released = p.drainOneByOne(st, g, own[:])
	default:
		// mergeLocal is where drainBatch ends too: a lone insert takes the
		// structural decisions, and the hand-off, a queued one would.
		if delta, ok := g.mergeLocal(st, own[:]); ok {
			st.card.Add(int64(delta))
		} else {
			p.handOffBatch(st, g, []op{o}, false)
			released = true
		}
	}
	p.drainQueue(st, g, guard, reroute, released)
	return result
}

// applySync is the baseline path: apply in place or transfer the latch to
// the rebalancer and wait (Section 3.3).
func (p *PMA) applySync(st *state, g *gate, o op) (done, result bool) {
	if o.del {
		deleted := g.del(o.key)
		if deleted {
			st.card.Add(-1)
		}
		g.releaseWriter()
		p.maybeRequestShrink(st)
		return true, deleted
	}
	switch g.put(st, o.key, o.val) {
	case putReplaced:
		g.releaseWriter()
		return true, true
	case putInserted:
		st.card.Add(1)
		g.releaseWriter()
		return true, true
	default: // putNeedsGlobal
		p.requestGlobalAndWait(st, g, 1)
		return false, false
	}
}

// requestGlobalAndWait transfers the caller's exclusive latch to the
// rebalancer, asks it to rebalance around g, and blocks until done.
func (p *PMA) requestGlobalAndWait(st *state, g *gate, pending int) {
	req := &request{
		kind:    reqRebalance,
		st:      st,
		g:       g,
		gen:     g.rebGen,
		pending: pending,
		done:    make(chan struct{}),
	}
	g.transferToReb()
	p.reb.submit(req)
	<-req.done
}

// maybeRequestShrink notifies the rebalancer (once) when occupancy dropped
// below the 50% downsizing threshold of the evaluation configuration.
func (p *PMA) maybeRequestShrink(st *state) {
	if st.numSegs <= st.spg {
		return
	}
	if st.card.Load()*2 >= int64(st.slots()) {
		return
	}
	if p.shrinkPending.Swap(true) {
		return
	}
	p.reb.submit(&request{kind: reqShrink, st: st})
}

func clampGate(gi, n int) int {
	if gi < 0 {
		return 0
	}
	if gi >= n {
		return n - 1
	}
	return gi
}
