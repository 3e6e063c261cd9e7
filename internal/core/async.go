package core

import (
	"slices"
	"time"
)

// drainQueue is the active writer's loop of Section 3.5: with pQ published,
// it repeatedly takes whatever accumulated in the queue and processes it with
// the configured policy, closing the queue and releasing the latch once it
// finds the queue empty. For a writer nobody combined with that is the first
// thing it finds. released reports that the latch already went to the
// rebalancer, and reroute carries what the writer's own op left to replay.
func (p *PMA) drainQueue(st *state, g *gate, reroute []op, released bool) {
	var ops []op
	for !released {
		g.mu.Lock()
		if ops != nil {
			g.qSpare = ops[:0] // last round's buffer is free again
		}
		if ops = g.qOps; len(ops) == 0 {
			g.qOpen = false
			g.releaseLocked() // the drain's mutations are complete
			g.mu.Unlock()
			break
		}
		g.qOps, g.qSpare = g.qSpare, nil
		g.mu.Unlock()
		p.metrics.DrainSize.Observe(uint64(len(ops)))

		var rest []op
		if p.cfg.Mode == ModeOneByOne {
			rest, released = p.drainOneByOne(st, g, ops)
		} else {
			rest, released = p.drainBatch(st, g, ops)
		}
		reroute = append(reroute, rest...)
	}
	p.maybeRequestShrink(st)
	// Updates that no longer belong to this gate (its fences moved under a
	// global rebalance, or a racy index read misrouted their writer) are
	// replayed through the synchronous path.
	for _, o := range reroute {
		p.updateSync(o)
	}
}

// drainOneByOne processes ops in arrival order, each insert a run of one
// through mergeLocal, so the gate's predictor sees every insert and its
// adaptive spread keeps its input. When an op forces a global rebalance, the
// writer hands the residue — that op and the ones after it, older than
// anything combined since — to the rebalancer at the front of its queue and
// waits until it has been served, as the one-by-one scheme's writer waits
// for its global rebalance. Writers arriving meanwhile combine behind the
// residue, so none of their updates can overtake it.
func (p *PMA) drainOneByOne(st *state, g *gate, ops []op) (reroute []op, released bool) {
	for i, o := range ops {
		switch {
		case o.key < g.fenceLo || o.key > g.fenceHi:
			reroute = append(reroute, o)
		case o.del:
			if g.del(o.key) {
				st.card.Add(-1)
			}
		case !g.mergeLocal(st, ops[i:i+1]):
			p.handOff(st, g, ops[i:], nil, true)
			return reroute, true
		}
	}
	return reroute, false
}

// drainBatch implements batch processing: deletions first, then all
// insertions in one mergeLocal. When they do not fit in the chunk, the batch
// is handed to the rebalancer, rate-limited by TDelay per gate; the latch is
// released but the queue stays open and keeps absorbing updates until the
// rebalancer picks it up.
func (p *PMA) drainBatch(st *state, g *gate, ops []op) (reroute []op, released bool) {
	ins, dels, reroute := compactOps(ops, g.fenceLo, g.fenceHi)
	g.deleteRun(st, dels, nil)
	if g.mergeLocal(st, ins) {
		return reroute, false
	}
	p.handOff(st, g, ins, nil, false)
	return reroute, true
}

// handOff is the one way a writer gives an overflow to the rebalancer: it
// releases g, which it holds exclusively, with the combining queue left
// open, and submits a batch request for the gate, so arriving writers keep
// combining until the master picks the queue up and merges it. Releasing
// before submitting is what keeps the master deadlock-free: a writer never
// holds a latch while it waits on the master.
//
// front holds ops the caller has already acknowledged (an active writer's
// drain, a one-by-one residue, a replay, what a batch run absorbed from the
// queue). They go to the head of the queue: they are older than anything
// that combines behind them, and the master keeps the later op per key. ins
// is a PutBatch or DeleteBatch run or a ModeSync insert, which rides on the
// request instead, so it supersedes anything the master redistributes into
// the queue before pickup.
//
// wait=false is the active writer of ModeBatch: the request carries the
// gate's tdelay rate limit and the caller does not wait. Otherwise the call
// returns once the request and the redistributions it caused have been
// served (handle); that wait is observed into HandOffWait.
func (p *PMA) handOff(st *state, g *gate, front, ins []op, wait bool) {
	req := &request{kind: reqBatch, st: st, g: g, ins: ins}
	if wait {
		req.done = make(chan struct{})
	} else if nb := time.Unix(0, g.lastReb).Add(p.cfg.TDelay); time.Now().Before(nb) {
		// lastReb is read under the latch we still hold.
		p.metrics.DeferredBatches.Inc()
		req.notBefore = nb
	}
	g.mu.Lock()
	g.qOps = slices.Insert(g.qOps, 0, front...)
	g.qOpen = true
	g.releaseLocked() // chunk mutations done; queue hand-off is mu-protected
	g.mu.Unlock()
	p.reb.submit(req)
	if wait {
		t0 := time.Now()
		<-req.done
		now := time.Now()
		p.metrics.HandOffWait.ObserveAt(now.UnixNano(), uint64(now.Sub(t0)))
	}
}

// compactOps reduces an op sequence to its final effect per key (later ops
// supersede earlier ones on the same key), split into key-sorted insert ops,
// key-sorted delete ops, and ops outside [lo, hi] that must be re-routed, in
// arrival order. It reorders ops in place and ins aliases it.
func compactOps(ops []op, lo, hi int64) (ins, dels, reroute []op) {
	ops, reroute = fenceSplit(ops, lo, hi, nil)
	ins = ops[:0]
	for _, o := range sortDedupOps(ops) {
		if o.del {
			dels = append(dels, o)
		} else {
			ins = append(ins, o)
		}
	}
	return ins, dels, reroute
}

// fenceSplit partitions ops in place: those within [lo, hi] stay, in order,
// and the others are appended to out.
func fenceSplit(ops []op, lo, hi int64, out []op) (in, rest []op) {
	in = ops[:0]
	for _, o := range ops {
		if o.key < lo || o.key > hi {
			out = append(out, o)
		} else {
			in = append(in, o)
		}
	}
	return in, out
}

// Flush forces every combining queue and every deferred batch to be applied.
// After Flush returns (and provided no new updates raced with it), reads
// observe all previously accepted updates. In ModeSync it is a no-op beyond
// a service round-trip.
func (p *PMA) Flush() {
	p.checkOpen()
	for {
		// Push all delayed batches through the rebalancer now.
		done := make(chan struct{})
		p.reb.submit(&request{kind: reqFlushDelayed, done: done})
		<-done
		if !p.sweepQueues() {
			return
		}
	}
}

// sweepQueues becomes the active writer of every idle gate's combining
// queue, as a writer that won the latch would, and drains it, reporting
// whether anything was found. The queue stays open while the ops apply under
// the latch, so an update that arrives meanwhile combines behind them instead
// of being overwritten by their replay.
func (p *PMA) sweepQueues() bool {
	found := false
	st := p.state.Load()
	for _, g := range st.gates {
		g.mu.Lock()
		if g.invalid {
			g.mu.Unlock()
			return true // resized under us: report dirty so Flush retries
		}
		idle := g.qOpen && g.lstate == lsFree && !g.rebWanted
		if idle {
			g.lstate = lsWriter
			g.beginExclusive()
		}
		g.mu.Unlock()
		if idle {
			found = true
			p.drainQueue(st, g, nil, false)
		}
	}
	return found
}
