package core

import (
	"errors"
	"fmt"
)

// errSentinelKey is what every store front reports for a sentinel key.
var errSentinelKey = errors.New("core: cannot store sentinel key")

// CheckKey reports whether a store may hold k: every key but the sentinels
// KeyMin and KeyMax. Put panics with the error's text, and Delete and
// DeleteBatch ignore such a key.
func CheckKey(k int64) error {
	if k == KeyMin || k == KeyMax {
		return errSentinelKey
	}
	return nil
}

// CheckBatch reports whether PutBatch and BulkLoad accept keys and vals: one
// value per key and no sentinel key. PutBatch panics with the error's text
// before it applies any pair.
func CheckBatch(keys, vals []int64) error {
	if len(keys) != len(vals) {
		return fmt.Errorf("core: batch of %d keys but %d values", len(keys), len(vals))
	}
	for _, k := range keys {
		if err := CheckKey(k); err != nil {
			return err
		}
	}
	return nil
}

// op is one pending update, as stored in a combining queue.
type op struct {
	key int64
	val int64
	del bool
}

// detachQueue closes the combining queue of a gate the caller holds
// exclusively and returns what it held, now the caller's to apply: the
// master or a batch run folding it into their job.
func (p *PMA) detachQueue(g *gate) []op {
	g.mu.Lock()
	ops := g.qOps
	g.qOpen, g.qOps = false, nil
	g.mu.Unlock()
	if len(ops) > 0 {
		p.metrics.DrainSize.Observe(uint64(len(ops)))
	}
	return ops
}

// Put inserts or replaces k/v. In the asynchronous modes the update may be
// deferred: it is guaranteed to be applied before a Flush returns, but an
// immediately following Get may not observe it.
func (p *PMA) Put(k, v int64) {
	p.checkOpen()
	if err := CheckKey(k); err != nil {
		panic(err.Error())
	}
	p.update(op{key: k, val: v})
}

// Delete removes k. The result reports whether an element was removed
// synchronously; a deferred (combined) delete returns true optimistically,
// matching the fire-and-forget semantics of Section 3.5.
func (p *PMA) Delete(k int64) bool {
	p.checkOpen()
	if CheckKey(k) != nil {
		return false
	}
	return p.update(op{key: k, del: true})
}

// update applies one update according to the configured mode: synchronously,
// or as a Section 3.5 writer that either combines behind its gate's active
// writer or becomes it.
func (p *PMA) update(o op) bool {
	if p.cfg.Mode == ModeSync {
		return p.updateSync(o)
	}
	st, g := p.enter(o.key, latchCombine, o)
	if g == nil {
		return true // combined: the queue's owner applies it
	}
	return p.applyOwn(st, g, o, g.openQueue(o))
}

// updateSync is the baseline path (Section 3.3), ModeSync's update and in
// every mode the replay of ops that lost their gate (drainQueue, Flush, batch
// leftovers): enter exclusively and apply in place through mergeLocal, or
// hand an insert that overflows the chunk to the rebalancer and wait until it
// has been served. A replay is older than anything combined behind it, so it
// goes to the front of the queue. In ModeSync nothing combines: what the
// queue holds was parked there before, and the op rides on the request like a
// batch run, which also keeps a concurrent batch or Flush from taking it out
// of the queue and applying it after this call returned.
func (p *PMA) updateSync(o op) bool {
	st, g := p.enter(o.key, latchExclusive, o)
	result := true
	if o.del {
		if result = g.del(o.key); result {
			st.card.Add(-1)
		}
	} else if own := [1]op{o}; !g.mergeLocal(st, own[:]) {
		if ins := []op{o}; p.cfg.Mode == ModeSync {
			p.handOff(st, g, nil, ins, true)
		} else {
			p.handOff(st, g, ins, nil, true)
		}
		return true
	}
	g.release()
	if o.del {
		p.maybeRequestShrink(st)
	}
	return result
}

// openQueue publishes the latch holder's combining queue, waking writers
// blocked in lockOrCombine so they can combine. It reports whether the queue
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
func (p *PMA) applyOwn(st *state, g *gate, o op, queued bool) (result bool) {
	result = true
	own := [1]op{o} // on the stack: nothing below retains it
	var reroute []op
	released := false
	switch {
	case queued:
		if o.del {
			var good bool
			if _, result, good = g.get(o.key); !good {
				panic(corruptSegment)
			}
		}
	case o.del:
		if result = g.del(o.key); result {
			st.card.Add(-1)
		}
	case p.cfg.Mode == ModeOneByOne:
		reroute, released = p.drainOneByOne(st, g, own[:])
	case !g.mergeLocal(st, own[:]):
		// The chunk cannot take it: handed off as drainBatch hands off a
		// drained queue, rate-limited by TDelay and not waited for.
		p.handOff(st, g, own[:], nil, false)
		released = true
	}
	p.drainQueue(st, g, reroute, released)
	return result
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
