package core

// latchMode is how enter takes the gate it arrives at.
type latchMode int

const (
	latchExclusive latchMode = iota // synchronous updates and batch runs
	latchCombine                    // a Section 3.5 writer: exclusive, or its op joins an open queue
)

// route is the unsynchronised half of the entry protocol: the static index
// names a gate for key. The separators are read while rebalances rewrite
// them, so the answer may be a neighbour of the owner (never out of range:
// staticIndex.lookup guarantees a valid gate number); whoever acts on it verifies
// the fences — enter under the latch, Get and Scan in their one read of
// the gate (read.go), the master latch-free (only it moves fences).
func (st *state) route(key int64) int { return st.index.lookup(key) }

// enter is the writers' way into a gate, the protocol of Section 3.2: look the
// key up in the static index without synchronisation, latch the gate it names,
// and verify under the latch that the gate is still part of the array and
// that its fences cover the key — stepping to the neighbour when a racy index
// read landed one off, reloading the state when a resize retired the gate. It
// returns the current state and the gate that owns key, latched
// exclusively; the caller releases it (release). Readers do not come this
// way: Get, Scan and Validate latch the gates they read themselves.
//
// latchCombine is the writer's entry of Section 3.5: where the gate's
// combining queue is open, o is appended to it instead and enter returns nil
// gates — the queue's owner applies o. That append is the one step taken
// without the latch, so without the fences: it is guarded by the state's
// fence generation instead, sampled here before the lookup and compared
// under the queue's mutex (lockOrCombine). latchExclusive ignores o.
func (p *PMA) enter(key int64, mode latchMode, o op) (*state, *gate) {
	for {
		st := p.state.Load()
		gen := st.fenceGen.Load()
		gi := st.route(key)
	walk:
		for {
			g := st.gates[gi]
			if mode == latchExclusive {
				g.lockX()
			} else {
				switch g.lockOrCombine(o, st, gen) {
				case lockEnqueued:
					p.metrics.CombinedOps.Inc()
					return nil, nil
				case lockStale:
					break walk
				}
			}
			// Holding the latch: verify the fences (Section 3.2).
			invalid, lo, hi := g.invalid, g.fenceLo, g.fenceHi
			if !invalid && (key >= lo || gi == 0) && (key <= hi || gi == len(st.gates)-1) {
				return st, g
			}
			g.release()
			switch {
			case invalid:
				break walk // the array was resized: restart on the new state
			case key < lo:
				gi--
			default:
				gi++
			}
		}
		if h := p.onReload; h != nil {
			h()
		}
	}
}

// lockResult describes how lockOrCombine resolved.
type lockResult int

const (
	lockAcquired lockResult = iota // caller holds the gate exclusively
	lockEnqueued                   // op was absorbed into the open queue
	lockStale                      // the route no longer holds: look the gate up again
)

// lockOrCombine implements the writer-side gate protocol of Section 3.5: if
// the combining queue is open (an active writer, or a batch pending at the
// rebalancer), the update is appended and the call returns immediately;
// otherwise the caller acquires the latch exclusively. The caller opens the
// queue only after verifying the fences (openQueue), matching the paper: a
// writer first reaches its gate, then publishes pQ.
//
// gen is st's fence generation as sampled before the index lookup that chose
// g. The master bumps it after a rebalance moved fences and before it
// re-parks what the moves displaced, taking each window queue's mu: an append
// that still sees gen under mu precedes that pass on this queue (the pass
// moves the op along if the key left the gate), and one that follows it sees
// the bump and routes again — no op is left queued at a gate that lost its
// key, where a later update of the key would overtake it.
func (g *gate) lockOrCombine(o op, st *state, gen uint64) lockResult {
	g.mu.Lock()
	g.wWaiting++ // readers yield while an update is pending here
	for {
		if g.invalid || g.qOpen {
			res := lockStale
			if !g.invalid && st.fenceGen.Load() == gen {
				g.qOps = append(g.qOps, o)
				res = lockEnqueued
			}
			g.wWaiting--
			g.cond.Broadcast()
			g.mu.Unlock()
			return res
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
