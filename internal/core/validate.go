package core

import (
	"fmt"
)

// Validate checks the structural invariants of the whole concurrent PMA:
// per-chunk ordering and metadata, fence-key containment and tiling across
// gates, index separators mirroring the fences, and the global cardinality.
// It must be called while no updates are in flight (tests quiesce first);
// reads may continue.
func (p *PMA) Validate() error {
	st := p.state.Load()
	total := 0
	prevKey := int64(KeyMin)
	var prevHi int64 // tiling check only applies from gate 1 onward
	for gi, g := range st.gates {
		g.lockShared()
		err := func() error {
			if g.invalid {
				return fmt.Errorf("gate %d invalid in current state", gi)
			}
			// Holding the latch shared excludes every exclusive holder,
			// so the seqlock version must be even: an odd version here
			// means some mutation path forgot its endExclusive bump and
			// optimistic readers would validate mid-update snapshots.
			if v := g.version.Load(); v&1 != 0 {
				return fmt.Errorf("gate %d seqlock version %d odd under shared latch", gi, v)
			}
			if g.idx != gi {
				return fmt.Errorf("gate %d has idx %d", gi, g.idx)
			}
			if gi == 0 && g.fenceLo != KeyMin {
				return fmt.Errorf("gate 0 fenceLo = %d, want KeyMin", g.fenceLo)
			}
			if gi == len(st.gates)-1 && g.fenceHi != KeyMax {
				return fmt.Errorf("last gate fenceHi = %d, want KeyMax", g.fenceHi)
			}
			if gi > 0 && g.fenceLo != prevHi+1 {
				return fmt.Errorf("gate %d fenceLo %d does not tile with previous fenceHi %d", gi, g.fenceLo, prevHi)
			}
			if sep := st.index.get(gi); gi > 0 && sep != g.fenceLo {
				return fmt.Errorf("gate %d index separator %d != fenceLo %d", gi, sep, g.fenceLo)
			}
			// segKeys reads segment s's stored keys through the checked
			// view, so a corrupt block reports as an error here instead of
			// the latched paths' panic.
			sc := g.cc.get()
			defer g.cc.put(sc)
			segKeys := func(s int) ([]int64, error) {
				ks, _, err := g.viewChecked(s, sc)
				if err != nil {
					return nil, fmt.Errorf("gate %d segment %d: %w", gi, s, err)
				}
				return ks, nil
			}
			if err := g.checkStorage(); err != nil {
				return fmt.Errorf("gate %d: %w", gi, err)
			}
			gtotal := 0
			inherit := int64(KeyMax)
			for s := g.spg - 1; s >= 0; s-- {
				c := g.segCard[s]
				if c < 0 || c > g.b {
					return fmt.Errorf("gate %d segment %d cardinality %d", gi, s, c)
				}
				if c > 0 {
					ks, err := segKeys(s)
					if err != nil {
						return err
					}
					if g.smin[s] != ks[0] {
						return fmt.Errorf("gate %d segment %d cached min mismatch", gi, s)
					}
					inherit = g.smin[s]
				} else if g.smin[s] != inherit {
					return fmt.Errorf("gate %d empty segment %d min not inherited", gi, s)
				}
				gtotal += c
			}
			if gtotal != g.gcard {
				return fmt.Errorf("gate %d gcard %d != segment sum %d", gi, g.gcard, gtotal)
			}
			for s := 0; s < g.spg; s++ {
				ks, err := segKeys(s)
				if err != nil {
					return err
				}
				for i, k := range ks {
					if k <= prevKey {
						return fmt.Errorf("gate %d segment %d offset %d: key %d after %d", gi, s, i, k, prevKey)
					}
					if k < g.fenceLo || k > g.fenceHi {
						return fmt.Errorf("gate %d key %d outside fences [%d,%d]", gi, k, g.fenceLo, g.fenceHi)
					}
					prevKey = k
				}
			}
			total += gtotal
			prevHi = g.fenceHi
			return nil
		}()
		g.unlockShared()
		if err != nil {
			return err
		}
	}
	if int64(total) != st.card.Load() {
		return fmt.Errorf("element sum %d != recorded cardinality %d", total, st.card.Load())
	}
	return p.validateStats()
}

// validateStats cross-checks the live metrics' own invariants, so a broken
// instrumentation site (a double count, a missed drain observation) fails
// the existing structural test suites instead of silently skewing operator
// dashboards. Reads may still be in flight, so each check loads its
// bounded side first: the bounding counter is always incremented first on
// the instrumented paths, making the inequality stable under races.
func (p *PMA) validateStats() error {
	m := p.metrics
	// A latched read only happens after p.attempts failed probes, and the
	// failures are recorded before the latched serve.
	n := uint64(p.attempts)
	latched := m.GetLatched.Load()
	if fails := m.GetProbeFails.Load(); latched*n > fails {
		return fmt.Errorf("stats: latched gets %d after %d probes each > probe failures %d", latched, n, fails)
	}
	scanLatched := m.ScanChunksLatched.Load()
	if fails := m.ScanProbeFails.Load(); scanLatched*n > fails {
		return fmt.Errorf("stats: latched scan chunks %d after %d probes each > scan probe failures %d", scanLatched, n, fails)
	}
	// Every absorbed op enters a combining queue, and every queue detach
	// observes its length into DrainSize — so, with the still-queued ops
	// added, the drained total bounds the absorbed one. (The converse
	// doesn't hold: drains also carry re-queued batch inserts and ops the
	// master re-parked.)
	combined := m.CombinedOps.Load()
	drained := m.DrainSize.Snapshot().Sum + uint64(p.QueuedOps())
	if combined > drained {
		return fmt.Errorf("stats: combined ops %d > drained+queued ops %d", combined, drained)
	}
	// Every stall-window observation follows the increment of its global
	// rebalance or resize counter, and the window only drops old ones.
	stalls := m.StallWindow.Snapshot().Count
	if holds := m.GlobalRebalances.Load() + m.Resizes.Load(); stalls > holds {
		return fmt.Errorf("stats: stall window count %d > global rebalances + resizes %d", stalls, holds)
	}
	return nil
}

// QueuedOps reports how many updates are currently sitting in combining
// queues (diagnostic; racy by nature).
func (p *PMA) QueuedOps() int {
	st := p.state.Load()
	n := 0
	for _, g := range st.gates {
		g.mu.Lock()
		n += len(g.qOps)
		g.mu.Unlock()
	}
	return n
}
