package core

import (
	"runtime"
	"slices"
	"sync/atomic"
)

// This file is the batch-update subsystem. Point updates (write.go) pay the
// full routing cost — index lookup, gate latch — once per key; the batch
// entry points below pay it once per *gate*: the batch is sorted and
// deduplicated, partitioned into per-gate runs along the fence keys, and
// each run is merged into its gate's segments in a single pass. Only when a
// run does not fit under the gate's calibrator threshold does the work fall
// back to the centralised rebalancer, which merges the run during the global
// rebalance it was going to perform anyway (Section 3.5's batch processing,
// applied synchronously). BulkLoad skips the incremental machinery entirely
// and lays a sorted dataset out at the calibrator tree's target density in
// O(n).

// PutBatch upserts all keys[i]/vals[i] pairs. Duplicate keys within the
// batch collapse to their last occurrence, matching the effect of issuing
// the Puts in order. The batch is partitioned by gate and each affected gate
// is latched exactly once, so a batch is far cheaper than the equivalent
// point-Put loop but is not atomic: a concurrent scan may observe a gate
// that already carries its run next to one that does not. When PutBatch
// returns the whole batch has been applied — a run handed to the rebalancer
// returns only once the master has also applied what it displaced — but
// updates to the same keys from concurrent calls remain unordered with
// respect to the batch.
func (p *PMA) PutBatch(keys, vals []int64) {
	p.checkOpen()
	if err := CheckBatch(keys, vals); err != nil {
		panic(err.Error())
	}
	ops := make([]op, len(keys))
	for i, k := range keys {
		ops[i] = op{key: k, val: vals[i]}
	}
	ops = sortDedupOps(ops)
	p.applyBatchParallel(ops)
}

// DeleteBatch removes every given key, reporting how many elements were
// removed from the array. Sentinel keys and duplicates are ignored. Unlike
// point Deletes in the asynchronous modes, the count is exact — deletions
// only lower density, so every run is applied in place under its gate latch
// — and it stays exact under concurrent writers: deletions belonging to
// absorbed queue ops are applied but never attributed to the batch.
func (p *PMA) DeleteBatch(keys []int64) int {
	p.checkOpen()
	ops := make([]op, 0, len(keys))
	for _, k := range keys {
		if CheckKey(k) != nil {
			continue
		}
		ops = append(ops, op{key: k, del: true})
	}
	ops = sortDedupOps(ops)
	return int(p.applyBatchParallel(ops))
}

// applyBatchParallel splits a key-sorted, deduplicated op slice into
// contiguous chunks applied concurrently (Fan) — the batch-parallel
// property a point-update loop cannot have: chunks cover disjoint key
// ranges, every op still applies under its gate's latch, and at most the
// two gates straddling a chunk boundary see more than one worker. Small
// batches run inline; an empty one (no keys, or a DeleteBatch of sentinels
// only) returns at once.
func (p *PMA) applyBatchParallel(ops []op) int64 {
	n := len(ops)
	if n == 0 {
		return 0
	}
	const minChunk = 1024 // below this, goroutine handoff costs more than it buys
	workers := min(runtime.GOMAXPROCS(0), p.cfg.Workers, n/minChunk)
	if workers <= 1 {
		return p.applyBatch(ops, ops)
	}
	var removed atomic.Int64
	Fan(workers, workers, func(w int) error {
		removed.Add(p.applyBatch(ops[n*w/workers:n*(w+1)/workers], ops))
		return nil
	})
	return removed.Load()
}

// sortDedupOps puts ops in ascending key order keeping only the last op per
// key (later updates supersede earlier ones, as in sequential application).
// Already-sorted input — the common case for bulk ingest — is detected and
// skips the sort.
func sortDedupOps(ops []op) []op {
	sorted, unique := true, true
	for i := 1; i < len(ops); i++ {
		if ops[i].key < ops[i-1].key {
			sorted = false
			break
		}
		if ops[i].key == ops[i-1].key {
			unique = false
		}
	}
	if sorted && unique { // already in batch form: skip the compaction pass
		return ops
	}
	if !sorted {
		slices.SortStableFunc(ops, func(a, b op) int {
			switch {
			case a.key < b.key:
				return -1
			case a.key > b.key:
				return 1
			default:
				return 0
			}
		})
	}
	out := ops[:0]
	for i := range ops {
		if i+1 < len(ops) && ops[i+1].key == ops[i].key {
			continue
		}
		out = append(out, ops[i])
	}
	return out
}

// applyBatch routes a key-sorted, deduplicated op slice gate by gate in
// ascending key order, returning the number of elements deleted. all is the
// complete batch the slice belongs to — the whole slice again, or the full
// op set when workers split it — used to keep absorbed stale ops from
// clobbering any part of the batch. Like the point-update path it reaches each gate through enter; unlike
// it, every op covered by one gate's fences is handled under a single latch
// acquisition.
func (p *PMA) applyBatch(ops, all []op) int64 {
	removedTotal := int64(0)
	for rem := ops; len(rem) > 0; {
		st, g := p.enter(rem[0].key, latchExclusive, op{})
		run := opRange(rem, g.fenceLo, g.fenceHi) // a prefix of rem
		rem = rem[len(run):]
		removed, leftovers := p.applyGateBatch(st, g, run)
		removedTotal += removed
		// Absorbed queue ops whose keys fall outside the gate's fences are
		// replayed through the synchronous path, as drainQueue does — except
		// keys the batch also carries (anywhere in it, including other
		// workers' chunks): the absorbed op is older, and replaying it would
		// clobber the batch's value.
		for _, o := range leftovers {
			if i := searchOps(all, o.key); i < len(all) && all[i].key == o.key {
				continue
			}
			p.updateSync(o)
		}
	}
	p.maybeRequestShrink(p.state.Load())
	return removedTotal
}

// applyGateBatch applies one gate's run while holding its latch exclusively
// and releases the latch. Any ops parked in the gate's combining queue are
// absorbed first — they are older than the batch and applying them later
// would revert it (the batch wins per key through compactOps). Deletions go
// first (they only lower density), then the inserts take one mergeLocal, and
// what does not fit in the chunk is handed to the rebalancer, which merges
// the run into the global rebalance it performs — applyGateBatch blocks
// until that completes. Absorbed ops routed outside the fences are returned
// for the caller to replay.
func (p *PMA) applyGateBatch(st *state, g *gate, run []op) (removed int64, leftovers []op) {
	// A parked batch — we hold the latch, so no active writer owns the
	// queue. Its outstanding rebalancer request finds the queue emptied.
	ins, dels := run, []op(nil)
	parked := p.detachQueue(g)
	if len(parked) > 0 {
		// compactOps works in place: the caller's batch must stay as it is.
		ops := append(append(make([]op, 0, len(parked)+len(run)), parked...), run...)
		ins, dels, leftovers = compactOps(ops, g.fenceLo, g.fenceHi)
	} else if run[0].del { // a batch is all puts (PutBatch) or all deletes
		ins, dels = nil, run
	}
	removed = g.deleteRun(st, dels, run)
	if g.mergeLocal(st, ins) {
		g.release()
		return removed, leftovers
	}
	// The run overflows the chunk: it rides on the request, which the master
	// applies after the queue. What it absorbed of other keys goes back to
	// the queue's front instead, ahead of what writers combine behind it.
	// Clip the run so appends to it cannot stomp the caller's remaining ops.
	own, front := ins, []op(nil)
	if len(parked) > 0 {
		own = nil
		for _, o := range ins {
			if i := searchOps(run, o.key); i < len(run) && run[i].key == o.key {
				own = append(own, o)
			} else {
				front = append(front, o)
			}
		}
	}
	p.handOff(st, g, front, slices.Clip(own), true)
	return removed, leftovers
}

// searchOps returns the first index in key-sorted ops with key >= k.
func searchOps(ops []op, k int64) int {
	lo, hi := 0, len(ops)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if ops[m].key < k {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// BulkLoad builds a PMA already containing the given pairs. The elements are
// sorted and deduplicated (later occurrences win, as with sequential Puts)
// and written directly into a sparse array sized for the calibrator tree's
// target density — O(n log n) for unsorted input, a single O(n) pass for
// strictly ascending input — instead of n point inserts with their
// O(n log² n) total rebalancing work. Ascending input is laid out straight
// from the caller's slices, which the fill copies and does not retain. The
// returned PMA is fully started; callers must Close it.
func BulkLoad(cfg Config, keys, vals []int64) (*PMA, error) {
	ascending, err := checkBatch(keys, vals)
	if err != nil {
		return nil, err
	}
	p, err := newShell(cfg)
	if err != nil {
		return nil, err
	}
	ks, vs := keys, vals
	if !ascending {
		ops := make([]op, len(keys))
		for i, k := range keys {
			ops[i] = op{key: k, val: vals[i]}
		}
		ops = sortDedupOps(ops)
		ks, vs = make([]int64, len(ops)), make([]int64, len(ops))
		for i, o := range ops {
			ks[i], vs[i] = o.key, o.val
		}
	}
	p.state.Store(p.buildLoadedState(ks, vs))
	p.startServices()
	return p, nil
}

// buildLoadedState lays the sorted unique pairs out across a fresh state
// whose capacity puts the array at the midpoint of the root thresholds —
// the same density a resize targets — with an even spread per segment.
func (p *PMA) buildLoadedState(ks, vs []int64) *state {
	n := len(ks)
	numSegs := p.targetSegs(n)
	st := p.newState(numSegs / p.cfg.SegmentsPerGate)
	counts := evenCounts(n, numSegs)
	plans := make([]destPlan, len(st.gates))
	for i, off := 0, 0; i < len(st.gates); i++ {
		plans[i] = p.fillChunk(counts[i*st.spg:(i+1)*st.spg], ks[off:], vs[off:])
		off += plans[i].gcard
	}
	p.installState(st, plans, n)
	return st
}
