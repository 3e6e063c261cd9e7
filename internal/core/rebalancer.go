package core

import (
	"sort"
	"time"
)

// reqKind enumerates the work items the rebalancer master serves.
type reqKind int

const (
	reqBatch        reqKind = iota // a gate handed off its overflow: merge its queue and run
	reqShrink                      // occupancy dropped below the downsize threshold
	reqFlushDelayed                // force all delayed batches through (Flush)
)

// request is one unit of work submitted to the master.
type request struct {
	kind      reqKind
	st        *state
	g         *gate
	notBefore time.Time // batch rate limiting (tdelay); zero = immediate
	ins       []op      // a batch run's or a ModeSync insert's key-sorted inserts;
	// carried on the request rather than the queue so they supersede any op
	// redistributed into the gate's queue before pickup
	done chan struct{}
}

// rebalancer is the centralised service of Section 3.3: a single master
// goroutine that owns all multi-gate coordination and fans the partitions
// of a window out over up to Config.Workers goroutines (Fan).
type rebalancer struct {
	p      *PMA
	ch     chan *request
	stopCh chan struct{}
	doneCh chan struct{}

	// master-only state
	delayed  []*request
	waiter   bool // serving a waited request: park schedules every gate it fills
	timer    *time.Timer
	scratchK []int64
	scratchV []int64
}

func newRebalancer(p *PMA) *rebalancer {
	r := &rebalancer{
		p:      p,
		ch:     make(chan *request, 4096),
		stopCh: make(chan struct{}),
		doneCh: make(chan struct{}),
	}
	go r.run()
	return r
}

// submit hands a request to the master. Callers must have released every
// gate latch they hold: only the master ever holds more than one, so a
// latch-free submitter cannot deadlock against it.
func (r *rebalancer) submit(req *request) {
	select {
	case r.ch <- req:
	case <-r.stopCh:
		r.complete(req)
	}
}

func (r *rebalancer) complete(req *request) {
	if req.done != nil {
		close(req.done)
	}
}

func (r *rebalancer) close() {
	close(r.stopCh)
	<-r.doneCh
}

// run is the master loop: it serves requests in order, parking rate-limited
// batches until their tdelay expires.
func (r *rebalancer) run() {
	defer close(r.doneCh)
	for {
		var timerC <-chan time.Time
		if d := r.serveDue(); d > 0 {
			if r.timer == nil {
				r.timer = time.NewTimer(d)
			} else {
				if !r.timer.Stop() {
					select {
					case <-r.timer.C:
					default:
					}
				}
				r.timer.Reset(d)
			}
			timerC = r.timer.C
		}
		select {
		case req := <-r.ch:
			r.dispatch(req)
		case <-timerC:
		case <-r.stopCh:
			r.shutdown()
			return
		}
	}
}

func (r *rebalancer) dispatch(req *request) {
	switch {
	case req.kind == reqFlushDelayed:
		for len(r.delayed) > 0 {
			d := r.delayed[0]
			r.delayed = r.delayed[1:]
			r.handle(d)
		}
		r.complete(req)
	case req.kind == reqBatch && !req.notBefore.IsZero() && time.Now().Before(req.notBefore):
		r.delayed = append(r.delayed, req)
	default:
		r.handle(req)
	}
}

// serveDue handles every delayed request whose tdelay has expired, the
// zero-delay redistributions included, and returns how long the earliest
// remaining one still has to wait (0 when none is left).
func (r *rebalancer) serveDue() time.Duration {
	for len(r.delayed) > 0 {
		i := r.earliestDelayed()
		if d := time.Until(r.delayed[i].notBefore); d > 0 {
			return d
		}
		req := r.delayed[i]
		r.delayed = append(r.delayed[:i], r.delayed[i+1:]...)
		r.handle(req)
	}
	return 0
}

func (r *rebalancer) earliestDelayed() int {
	best := 0
	for i := 1; i < len(r.delayed); i++ {
		if r.delayed[i].notBefore.Before(r.delayed[best].notBefore) {
			best = i
		}
	}
	return best
}

// shutdown applies everything still pending so accepted updates are not
// lost: delayed batches and channel requests are drained together, since
// handling either can redistribute displaced ops into new delayed entries.
func (r *rebalancer) shutdown() {
	for {
		if len(r.delayed) > 0 {
			d := r.delayed[0]
			r.delayed = r.delayed[1:]
			r.handle(d)
			continue
		}
		select {
		case req := <-r.ch:
			if req.kind == reqFlushDelayed {
				r.complete(req)
				continue
			}
			r.handle(req)
		default:
			return
		}
	}
}

// handle serves one request; updates that had to be re-routed because
// fences moved are redistributed into their new gates' combining queues in
// bulk (applying them one by one could trigger a global rebalance per op).
//
// A waiter (handOff with wait) is released only once nothing its request
// moved is still parked: while it is served, park schedules an immediate
// batch for every gate it parks into, whether or not the queue already had
// an owner, and serveDue then serves them all, with whatever they park in
// turn. A later owner's request finds the queue emptied. So a ModeSync
// insert or a batch run that fences or a resize re-routed, and the queue ops
// a rebalance displaced, are applied before the call returns, and a later
// in-place update of the same key cannot be overwritten by them.
func (r *rebalancer) handle(req *request) {
	if req.done != nil {
		r.waiter = true
	}
	if leftovers := r.process(req); len(leftovers) > 0 {
		r.redistribute(leftovers)
	}
	if req.done != nil {
		r.serveDue()
		r.waiter = false
	}
	r.complete(req)
}

// redistribute routes misdirected ops to their current gates and parks them
// in combining queues (park).
//
// Parked ops carry no version: an update of the same key that reaches the
// new gate first is overwritten by the replay. A global rebalance therefore
// re-parks what its fence moves displaced before any writer can reach the
// new gates (executeRebalance), so later updates combine behind it; ops a
// racy index read queued at the wrong gate keep the caveat. Batch callers stay ordered
// regardless: they absorb same-gate queues, filter their own keys from
// leftovers, and wait for their hand-off, whose handle serves the batches
// scheduled here before it releases them.
func (r *rebalancer) redistribute(ops []op) {
	st := r.p.state.Load()
	for gi, group := range groupByGate(st, ops) {
		g := st.gates[gi]
		g.mu.Lock()
		r.park(st, g, group)
		g.mu.Unlock()
	}
}

// groupByGate routes ops to the gates that now own their keys. Fence keys
// only move under the (single) master goroutine, so it reads them without
// latches.
func groupByGate(st *state, ops []op) map[int][]op {
	groups := make(map[int][]op)
	for _, o := range ops {
		gi := st.route(o.key)
		for o.key < st.gates[gi].fenceLo && gi > 0 {
			gi--
		}
		for o.key > st.gates[gi].fenceHi && gi < len(st.gates)-1 {
			gi++
		}
		groups[gi] = append(groups[gi], o)
	}
	return groups
}

// park appends displaced ops to g's combining queue, opening it; the caller
// holds g.mu. A queue that was open already has an owner that will absorb
// them (an active writer, or a batch pending at the master). The gate is
// scheduled as an immediate batch through the master's own pending list
// (never through the channel: we are the master, and it may be full) when
// its queue was closed, or while a waited request is served, whose waiter
// must not be released before the ops are applied (handle).
func (r *rebalancer) park(st *state, g *gate, ops []op) {
	open := g.qOpen
	g.qOps = append(g.qOps, ops...)
	g.qOpen = true
	g.cond.Broadcast()
	if !open || r.waiter {
		r.delayed = append(r.delayed, &request{kind: reqBatch, st: st, g: g})
	}
}

// process performs the request's structural work, returning ops that must be
// re-routed through the normal update path.
func (r *rebalancer) process(req *request) []op {
	p := r.p
	if req.kind == reqShrink {
		r.maybeShrink()
		p.shrinkPending.Store(false)
		return nil
	}
	st := p.state.Load()
	if req.st != st {
		// The array was resized since submission: queues were absorbed
		// into the rebuild and waiting writers retry against the new
		// state. Request-carried inserts (a batch run, a ModeSync insert)
		// were NOT in any queue, so they re-route into the current state's
		// gates.
		return req.ins
	}
	g := req.g
	g.rebLock()
	if g.invalid {
		g.release()
		return req.ins
	}

	// Absorb the gate's combining queue into this job. The request's own
	// inserts go after the queue ops: compactOps keeps the later op per
	// key, so they supersede anything older that was redistributed into
	// the queue between hand-off and pickup. A queue a writer or batch
	// latching the gate since emptied leaves nothing, or only what fits in
	// the chunk. Deletions only lower density and go first, so they may
	// free enough space to keep the inserts local (mergeLocal).
	ops := p.detachQueue(g)
	ops = append(ops, req.ins...)
	ins, dels, leftovers := compactOps(ops, g.fenceLo, g.fenceHi)
	g.deleteRun(st, dels, nil)
	if g.mergeLocal(st, ins) {
		g.release()
		return leftovers
	}

	// Window search above the chunk level (Section 3.3): expand aligned
	// gate ranges upward through the calibrator tree, latching the newly
	// covered gates along the way. Only the master ever holds more than
	// one latch. The search is timed as part of the rebalance: escalation
	// cost belongs to the rebalance duration. Only the (single) master
	// goroutine reaches this code, so the clock reads cannot contend.
	t0 := time.Now()
	glo, ghi := g.idx, g.idx+1
	pending := len(ins)
	chunkLevel := log2(st.spg) + 1
	found := false
	for k := chunkLevel + 1; k <= st.height; k++ {
		wSegs := 1 << (k - 1)
		wGates := wSegs / st.spg
		nlo := g.idx &^ (wGates - 1)
		nhi := nlo + wGates
		for i := nlo; i < glo; i++ {
			st.gates[i].rebLock()
		}
		for i := ghi; i < nhi; i++ {
			st.gates[i].rebLock()
		}
		glo, ghi = nlo, nhi
		cardW := 0
		for i := glo; i < ghi; i++ {
			cardW += st.gates[i].gcard
		}
		_, tau := st.thresholds(k, st.height)
		if float64(cardW+pending) <= tau*float64(wSegs*st.b) && cardW+pending <= wSegs*(st.b-1) {
			found = true
			break
		}
	}
	if found {
		if leftovers = append(leftovers, r.executeRebalance(st, glo, ghi, ins)...); len(leftovers) > 0 {
			r.redistribute(leftovers)
			leftovers = nil
		}
		for i := glo; i < ghi; i++ {
			st.gates[i].release()
		}
		now := time.Now()
		d := now.Sub(t0)
		p.metrics.GlobalRebalances.Inc()
		p.metrics.RebalanceNanos.ObserveDuration(d)
		p.metrics.StallWindow.ObserveAt(now.UnixNano(), uint64(d))
	} else {
		r.resize(st, glo, ghi, ins, true)
	}
	return leftovers
}

// --- data movement ---

// fillChunk builds a fresh chunk laid out per segCounts from the leading
// sorted pairs of ks/vs and derives the chunk metadata; it consumes the
// plan's gcard pairs. fillPlans runs it once per chunk.
func (p *PMA) fillChunk(segCounts []int, ks, vs []int64) destPlan {
	pl := p.newPlan(len(segCounts))
	sc := p.cctx.get()
	defer p.cctx.put(sc)
	for j, c := range segCounts {
		if c > 0 {
			pl.smin[j] = p.fillSeg(&pl, j, ks[pl.gcard:pl.gcard+c], vs[pl.gcard:pl.gcard+c], sc)
		}
		pl.segCard[j] = c
		pl.gcard += c
	}
	inherit := int64(KeyMax)
	for j := len(segCounts) - 1; j >= 0; j-- {
		if pl.segCard[j] > 0 {
			inherit = pl.smin[j]
		} else {
			pl.smin[j] = inherit
		}
	}
	if pl.gcard > 0 {
		pl.firstKey = inherit // after the loop, inherit is the chunk minimum
		pl.hasKey = true
	}
	return pl
}

// fillPlans spreads the sorted pairs of ks/vs over numSegs segments as
// evenCounts does and fills one chunk per spg of them in parallel (Fan over
// Workers). check, when set, vets a chunk's keys ks[lo:hi] in its task
// first: a refused chunk stays unbuilt and the errors are joined.
func (p *PMA) fillPlans(numSegs int, ks, vs []int64, check func(lo, hi int) error) ([]destPlan, error) {
	spg := p.cfg.SegmentsPerGate
	base, rem := len(ks)/numSegs, len(ks)%numSegs
	start := func(s int) int { return s*base + min(s, rem) } // segment s's first pair
	plans := make([]destPlan, numSegs/spg)
	err := Fan(len(plans), p.cfg.Workers, func(i int) error {
		lo := start(i * spg)
		if check != nil {
			if err := check(lo, start((i+1)*spg)); err != nil {
				return err
			}
		}
		var counts [maxSegmentsPerGate]int
		for j := range spg {
			counts[j] = start(i*spg+j+1) - start(i*spg+j)
		}
		plans[i] = p.fillChunk(counts[:spg], ks[lo:], vs[lo:])
		return nil
	})
	return plans, err
}

// executeRebalance redistributes gates [glo, ghi) evenly (the traditional
// policy used for all global rebalances), merging the batch inserts in: it
// materialises (existing ∪ inserts) into scratch in parallel per source gate,
// then fills the destinations from scratch. The master holds all the
// window's latches.
//
// Queued ops follow their keys: what the fence moves leave out of range in a
// window gate's queue is parked at the gate that now owns its key, so a later
// update of the key combines behind it instead of overtaking it. The master
// holds every window queue's mu from before it publishes the new fences and
// index separators until the last displaced op is parked, and bumps the
// fence generation in between: a writer that sampled the old generation,
// whatever index it read, and has not appended by then refuses to
// (lockOrCombine); one that sampled the new generation read the new index,
// and appends behind the displaced ops. Ops whose new gate lies outside the
// window are returned, for redistribute.
func (r *rebalancer) executeRebalance(st *state, glo, ghi int, ins []op) (stray []op) {
	before := 0
	for i := glo; i < ghi; i++ {
		before += st.gates[i].gcard
	}
	total := r.materialize(st, glo, ghi, ins, nil)
	plans, _ := r.p.fillPlans((ghi-glo)*st.spg, r.scratchK, r.scratchV, nil) // materialize cut them to total
	st.card.Add(int64(total - before))

	window := st.gates[glo:ghi]
	for _, h := range window {
		h.mu.Lock()
	}
	r.p.publish(st, glo, ghi, plans, time.Now().UnixNano())
	st.fenceGen.Add(1)
	var moved []op
	for _, h := range window {
		h.qOps, moved = fenceSplit(h.qOps, h.fenceLo, h.fenceHi, moved)
	}
	for gi, group := range groupByGate(st, moved) {
		if gi < glo || gi >= ghi {
			stray = append(stray, group...)
			continue
		}
		r.park(st, st.gates[gi], group)
	}
	for _, h := range window {
		h.mu.Unlock()
	}
	return stray
}

// materialize merges each source gate's elements with its slice of the
// sorted batch inserts (minus deletes, when given) into the master's scratch
// arrays, in parallel, and returns the total element count.
func (r *rebalancer) materialize(st *state, glo, ghi int, ins, dels []op) int {
	m := ghi - glo
	counts := make([]int, m)
	Fan(m, r.p.cfg.Workers, func(i int) error {
		g := st.gates[glo+i]
		counts[i] = countMerged(g, opRange(ins, g.fenceLo, g.fenceHi), opRange(dels, g.fenceLo, g.fenceHi))
		return nil
	})

	total := 0
	offsets := make([]int, m)
	for i, c := range counts {
		offsets[i] = total
		total += c
	}
	if cap(r.scratchK) < total {
		r.scratchK = make([]int64, total)
		r.scratchV = make([]int64, total)
	}
	r.scratchK = r.scratchK[:total]
	r.scratchV = r.scratchV[:total]

	Fan(m, r.p.cfg.Workers, func(i int) error {
		g := st.gates[glo+i]
		off, end := offsets[i], offsets[i]+counts[i]
		mergeInto(r.scratchK[off:end], r.scratchV[off:end], g, opRange(ins, g.fenceLo, g.fenceHi), opRange(dels, g.fenceLo, g.fenceHi))
		return nil
	})
	return total
}

// publish swaps the freshly built buffers into gates [glo, ghi) — the O(1)
// "rewiring" step; the old buffers are left unchanged to the GC — updates
// fence keys right-to-left (interior boundaries move to the first key now
// stored in each gate; the window's outer boundaries are preserved) and
// mirrors the new separators into the static index; stamp becomes the
// gates' last-rebalance time. In a live state every gate in the window is
// rebLock'd, so its seqlock version has been odd since before the first
// buffer or fence move: an optimistic reader that sampled the pre-rebalance
// version cannot validate across any part of this swap, and one that samples
// afterwards sees the completed window.
func (p *PMA) publish(st *state, glo, ghi int, plans []destPlan, stamp int64) {
	nextLo := int64(KeyMax)
	if ghi < len(st.gates) {
		nextLo = st.gates[ghi].fenceLo
	}
	for i := ghi - 1; i >= glo; i-- {
		g := st.gates[i]
		pl := &plans[i-glo]
		g.install(pl)
		if nextLo == KeyMax {
			g.fenceHi = KeyMax
		} else {
			g.fenceHi = nextLo - 1
		}
		if i > glo {
			lo := nextLo
			if pl.hasKey {
				lo = pl.firstKey
			}
			g.fenceLo = lo
			st.index.set(i, lo)
		}
		g.lastReb = stamp
		nextLo = g.fenceLo
	}
}

// --- resizes (Section 3.4) ---

// resize rebuilds the whole sparse array at a new capacity, absorbing every
// combining queue, publishes the new state and invalidates the old gates.
// The master already holds latches for gates [heldLo, heldHi); resize
// acquires the rest, and releases everything before returning.
func (r *rebalancer) resize(st *state, heldLo, heldHi int, ins []op, grow bool) {
	p := r.p
	// Timed from here (latching the world is part of the cost); the
	// abandoned-shrink early return below deliberately counts nothing.
	t0 := time.Now()
	for i := 0; i < heldLo; i++ {
		st.gates[i].rebLock()
	}
	for i := heldHi; i < len(st.gates); i++ {
		st.gates[i].rebLock()
	}

	// Fold every pending queue into the rebuild. Request inserts are
	// older than queued ops, so they are compacted first.
	allOps := make([]op, 0, len(ins))
	for _, o := range ins {
		allOps = append(allOps, o)
	}
	for _, g := range st.gates {
		allOps = append(allOps, p.detachQueue(g)...)
	}
	finalIns, finalDels, _ := compactOps(allOps, KeyMin+1, KeyMax-1)

	total := r.materialize(st, 0, len(st.gates), finalIns, finalDels)

	newSegs, shrinks := p.shrinkTo(st, total)
	if grow {
		newSegs = max(newSegs, st.numSegs*2)
	} else if !shrinks {
		// The shrink is no longer worthwhile (pending inserts absorbed
		// from the combining queues inflated the count, or the margin
		// guard against grow/shrink thrash fired). The queues are
		// already detached, so their updates MUST be applied: rebuild
		// in place (a whole-array rebalance merging the batch) unless
		// nothing was absorbed, in which case releasing is safe.
		if len(finalIns) == 0 && len(finalDels) == 0 {
			for _, g := range st.gates {
				g.release()
			}
			return
		}
		newSegs = max(newSegs, st.numSegs)
	}

	newSt, _ := p.buildState(newSegs, r.scratchK, r.scratchV, nil) // not yet visible
	p.state.Store(newSt)

	// Invalidate and release the old gates; waiting clients observe the
	// invalid flag and restart against the new state.
	//
	// Ordering matters for the optimistic readers: invalid is set before
	// endExclusive bumps the version to even. Every gate here has been
	// rebLock'd (version odd) since before the new state was published, so
	// the only even version an optimistic reader can ever validate against
	// a retired gate is this final one — and that snapshot carries
	// invalid=true, so the read is discarded and the reader restarts on the
	// new state, whose pairs may have moved to another gate (the
	// retired-gate regression test in stress_test.go pins this down). The
	// retired buffers are not written again: the GC frees them once no
	// reader holds them.
	for _, g := range st.gates {
		g.mu.Lock()
		g.invalid = true
		g.releaseLocked()
		g.mu.Unlock()
	}
	now := time.Now()
	d := now.Sub(t0)
	p.metrics.Resizes.Inc()
	p.metrics.ResizeNanos.ObserveDuration(d)
	p.metrics.StallWindow.ObserveAt(now.UnixNano(), uint64(d))
}

// buildState spreads the sorted unique pairs of ks/vs evenly over a fresh,
// unpublished state of numSegs segments (fillPlans, passing check on) and
// wires the chunks in as one window whose outer boundaries newState set.
func (p *PMA) buildState(numSegs int, ks, vs []int64, check func(lo, hi int) error) (*state, error) {
	st := p.newState(numSegs / p.cfg.SegmentsPerGate)
	plans, err := p.fillPlans(numSegs, ks, vs, check)
	if err != nil {
		return nil, err
	}
	p.publish(st, 0, len(st.gates), plans, 0) // newState left every gate without storage
	st.card.Store(int64(len(ks)))
	return st, nil
}

// targetSegs is the power-of-two segment count that puts n elements at the
// midpoint of the root thresholds, the density a resize and BulkLoad aim for.
func (p *PMA) targetSegs(n int) int {
	target := (rhoRoot + tauRoot) / 2
	segs := nextPow2(ceilDiv(max(n, 1), int(float64(p.cfg.SegmentCapacity)*target)))
	return max(segs, p.cfg.SegmentsPerGate)
}

// shrinkTo returns the segment count a downsize of st holding n elements
// would target, and whether it is worthwhile: smaller than today, with a
// margin under the root threshold that guards against grow/shrink thrash.
func (p *PMA) shrinkTo(st *state, n int) (segs int, ok bool) {
	segs = p.targetSegs(n)
	return segs, segs < st.numSegs && float64(n) <= (tauRoot-0.05)*float64(segs*st.b)
}

// maybeShrink re-validates the downsize condition and performs the resize.
// The cheap pre-check on the applied cardinality avoids latching the world
// (and detaching every combining queue) when the shrink could not possibly
// materialise — e.g. right after a growth whose power-of-two rounding left
// the density just under 50%.
func (r *rebalancer) maybeShrink() {
	st := r.p.state.Load()
	if st.numSegs <= st.spg {
		return
	}
	card := int(st.card.Load())
	if card*2 >= st.slots() {
		return
	}
	if _, ok := r.p.shrinkTo(st, card); ok {
		r.resize(st, 0, 0, nil, false)
	}
}

// --- merge helpers ---

// opRange returns the subslice of key-sorted ops with keys in [lo, hi].
func opRange(ops []op, lo, hi int64) []op {
	a := sort.Search(len(ops), func(i int) bool { return ops[i].key >= lo })
	b := sort.Search(len(ops), func(i int) bool { return ops[i].key > hi })
	return ops[a:b]
}

// countMerged computes |(existing \ dels) ∪ ins| for one gate without
// allocating. ins and dels are key-disjoint (compactOps keeps one final op
// per key).
func countMerged(g *gate, ins, dels []op) int {
	count := g.gcard + len(ins)
	i, j := 0, 0
	forEachPair(g, func(k, _ int64) {
		for i < len(ins) && ins[i].key < k {
			i++
		}
		if i < len(ins) && ins[i].key == k {
			count-- // upsert: not a new element
			i++
			return
		}
		for j < len(dels) && dels[j].key < k {
			j++
		}
		if j < len(dels) && dels[j].key == k {
			count-- // deleted existing element
			j++
		}
	})
	return count
}

// mergeInto writes (existing \ dels) ∪ ins for one gate into dk/dv in key
// order. The destination length must equal countMerged's result.
func mergeInto(dk, dv []int64, g *gate, ins, dels []op) {
	pos, i, j := 0, 0, 0
	forEachPair(g, func(k, v int64) {
		for i < len(ins) && ins[i].key < k {
			dk[pos], dv[pos] = ins[i].key, ins[i].val
			pos++
			i++
		}
		if i < len(ins) && ins[i].key == k {
			dk[pos], dv[pos] = ins[i].key, ins[i].val // upsert replaces
			pos++
			i++
			return
		}
		for j < len(dels) && dels[j].key < k {
			j++
		}
		if j < len(dels) && dels[j].key == k {
			j++ // drop the deleted element
			return
		}
		dk[pos], dv[pos] = k, v
		pos++
	})
	for ; i < len(ins); i++ {
		dk[pos], dv[pos] = ins[i].key, ins[i].val
		pos++
	}
}

// forEachPair visits the gate's stored pairs in order.
func forEachPair(g *gate, fn func(k, v int64)) {
	sc := g.cc.get()
	defer g.cc.put(sc)
	for s := 0; s < g.spg; s++ {
		ks, vs := g.view(s, sc)
		for i := range ks {
			fn(ks[i], vs[i])
		}
	}
}

func nextPow2(v int) int {
	if v <= 1 {
		return 1
	}
	n := 1
	for n < v {
		n <<= 1
	}
	return n
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }
