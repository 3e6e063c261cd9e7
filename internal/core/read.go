package core

import "slices"

// One read serves every Get and every chunk a Scan copies: sample the
// gate's reader fields, look the key up (or copy the chunk out), and judge
// the result once. There are two ways to make that read consistent, and
// both run the same lookup and copy (cgate.go). The optimistic way is a
// seqlock over the gate (Section 3.1's latches demoted to a fallback): the
// reader samples the gate's version counter, reads the chunk unsynchronised,
// and keeps the result only if the version is unchanged and was even
// (stable) throughout — in which case no exclusive holder ran concurrently
// and the read equals one under the shared latch. Such readers touch no
// mutex cache line and never contend with each other, with writers, or with
// the rebalancer. After PMA.attempts failed validations (a writer-heavy
// gate) the reader makes the same read once under the shared latch, where
// nothing can race it, so tail latency stays bounded by the same
// writer-priority protocol as the writers'. A budget of 0 (see PMA.attempts)
// makes every read latched.
//
// What a point Get touches, past the static index: the gate's reader line
// (version, fences, invalid, storage pointer, geometry — one 64-byte line
// that no latch trip writes), the gate's inline minima (findSeg) and
// cardinalities, the slot buffer's header, then the keys: seekSeg guesses
// the key's slot by interpolating between the segment's minimum and the
// next segment's, both already loaded, and walks from there, so a search
// on evenly spread keys reads one or two lines of keys instead of the four
// or so a binary search of a 1 KB segment misses on. Then the value, and
// the version again.

// optimisticAttempts bounds how often a reader retries the seqlock read
// before taking the shared latch. Attempts are cheap (two atomic loads plus
// the chunk read), but under a steady writer they can fail indefinitely —
// the fallback keeps reads latency-bounded rather than live-locked.
const optimisticAttempts = 3

// readStatus is the verdict on one consistent gate read.
type readStatus int

const (
	readOK      readStatus = iota // the read stands
	readInvalid                   // gate retired by a resize: reload the state
	readLeft                      // key below fenceLo: walk to the left neighbour
	readRight                     // key above fenceHi: walk to the right neighbour
)

// judge is the verdict on a read of gate gi for key k, taken from the
// fields the read sampled; it only counts once the read proved consistent.
// A fence miss steps only to a neighbour that exists.
func (st *state) judge(gi int, k int64) readStatus {
	g := st.gates[gi]
	switch {
	case g.invalid:
		return readInvalid
	case k < g.fenceLo && gi > 0:
		return readLeft
	case k > g.fenceHi && gi < len(st.gates)-1:
		return readRight
	}
	return readOK
}

// Get returns the value stored under k. Reads never block behind combining
// queues: updates still queued are not yet visible (Section 3.5 semantics).
func (p *PMA) Get(k int64) (int64, bool) {
	p.checkOpen()
	if k == KeyMin || k == KeyMax {
		return 0, false
	}
	for {
		st := p.state.Load()
		for gi := st.route(k); ; {
			v, ok, res := p.getGate(st, gi, k)
			switch res {
			case readOK:
				return v, ok
			case readLeft:
				gi--
				continue
			case readRight:
				gi++
				continue
			}
			break // readInvalid: the array was resized, reload the state
		}
	}
}

// getGate reads k from gate gi: up to p.attempts seqlock reads — sample the
// version, look up, validate — then the same read under the shared latch.
// Failed attempts retry immediately rather than yielding: a writer's
// exclusive section is short, so either a quick re-probe succeeds or the
// gate is genuinely writer-heavy and parking on the shared latch (which
// writers wake on release) beats burning cycles. Only a read that stands
// looks the key up in earnest: a retired gate's chunk is the array as it
// was before a resize, not the store's answer.
func (p *PMA) getGate(st *state, gi int, k int64) (v int64, found bool, res readStatus) {
	g := st.gates[gi]
	for fails := 0; ; fails++ {
		latched := fails == p.attempts
		ver, ok := g.readBegin(latched)
		if !ok {
			continue
		}
		good := true
		if res = st.judge(gi, k); res == readOK {
			v, found, good = g.get(k)
		}
		if !g.readEnd(latched, ver) {
			continue
		}
		if !good {
			panic(corruptSegment)
		}
		// Probe failures are recorded before the latched serve, so
		// GetLatched*attempts <= GetProbeFails holds under concurrent Stats.
		m := p.metrics
		if fails > 0 {
			m.GetProbeFails.Add(uint64(fails))
		}
		if res == readOK {
			if latched {
				m.GetLatched.Inc()
			} else {
				m.GetOptimistic.Inc()
			}
		}
		return v, found, res
	}
}

// Scan visits all pairs with lo <= key <= hi in ascending key order,
// stopping early when fn returns false. Each gate's chunk is copied out by
// one consistent read (snapshotGate) and fn runs on the copy with no latch
// held, so — unlike earlier versions of this package — fn may call update
// operations of the same PMA, including Put, Delete, the batch calls and
// Flush. The scan observes each chunk atomically and the sequence of chunks
// at increasing fence boundaries, which is the same guarantee the paper's
// scans provide; updates applied to a chunk after it was copied are not
// reflected in the callbacks for that chunk.
func (p *PMA) Scan(lo, hi int64, fn func(k, v int64) bool) {
	p.checkOpen()
	sb := p.getScanBuf()
	defer p.putScanBuf(sb)
	for w := p.walk(lo, hi); w.next(sb); sb.reset() {
		// The chunk copy in sb is a consistent snapshot; run the
		// callback outside every latch.
		if !sb.each(fn) {
			return
		}
	}
}

// AppendRun appends the pairs with lo <= key <= hi to ks and vs in ascending
// key order, a whole chunk at a time: each chunk is copied by the one
// consistent read Scan makes of it, and the copy stops after the chunk that
// brings ks to at least n pairs. It returns the extended slices, the key the
// range resumes at — the lower fence of the next chunk, so a caller that
// continues with AppendRun(resume, hi, ...) copies no chunk twice — and
// whether pairs in [resume, hi] may remain. The pairs carry Scan's
// guarantee: each chunk is observed atomically, the chunks at increasing
// fence boundaries.
func (p *PMA) AppendRun(lo, hi int64, n int, ks, vs []int64) (_, _ []int64, resume int64, more bool) {
	p.checkOpen()
	sb := scanBuf{ks, vs}
	w := p.walk(lo, hi)
	for len(sb.ks) < n && w.next(&sb) {
	}
	return sb.ks, sb.vs, w.from, !w.done
}

// gateWalk is the one walk over the gates of every scan: Scan hands each
// chunk it copies to fn, AppendRun keeps them. It routes its position to a
// gate, steps to a neighbour on a fence miss, reloads the state when a
// resize retired the gate it read, and resumes past the upper fence of each
// chunk it copied.
type gateWalk struct {
	p        *PMA
	st       *state // nil: route from the current state
	gi       int
	from, hi int64 // the chunks still to copy cover [from, hi]
	done     bool
}

// walk starts a gateWalk over [lo, hi], sentinels excluded.
func (p *PMA) walk(lo, hi int64) gateWalk {
	lo, hi = max(lo, KeyMin+1), min(hi, KeyMax-1)
	return gateWalk{p: p, from: lo, hi: hi, done: lo > hi}
}

// next appends the next chunk's pairs in [from, hi] to sb and reports
// whether there was a chunk left to copy (it may have held no such pair).
func (w *gateWalk) next(sb *scanBuf) bool {
	if w.done {
		return false
	}
	for {
		if w.st == nil {
			w.st = w.p.state.Load()
			w.gi = w.st.route(w.from)
		}
		fenceHi, res := w.p.snapshotGate(w.st, w.gi, w.from, w.hi, sb)
		switch res {
		case readInvalid: // the array was resized, reload the state
			w.st = nil
			continue
		case readLeft:
			w.gi--
			continue
		case readRight:
			w.gi++
			continue
		}
		if fenceHi >= w.hi || w.gi == len(w.st.gates)-1 {
			w.done = true
		} else {
			w.from, w.gi = fenceHi+1, w.gi+1
		}
		return true
	}
}

// snapshotGate appends gate gi's pairs with key in [from, hi] to sb by the
// read getGate makes: up to p.attempts seqlock reads, then one under the
// shared latch; a failed attempt's pairs are dropped again. On readOK the
// returned fenceHi is the gate's upper fence from the same read — the
// scan's resume point.
func (p *PMA) snapshotGate(st *state, gi int, from, hi int64, sb *scanBuf) (fenceHi int64, res readStatus) {
	g := st.gates[gi]
	base := sb.grow(g.spg * g.b)
	for fails := 0; ; fails++ {
		latched := fails == p.attempts
		ver, ok := g.readBegin(latched)
		if !ok {
			continue
		}
		sb.ks, sb.vs = sb.ks[:base], sb.vs[:base]
		good := true
		if res, fenceHi = st.judge(gi, from), g.fenceHi; res == readOK {
			sb.ks, sb.vs, good = g.collect(from, hi, sb.ks, sb.vs)
		}
		if !g.readEnd(latched, ver) {
			continue
		}
		if !good {
			panic(corruptSegment)
		}
		// As in getGate: failures first, so ScanChunksLatched*attempts
		// <= ScanProbeFails holds under concurrent Stats.
		m := p.metrics
		if fails > 0 {
			m.ScanProbeFails.Add(uint64(fails))
		}
		if res == readOK {
			if latched {
				m.ScanChunksLatched.Inc()
			} else {
				m.ScanChunksOptimistic.Inc()
			}
		}
		return fenceHi, res
	}
}

// scanBuf is a chunk copy: Scan's, pooled on the PMA (the geometry is fixed,
// so one chunk's worth of capacity fits every gate for the store's
// lifetime), or AppendRun's run of chunks in the caller's slices.
type scanBuf struct {
	ks, vs []int64
}

// grow makes room for n more pairs, so a chunk copy never allocates
// mid-read (appends stay within capacity), and returns the current length.
func (sb *scanBuf) grow(n int) int {
	l := len(sb.ks)
	if cap(sb.ks)-l < n || cap(sb.vs)-l < n {
		sb.ks = slices.Grow(sb.ks, n)
		sb.vs = slices.Grow(sb.vs[:l], n)
	}
	return l
}

// reset empties the buffer, keeping its capacity.
func (sb *scanBuf) reset() {
	sb.ks, sb.vs = sb.ks[:0], sb.vs[:0]
}

// each runs fn over the copied pairs, reporting false if fn stopped it. This
// loop is the whole per-pair cost of a scan, and it is kept out of Scan's
// frame on purpose: inlined there, every call of fn is followed by a reload
// of Scan's entire live set, not just the loop's four words (measured on the
// benchmark's mem workload: scan_pairs_s -6 % inlined, +8 % like this).
//
//go:noinline
func (sb *scanBuf) each(fn func(k, v int64) bool) bool {
	ks, vs := sb.ks, sb.vs[:len(sb.ks)]
	for i, k := range ks {
		if !fn(k, vs[i]) {
			return false
		}
	}
	return true
}

func (p *PMA) getScanBuf() *scanBuf {
	if sb, ok := p.scanBufs.Get().(*scanBuf); ok {
		return sb
	}
	return &scanBuf{}
}

// putScanBuf returns sb to the pool, emptied: a Scan whose fn panicked
// puts back whatever its last chunk copy held.
func (p *PMA) putScanBuf(sb *scanBuf) {
	sb.reset()
	p.scanBufs.Put(sb)
}

// ScanAll visits every stored pair in ascending key order.
func (p *PMA) ScanAll(fn func(k, v int64) bool) {
	p.Scan(KeyMin+1, KeyMax-1, fn)
}

// Keys collects all stored keys in order (test/diagnostic helper). It rides
// on Scan's consistent chunk copies.
func (p *PMA) Keys() []int64 {
	out := make([]int64, 0, p.Len())
	p.ScanAll(func(k, _ int64) bool { out = append(out, k); return true })
	return out
}
