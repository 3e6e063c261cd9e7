package core

import (
	"pmago/internal/rma"
)

// The read path is optimistic (a seqlock over each gate, Section 3.1's
// latches demoted to a fallback): a reader samples the gate's version
// counter, performs the unsynchronised chunk read, and accepts the result
// only if the version is unchanged and was even (stable) throughout — in
// which case no exclusive holder ran concurrently and the read is equivalent
// to one under the shared latch. Readers therefore touch no mutex cache line
// on the fast path and never contend with each other, with writers, or with
// the rebalancer. After optimisticAttempts failed validations (a
// writer-heavy gate) the reader falls back to the blocking shared latch, so
// tail latency stays bounded by the same writer-priority protocol as before.
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

// optimisticAttempts bounds how often a reader retries the seqlock fast path
// before taking the shared latch. Attempts are cheap (two atomic loads plus
// the chunk read), but under a steady writer they can fail indefinitely —
// the fallback keeps reads latency-bounded rather than live-locked.
const optimisticAttempts = 3

// readStatus is the outcome of one validated gate read.
type readStatus int

const (
	readOK        readStatus = iota // snapshot consistent, result usable
	readInvalid                     // gate retired by a resize: reload the state
	readLeft                        // key below fenceLo: walk to the left neighbour
	readRight                       // key above fenceHi: walk to the right neighbour
	readContended                   // validation kept failing: take the shared latch
)

// Get returns the value stored under k. Reads never block behind combining
// queues: updates still queued are not yet visible (Section 3.5 semantics).
func (p *PMA) Get(k int64) (int64, bool) {
	p.checkOpen()
	if k == rma.KeyMin || k == rma.KeyMax {
		return 0, false
	}
	if !p.cfg.DisableOptimisticReads && !raceEnabled {
	probe:
		for {
			st := p.state.Load()
			for gi := st.route(k); ; {
				v, ok, res, fails := p.getOptimistic(st.gates[gi], k)
				// Record probe failures before any latched serve so that
				// GetLatched <= GetProbeFails holds under concurrent Stats
				// (the fallback's failures are visible before it is).
				if m := p.metrics; m != nil && fails > 0 {
					m.GetProbeFails.Add(uint64(fails))
				}
				switch res {
				case readOK:
					if m := p.metrics; m != nil {
						m.GetOptimistic.Inc()
					}
					return v, ok
				case readInvalid:
					continue probe
				case readLeft:
					if gi > 0 {
						gi--
						continue
					}
				case readRight:
					if gi < len(st.gates)-1 {
						gi++
						continue
					}
				}
				// readContended (or a fence miss at the array boundary,
				// which cannot happen with sentinel fences): shared latch.
				break probe
			}
		}
	}
	_, g := p.enter(k, latchShared, op{})
	v, ok := g.get(k)
	g.unlockShared()
	if m := p.metrics; m != nil {
		m.GetLatched.Inc()
	}
	return v, ok
}

// getOptimistic performs the seqlock read of one gate: version sample,
// unsynchronised lookup, version validation. Every field read between the
// two version loads (invalid, fences, chunk contents) belongs to one
// consistent snapshot iff the versions match and are even; on any mismatch
// the attempt is discarded and retried, and after optimisticAttempts the
// caller is told to take the latch. Failed attempts retry immediately
// rather than yielding: a writer's exclusive section is short, so either a
// quick re-probe succeeds or the gate is genuinely writer-heavy and parking
// on the shared latch (which writers wake on release) beats burning cycles.
// The returned fails count is the number of discarded attempts (failed
// seqlock validations), which the caller feeds the metrics.
func (p *PMA) getOptimistic(g *gate, k int64) (int64, bool, readStatus, int) {
	fails := 0
	for attempt := 0; attempt < optimisticAttempts; attempt++ {
		v1 := g.version.Load()
		if v1&1 != 0 {
			fails++
			continue // exclusive holder active; snapshot cannot validate
		}
		invalid := g.invalid
		lo, hi := g.fenceLo, g.fenceHi
		val, ok := g.getRacy(k)
		if g.version.Load() != v1 {
			fails++
			continue // an exclusive holder intervened; discard everything
		}
		switch {
		case invalid:
			return 0, false, readInvalid, fails
		case k < lo:
			return 0, false, readLeft, fails
		case k > hi:
			return 0, false, readRight, fails
		default:
			return val, ok, readOK, fails
		}
	}
	return 0, false, readContended, fails
}

// Scan visits all pairs with lo <= key <= hi in ascending key order,
// stopping early when fn returns false. Each gate's chunk is copied out
// under validation (optimistically, or under the shared latch after
// contention) and fn runs on the copy with no latch held, so — unlike
// earlier versions of this package — fn may call update operations of the
// same PMA, including Put, Delete, the batch calls and Flush. The scan
// observes each chunk atomically and the sequence of chunks at increasing
// fence boundaries, which is the same guarantee the paper's scans provide;
// updates applied to a chunk after it was copied are not reflected in the
// callbacks for that chunk.
func (p *PMA) Scan(lo, hi int64, fn func(k, v int64) bool) {
	p.checkOpen()
	if lo > hi {
		return
	}
	if lo == rma.KeyMin {
		lo++
	}
	if hi == rma.KeyMax {
		hi--
	}
	optimistic := !p.cfg.DisableOptimisticReads && !raceEnabled
	sb := p.getScanBuf()
	defer p.putScanBuf(sb)
	from := lo
	for {
		st := p.state.Load()
		gi := st.route(from)
	walk:
		for {
			fenceHi, res := int64(0), readContended
			if optimistic {
				fenceHi, res = p.snapshotGate(st, gi, from, hi, sb)
			}
			switch res {
			case readInvalid:
				break walk
			case readLeft:
				gi--
				continue
			case readRight:
				gi++
				continue
			case readContended:
				// The walk carries on from wherever enter arrived, in the
				// state it arrived in.
				var g *gate
				st, g = p.enter(from, latchShared, op{})
				gi, fenceHi = g.idx, p.snapshotLatched(g, from, hi, sb)
			}
			// The chunk copy in sb is a validated snapshot; run the
			// callback outside every latch.
			if !sb.each(fn) {
				return
			}
			if fenceHi >= hi || fenceHi == rma.KeyMax {
				return
			}
			from = fenceHi + 1
			if gi++; gi >= len(st.gates) {
				return
			}
		}
	}
}

// snapshotGate copies gate gi's pairs with key in [from, hi] into sb as one
// consistent snapshot, optimistically; after optimisticAttempts failures it
// reports readContended and the caller takes the shared latch. On readOK the
// returned fenceHi is the gate's upper fence from the same snapshot — the
// scan's resume point. readLeft/readRight are only returned when the
// corresponding neighbour exists, mirroring the fence-verification walk of
// the latched path.
func (p *PMA) snapshotGate(st *state, gi int, from, hi int64, sb *scanBuf) (int64, readStatus) {
	g := st.gates[gi]
	m := p.metrics
	fails := 0
	for attempt := 0; attempt < optimisticAttempts; attempt++ {
		v1 := g.version.Load()
		if v1&1 != 0 {
			fails++
			continue
		}
		sb.reset(g.spg * g.b)
		invalid := g.invalid
		lo, fhi := g.fenceLo, g.fenceHi
		sb.ks, sb.vs = g.collectRacy(from, hi, sb.ks, sb.vs)
		if g.version.Load() != v1 {
			fails++
			continue
		}
		if m != nil && fails > 0 {
			m.ScanProbeFails.Add(uint64(fails))
		}
		switch {
		case invalid:
			return 0, readInvalid
		case from < lo && gi > 0:
			return 0, readLeft
		case from > fhi && gi < len(st.gates)-1:
			return 0, readRight
		default:
			if m != nil {
				m.ScanChunksOptimistic.Inc()
			}
			return fhi, readOK
		}
	}
	// All attempts failed; record them before the latched fallback so
	// ScanChunksLatched <= ScanProbeFails holds under concurrent Stats.
	if m != nil {
		m.ScanProbeFails.Add(uint64(fails))
	}
	return 0, readContended
}

// snapshotLatched is snapshotGate under the shared latch, which the caller
// took through enter and which is dropped here.
func (p *PMA) snapshotLatched(g *gate, from, hi int64, sb *scanBuf) int64 {
	sb.reset(g.spg * g.b)
	g.scanFrom(from, hi, func(k, v int64) bool {
		sb.ks = append(sb.ks, k)
		sb.vs = append(sb.vs, v)
		return true
	})
	fenceHi := g.fenceHi
	g.unlockShared()
	if m := p.metrics; m != nil {
		m.ScanChunksLatched.Inc()
	}
	return fenceHi
}

// scanBuf is the per-Scan chunk copy, pooled on the PMA (the geometry is
// fixed, so one chunk's worth of capacity fits every gate for the store's
// lifetime).
type scanBuf struct {
	ks, vs []int64
}

// reset empties the buffer, pre-growing it to one full chunk so the racy
// collector never allocates mid-snapshot (appends stay within capacity).
func (sb *scanBuf) reset(capacity int) {
	if cap(sb.ks) < capacity {
		sb.ks = make([]int64, 0, capacity)
		sb.vs = make([]int64, 0, capacity)
		return
	}
	sb.ks = sb.ks[:0]
	sb.vs = sb.vs[:0]
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

func (p *PMA) putScanBuf(sb *scanBuf) {
	p.scanBufs.Put(sb)
}

// ScanAll visits every stored pair in ascending key order.
func (p *PMA) ScanAll(fn func(k, v int64) bool) {
	p.Scan(rma.KeyMin+1, rma.KeyMax-1, fn)
}

// Keys collects all stored keys in order (test/diagnostic helper). Like Len,
// it needs no latches at all: it rides on Scan's validated chunk copies.
func (p *PMA) Keys() []int64 {
	out := make([]int64, 0, p.Len())
	p.ScanAll(func(k, _ int64) bool { out = append(out, k); return true })
	return out
}
