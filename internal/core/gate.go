package core

import (
	"math/bits"
	"sync"
	"sync/atomic"

	"pmago/internal/codec"
)

// Latch states (Section 3.1/3.3). Positive values count shared holders.
const (
	lsFree   int32 = 0
	lsWriter int32 = -1 // held exclusively by a client writer
	lsReb    int32 = -2 // held exclusively by the rebalancer service
)

// maxSegmentsPerGate bounds Config.SegmentsPerGate: the per-segment minima
// and cardinalities live inline in the gate, sized for the paper's 8.
const maxSegmentsPerGate = 8

// gate guards one chunk of the sparse array (Section 3.1). It bundles the
// read-write latch, the fence keys, the per-segment minimum keys, the
// combining queue of Section 3.5, and — in this implementation —
// the chunk's storage itself, so that "memory rewiring" is an O(1) swap of
// the buffer pointer under the latch.
//
// Locking discipline: mu protects the latch state machine and the combining
// queue. Everything else (fences, storage, minima, counters) is
// protected by holding the latch itself in the appropriate mode.
//
// Layout: the struct is laid out for the seqlock Get (read.go). Its first
// 64 bytes are the reader line — version, the fences, invalid, the storage
// pointers and the geometry — and the next two lines are the inline minima
// and cardinalities, so a Get loads three gate lines, none of which a
// latch trip writes. mu, cond, the latch state and the combining queue,
// which every writer and combiner writes, sit at the end. The size is
// padded to a multiple of 64 bytes, which makes the allocator's size class
// a multiple of 64 too: every gate then starts on a line boundary and no
// gate's latch shares a line with its neighbour's reader line.
// TestGateReaderLine pins all of this.
type gate struct {
	// --- the reader line ---

	// version is the gate's seqlock generation counter, the optimistic-read
	// protocol layered over the latch: it is odd exactly while an exclusive
	// holder (a client writer or the rebalancer) owns the latch and may be
	// mutating the latch-protected fields, and even while they are stable.
	// Every transition into exclusive ownership bumps it to odd
	// (beginExclusive) and every transition out bumps it to even
	// (endExclusive). Shared holders never bump: they do not mutate.
	//
	// Memory ordering: the bumps are atomic adds and the readers' fences
	// are atomic loads, so under the Go memory model the odd bump
	// happens-before the holder's plain writes become observable through a
	// later even load, and a reader that loads the same even value before
	// and after its plain reads (readBegin, readEnd) observed no concurrent
	// mutation. The reads between the two loads are still racy by the
	// letter of the model — they may observe torn or stale words — which is
	// why the one lookup and the one copy (get, collect) clamp all derived
	// indices and a result counts only once the version validates. The
	// same lookup and copy run under the shared latch when the seqlock keeps
	// failing, and always in -race builds: the detector cannot exempt the
	// benign races (race_on.go), so it checks the primitives under the latch
	// while the stress suite model-checks the seqlock in normal builds.
	version atomic.Uint64

	// --- latch-protected fields ---
	fenceLo int64 // minimum key this chunk may store (inclusive)
	fenceHi int64 // maximum key this chunk may store (inclusive)

	// Chunk storage, owned by the seam in cgate.go: a slot store sets buf,
	// a block store sets enc (length spg, nil element = never-encoded empty
	// segment) and cc. buf and enc are swapped whole under the latch, so the
	// seqlock readers' torn-header discipline covers them.
	buf *chunkBuf
	cc  *cctx

	spg     int  // segments per gate, at most maxSegmentsPerGate (fixed)
	b       int  // slots per segment (fixed)
	invalid bool // the array was resized; clients must restart on the new state

	// smin[:spg] are the per-segment minima (empty segments inherit from the
	// right) and segCard[:spg] the cardinalities.
	smin    [maxSegmentsPerGate]int64
	segCard [maxSegmentsPerGate]int

	gcard   int   // elements stored in this chunk
	lastReb int64 // monotonic nanos of the last global rebalance (tdelay)
	pred    *predictor
	enc     []*encSeg
	// encBytes is the sum of the blocks' payload lengths, atomic so Stats
	// can walk the live gates without latching them.
	encBytes atomic.Int64
	idx      int // gate number within its state (fixed)

	// --- the writers' fields ---
	mu        sync.Mutex
	cond      sync.Cond
	lstate    int32
	wWaiting  int32 // writers parked on the latch; readers yield to them
	rebWanted bool  // the rebalancer is waiting: new clients queue behind it
	qOpen     bool  // pQ is published: see qOps

	// The combining queue (the paper's pQ and Qw). While qOpen — a writer
	// holds the latch, or a batch waits for the rebalancer — arriving writers
	// append to qOps instead of latching; a closed queue is empty. qSpare is
	// the buffer drainQueue swaps in while it works through qOps.
	qOps, qSpare []op

	_ [64]byte // to 448 bytes, a multiple of 64
}

func newGate(idx, spg, b int, pred *predictor) *gate {
	g := &gate{
		idx:     idx,
		spg:     spg,
		b:       b,
		fenceLo: KeyMin,
		fenceHi: KeyMax,
		pred:    pred,
	}
	g.cond.L = &g.mu
	for i := range g.smin {
		g.smin[i] = KeyMax
	}
	return g
}

// --- latch state machine ---

// beginExclusive marks the gate unstable (version odd) as part of acquiring
// the latch exclusively. Callers hold g.mu and must bump before the acquiring
// goroutine can issue its first mutation — i.e. before releasing mu. The
// atomic add is the release barrier that orders the bump before the holder's
// subsequent plain writes as seen by optimistic readers.
func (g *gate) beginExclusive() {
	g.version.Add(1)
}

// endExclusive marks the gate stable again (version even) as part of
// releasing an exclusive hold. Callers hold g.mu; every mutation happened
// before the caller re-acquired mu, so the add publishes a consistent chunk.
func (g *gate) endExclusive() {
	g.version.Add(1)
}

// lockShared blocks while the latch is exclusive, the rebalancer wants the
// gate, or a writer is parked: without writer priority, back-to-back scan
// threads would re-acquire the shared latch forever and starve updates.
func (g *gate) lockShared() {
	g.mu.Lock()
	for g.lstate < 0 || g.rebWanted || g.wWaiting > 0 {
		g.cond.Wait()
	}
	g.lstate++
	g.mu.Unlock()
}

func (g *gate) unlockShared() {
	g.mu.Lock()
	g.lstate--
	if g.lstate == 0 {
		g.cond.Broadcast()
	}
	g.mu.Unlock()
}

func (g *gate) lockX() {
	g.mu.Lock()
	g.wWaiting++
	for g.lstate != lsFree || g.rebWanted {
		g.cond.Wait()
	}
	g.wWaiting--
	g.lstate = lsWriter
	g.beginExclusive()
	g.mu.Unlock()
}

// release drops an exclusive hold, whoever took it: a client (lockX, or
// lockOrCombine for a writer that has not opened its queue — one that has
// releases through drainQueue) or the rebalancer (rebLock).
func (g *gate) release() {
	g.mu.Lock()
	g.releaseLocked()
	g.mu.Unlock()
}

// releaseLocked is release for a holder that already has mu, because it hands
// the combining queue over in the same section (drainQueue, handOff) or
// retires the gate (resize).
func (g *gate) releaseLocked() {
	g.endExclusive() // all mutations precede this; publish to optimistic readers
	g.lstate = lsFree
	g.cond.Broadcast()
}

// rebLock acquires the latch on behalf of the rebalancer, taking priority
// over waiting clients. No writer waits on the master while it holds a
// latch, so the master's wait here always ends.
func (g *gate) rebLock() {
	g.mu.Lock()
	g.rebWanted = true
	for g.lstate != lsFree {
		g.cond.Wait()
	}
	g.beginExclusive()
	g.lstate = lsReb
	g.rebWanted = false
	g.mu.Unlock()
}

// --- chunk storage operations (caller holds the latch) ---

// findSeg locates the segment within the chunk whose range covers k:
// the rightmost segment whose cached minimum is <= k. The seqlock readers
// call it too: spg is fixed, so the result is in [0, spg) whatever minima
// they load.
func (g *gate) findSeg(k int64) int {
	smin := g.smin[:g.spg]
	s := 0
	for i := 1; i < len(smin); i++ { // spg is small (default 8): linear scan
		if smin[i] <= k {
			s = i
		} else {
			break
		}
	}
	return s
}

// clampCard bounds a segment cardinality to [0, b] so a seqlock reader can
// never index out of a chunk buffer, whatever torn value it loaded.
func clampCard(c, b int) int {
	if c < 0 {
		return 0
	}
	if c > b {
		return b
	}
	return c
}

// get looks k up within the chunk; good is false when the segment did not
// parse (find). It is the one lookup of the package: the seqlock Get calls
// it unsynchronised, possibly concurrent with an exclusive holder mutating
// the chunk, and discards the result unless the gate's version was stable
// across the call; the latched Get and a queued Delete call it under the
// latch. The minima are inline and the geometry fixed, so findSeg stays in
// bounds on any minima it loads, and find verifies the slice headers it
// follows.
func (g *gate) get(k int64) (v int64, found, good bool) {
	return g.find(g.findSeg(k), k)
}

// readBegin opens one consistent read of the gate: under the shared latch
// when latched, else by sampling the version, which must be even — ok is
// false while an exclusive holder is active, and the attempt has failed.
func (g *gate) readBegin(latched bool) (ver uint64, ok bool) {
	if latched {
		g.lockShared()
		return 0, true
	}
	ver = g.version.Load()
	return ver, ver&1 == 0
}

// readEnd closes the read readBegin opened and reports whether what was
// read in between is one consistent snapshot: always under the latch, which
// it drops; optimistically iff the version did not move.
func (g *gate) readEnd(latched bool, ver uint64) bool {
	if latched {
		g.unlockShared()
		return true
	}
	return g.version.Load() == ver
}

// putResult describes the outcome of an in-gate insert attempt.
type putResult int

const (
	putInserted    putResult = iota // new element placed
	putReplaced                     // existing value overwritten
	putNeedsGlobal                  // no in-chunk window can absorb the insert
)

// put upserts k/v within the chunk, rebalancing inside the chunk when the
// target segment is full. Returns putNeedsGlobal when even the whole chunk
// cannot absorb the insert under its calibrator threshold, in which case
// nothing was modified.
func (g *gate) put(st *state, k, v int64) putResult {
	s := g.findSeg(k)
	if g.cc != nil && g.segCard[s] > 0 {
		// A block with pairs in it is edited in place; only a new key
		// for a full segment needs the view, for the rebalance below.
		switch r := g.spliceUpsert(s, k, v); r.Status {
		case codec.Replaced:
			return putReplaced
		case codec.Inserted:
			g.inserted(s, k, r.First == k)
			return putInserted
		}
	}
	sc := g.cc.get()
	defer g.cc.put(sc)
	ks, vs := g.view(s, sc)
	i := g.seek(s, ks, k)
	if i < len(ks) && ks[i] == k {
		vs[i] = v
		g.setSeg(s, ks, vs, sc)
		return putReplaced
	}
	if len(ks) == g.b {
		ws, we, ok := g.localWindow(st, s, s, 1)
		if !ok {
			return putNeedsGlobal
		}
		g.rebalanceLocal(ws, we, sc)
		st.p.metrics.LocalRebalances.Inc()
		s = g.findSeg(k)
		ks, vs = g.view(s, sc)
		i = g.seek(s, ks, k)
	}
	ks, vs = insertPair(ks, vs, i, k, v)
	g.setSeg(s, ks, vs, sc)
	g.inserted(s, k, i == 0)
	return putInserted
}

// inserted books one new key k in segment s, its minimum now if min.
func (g *gate) inserted(s int, k int64, min bool) {
	g.gcard++
	if min {
		g.setSegMin(s, k)
	}
	if g.pred != nil {
		g.pred.record(k)
	}
}

// insertPair places k/v at offset i of the viewed pairs, which have room to
// grow in place (the segment has a gap, so the view has spare capacity).
func insertPair(ks, vs []int64, i int, k, v int64) ([]int64, []int64) {
	ks = append(ks, 0)
	copy(ks[i+1:], ks[i:])
	ks[i] = k
	vs = append(vs, 0)
	copy(vs[i+1:], vs[i:])
	vs[i] = v
	return ks, vs
}

// del removes k from the chunk, reporting whether it was present.
func (g *gate) del(k int64) bool {
	s := g.findSeg(k)
	if g.segCard[s] == 0 {
		return false
	}
	if g.cc != nil {
		r := g.spliceRemove(s, k)
		if r.Status == codec.Missing {
			return false
		}
		g.gcard--
		if k == g.smin[s] {
			if g.segCard[s] > 0 {
				g.setSegMin(s, r.First)
			} else {
				g.clearSegMin(s)
			}
		}
		return true
	}
	ks, vs := g.view(s, nil)
	i := g.seek(s, ks, k)
	if i == len(ks) || ks[i] != k {
		return false
	}
	copy(ks[i:], ks[i+1:])
	copy(vs[i:], vs[i+1:])
	ks, vs = ks[:len(ks)-1], vs[:len(vs)-1]
	g.setSeg(s, ks, vs, nil)
	g.gcard--
	if i == 0 {
		if len(ks) > 0 {
			g.setSegMin(s, ks[0])
		} else {
			g.clearSegMin(s)
		}
	}
	return true
}

func (g *gate) setSegMin(s int, k int64) {
	g.smin[s] = k
	for t := s - 1; t >= 0 && g.segCard[t] == 0; t-- {
		g.smin[t] = k
	}
}

func (g *gate) clearSegMin(s int) {
	inherit := int64(KeyMax)
	if s+1 < g.spg {
		inherit = g.smin[s+1]
	}
	g.smin[s] = inherit
	for t := s - 1; t >= 0 && g.segCard[t] == 0; t-- {
		g.smin[t] = inherit
	}
}

// localWindow walks the calibrator tree upward from segment s0 (local
// index), considering only windows fully contained in this chunk that also
// cover segment s1 >= s0 (s1 == s0 for a point insert), and returns the
// smallest one that can absorb pending extra inserts within its upper
// density threshold while leaving a free slot per segment. Thresholds are
// evaluated against the global tree height (the chunk's segments are leaves
// of the whole PMA's calibrator tree).
func (g *gate) localWindow(st *state, s0, s1, pending int) (ws, we int, ok bool) {
	h := st.height
	maxLevel := log2(g.spg) + 1
	for k := 2; k <= maxLevel; k++ {
		w := 1 << (k - 1)
		ws = s0 &^ (w - 1)
		we = ws + w
		if s1 >= we {
			continue
		}
		cardW := 0
		for i := ws; i < we; i++ {
			cardW += g.segCard[i]
		}
		_, tau := st.thresholds(k, h)
		if float64(cardW+pending) <= tau*float64(w*g.b) && cardW+pending <= w*(g.b-1) {
			return ws, we, true
		}
	}
	return 0, 0, false
}

// rebalanceLocal redistributes segments [ws, we) of this chunk (a "local
// rebalance", Section 3.3).
func (g *gate) rebalanceLocal(ws, we int, sc *cScratch) {
	ks, vs := g.gatherLocal(ws, we, 0, sc)
	g.spreadLocal(ws, we, ks, vs, sc)
}

// gatherLocal copies the window's elements out of the chunk in key order,
// into buffers with room for extra more.
func (g *gate) gatherLocal(ws, we, extra int, sc *cScratch) (ks, vs []int64) {
	n := extra
	for s := ws; s < we; s++ {
		n += g.segCard[s]
	}
	ks, vs = sc.window(n)
	for s := ws; s < we; s++ {
		sk, sv := g.view(s, sc)
		ks = append(ks, sk...)
		vs = append(vs, sv...)
	}
	return ks, vs
}

// spreadLocal writes the sorted elements (not aliasing the chunk) across
// segments [ws, we) — by the adaptive policy when a predictor is attached,
// the traditional even spread otherwise — and refreshes cardinalities and
// minima, propagating inherited minima to empty segments on the left.
func (g *gate) spreadLocal(ws, we int, ks, vs []int64, sc *cScratch) {
	m := we - ws
	var counts []int
	if g.pred != nil {
		counts = g.pred.adaptiveCounts(ks, m, g.b)
	} else {
		counts = evenCounts(len(ks), m)
	}
	pos := len(ks)
	inherit := int64(KeyMax)
	if we < g.spg {
		inherit = g.smin[we]
	}
	for s := we - 1; s >= ws; s-- {
		c := counts[s-ws]
		pos -= c
		g.setSeg(s, ks[pos:pos+c], vs[pos:pos+c], sc)
		if c > 0 {
			inherit = ks[pos]
		}
		g.smin[s] = inherit
	}
	for s := ws - 1; s >= 0 && g.segCard[s] == 0; s-- {
		g.smin[s] = inherit
	}
}

// seek returns the first index of ks, segment s's keys, whose key is >= k.
// The segment's own minimum and the next segment's (or the upper fence,
// whichever is lower) bound its keys, and seekSeg interpolates between them.
// The seqlock readers call it too: every bound it loads is only a hint.
func (g *gate) seek(s int, ks []int64, k int64) int {
	hi := g.fenceHi
	if s+1 < g.spg && g.smin[s+1] < hi {
		hi = g.smin[s+1]
	}
	return seekSeg(ks, k, g.smin[s], hi)
}

// seekWalk is how far seekSeg walks from its guess before it binary-searches
// the rest of the segment: one cache line of keys.
const seekWalk = 8

// seekSeg returns the first index i with ks[i] >= k, as searchKeys does, by
// interpolation-sequential search (Van Sandt et al., SIGMOD 2019): it guesses
// k's position from bounds lo <= ks[0] and hi > ks[len-1] that the caller
// already holds, then walks from the guess. On the keys a PMA spreads evenly
// the guess lands within a few slots, so a search touches one or two cache
// lines where a binary search of a segment misses on about four. The bounds
// are hints: a wrong one costs speed, never the answer. A walk longer than
// seekWalk ends in a binary search of what is left, which caps the cost on
// skewed segments, and a sentinel bound (KeyMin, KeyMax) carries no
// position, so such a segment is binary-searched outright. On unsorted
// input — a torn racy read — the result is still in [0, len(ks)].
func seekSeg(ks []int64, k, lo, hi int64) int {
	n := len(ks)
	if n == 0 || lo == KeyMin || hi == KeyMax {
		return searchKeys(ks, k)
	}
	i := n - 1
	switch {
	case k <= lo:
		i = 0
	case k < hi:
		// lo < k < hi: the differences are exact as unsigned numbers, and
		// shifting both right keeps d*n within 64 bits.
		d, span := uint64(k)-uint64(lo), uint64(hi)-uint64(lo)
		if sh := bits.Len64(span) + bits.Len(uint(n)) - 64; sh > 0 {
			d, span = d>>sh, span>>sh
		}
		if g := d * uint64(n) / span; g < uint64(n) {
			i = int(g)
		}
	}
	if ks[i] < k { // the answer lies right of i
		end := min(i+1+seekWalk, n)
		for i++; i < end; i++ {
			if ks[i] >= k {
				return i
			}
		}
		return i + searchKeys(ks[i:], k)
	}
	for stop := max(i-seekWalk, 0); i > stop; i-- { // the answer is i or left of it
		if ks[i-1] < k {
			return i
		}
	}
	return searchKeys(ks[:i], k)
}

// searchKeys returns the first index i with a[i] >= k. Manual binary search:
// the sort.Search closure is a measurable cost on the batch hot path.
func searchKeys(a []int64, k int64) int {
	lo, hi := 0, len(a)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if a[m] < k {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// countFresh returns how many keys of the sorted run are not in sorted ks.
func countFresh(ks []int64, run []op) int {
	fresh := 0
	for _, o := range run {
		if i := searchKeys(ks, o.key); i == len(ks) || ks[i] != o.key {
			fresh++
		}
	}
	return fresh
}

// mergeRun upserts the key-sorted, deduplicated run into the sorted pairs
// ks/vs in place and returns them grown by fresh == countFresh(ks, run),
// which must fit their capacity. It merges from the back, block-moving the
// span of existing elements between consecutive insertion points, so each
// element moves at most once and those below the run's lowest insertion
// point are never touched.
func mergeRun(ks, vs []int64, run []op, fresh int) ([]int64, []int64) {
	// ks[0:i] is the untouched original prefix; w is one past the next
	// final slot to fill; w-i equals the fresh inserts still to place.
	i, w := len(ks), len(ks)+fresh
	ks, vs = ks[:w], vs[:w]
	for j := len(run) - 1; j >= 0; j-- {
		k := run[j].key
		up := searchKeys(ks[:i], k+1) // first index with key > k
		if t := i - up; t > 0 && w != i {
			copy(ks[w-t:w], ks[up:i])
			copy(vs[w-t:w], vs[up:i])
		}
		w -= i - up
		i = up
		if i > 0 && ks[i-1] == k {
			i-- // upsert: the existing element is consumed
		}
		w--
		ks[w] = k
		vs[w] = run[j].val
	}
	return ks, vs
}

// mergeBySegment is the cheapest batch-insert path: the key-sorted,
// deduplicated run (all within this gate's fences) is partitioned into
// per-segment groups, and when every target segment can absorb its group's
// genuinely new keys within capacity, each segment takes its group in one
// merge pass — no window search, no rebalance. Every group is staged before
// any is committed (stageMerge, commitMerge). Returns the number of newly
// created elements and whether the run fit; on false nothing was modified.
func (g *gate) mergeBySegment(ins []op) (int, bool) {
	sc := g.cc.get()
	defer g.cc.put(sc)
	type group struct {
		s, lo, hi int // ins[lo:hi] targets segment s
		fresh     int // keys in the group not already stored
	}
	var groups [maxSegmentsPerGate]group // findSeg ascends with the keys: one group per segment at most
	n := 0
	for lo := 0; lo < len(ins); n++ {
		s := g.findSeg(ins[lo].key)
		hi := lo + 1
		for hi < len(ins) && g.findSeg(ins[hi].key) == s {
			hi++
		}
		fresh, ok := g.stageMerge(n, s, ins[lo:hi], sc)
		if !ok {
			return 0, false
		}
		groups[n] = group{s, lo, hi, fresh}
		lo = hi
	}
	delta := 0
	for i, gr := range groups[:n] {
		empty := g.segCard[gr.s] == 0
		g.commitMerge(i, gr.s, ins[gr.lo:gr.hi], gr.fresh, sc)
		g.gcard += gr.fresh
		delta += gr.fresh
		// The run is sorted, so only its first key can have become the
		// segment's minimum; an empty segment's was inherited.
		if k := ins[gr.lo].key; empty || k < g.smin[gr.s] {
			g.setSegMin(gr.s, k)
		}
	}
	return delta, true
}

// mergeLocal applies key-sorted, deduplicated insert ops (all within this
// gate's fences) by rebalancing the smallest in-chunk calibrator window that
// fits them, merging the insertions during the spread — the second pass of
// batch processing (Section 3.5). It returns the number of newly created
// elements and whether the batch fit locally; on false nothing was modified.
func (g *gate) mergeLocal(st *state, ins []op) (int, bool) {
	n := len(ins)
	if n == 0 {
		return 0, true
	}
	s0 := g.findSeg(ins[0].key)
	s1 := g.findSeg(ins[n-1].key)

	// Level 1: all insertions target a single segment with enough gaps
	// (tau_1 = 1 allows filling it completely). Upserted one by one: the
	// usual caller is a combining queue that absorbed a single op, which
	// this serves with one search.
	if s0 == s1 && g.segCard[s0]+n <= g.b {
		c := g.segCard[s0]
		if g.cc != nil && c > 0 {
			for _, o := range ins { // there is room for all: never Full
				g.spliceUpsert(s0, o.key, o.val)
			}
		} else {
			sc := g.cc.get()
			ks, vs := g.view(s0, sc)
			for _, o := range ins {
				if i := g.seek(s0, ks, o.key); i < len(ks) && ks[i] == o.key {
					vs[i] = o.val
				} else {
					ks, vs = insertPair(ks, vs, i, o.key, o.val)
				}
			}
			g.setSeg(s0, ks, vs, sc)
			g.cc.put(sc)
		}
		fresh := g.segCard[s0] - c
		g.gcard += fresh
		// The run is sorted, so only its first key can have become the
		// minimum (an empty segment's inherited minimum lies above it).
		// Comparing against ks[0] instead would touch a cache line the
		// search and the shift may have left alone.
		if ins[0].key < g.smin[s0] {
			g.setSegMin(s0, ins[0].key)
		}
		return fresh, true
	}

	ws, we, ok := g.localWindow(st, s0, s1, n)
	if !ok {
		return 0, false
	}
	// The window holds n more pairs (localWindow checked), so a block
	// store's chunk-sized scratch has room for the merge too.
	sc := g.cc.get()
	defer g.cc.put(sc)
	ks, vs := g.gatherLocal(ws, we, n, sc)
	fresh := countFresh(ks, ins)
	ks, vs = mergeRun(ks, vs, ins, fresh)
	g.spreadLocal(ws, we, ks, vs, sc)
	g.gcard += fresh
	st.p.metrics.LocalRebalances.Inc()
	return fresh, true
}

// collect appends the chunk's pairs with key in [from, hi] to ks/vs (equally
// long on entry) — the one chunk copy of the package, under the same
// discipline as get: at most spg*b appends, a result that counts only once
// the read proved consistent, and good false when a segment did not parse.
// Each segment lands in the destination whole and is trimmed by binary
// search: only the covering segment can hold keys below from (minima are
// non-decreasing, so every later segment starts above it), and a key above
// hi ends the collection. On a torn read garbage keys can only truncate the
// copy early or admit out-of-range elements; both are discarded with the
// failed validation.
func (g *gate) collect(from, hi int64, ks, vs []int64) ([]int64, []int64, bool) {
	first := true
	for s := g.findSeg(from); s < g.spg; s++ {
		kb := len(ks)
		var good bool
		if ks, vs, good = g.appendSeg(s, ks, vs); !good {
			return ks, vs, false
		}
		if len(ks) == kb {
			continue
		}
		if first {
			first = false
			if cut := kb + searchKeys(ks[kb:], from); cut > kb {
				kept := copy(ks[kb:], ks[cut:])
				copy(vs[kb:], vs[cut:])
				ks, vs = ks[:kb+kept], vs[:kb+kept]
			}
		}
		if l := len(ks); l > kb && ks[l-1] > hi {
			cut := kb + searchKeys(ks[kb:], hi+1)
			return ks[:cut], vs[:cut], true
		}
	}
	return ks, vs, true
}

func log2(v int) int {
	n := 0
	for v > 1 {
		v >>= 1
		n++
	}
	return n
}
