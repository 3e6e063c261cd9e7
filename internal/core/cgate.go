package core

import (
	"bytes"
	"errors"
	"fmt"
	"sync"

	"pmago/internal/codec"
	"pmago/internal/obs"
)

// The segment-storage seam. A gate's derived structure — segCard, smin,
// gcard, fences — is the same for every store, and everything the gate,
// batch and rebalancer logic decides (window search, spread counts, minima
// propagation, fence moves) is computed from it alone. How a segment's
// pairs sit in memory is known only to this file:
//
//   - slots (the default): segment s is b fixed slots of the gate's
//     chunkBuf, pairs packed left; gate.buf is set, gate.cc is nil.
//   - blocks (Config.CompressedChunks, CPMA-style): segment s is one
//     internal/codec delta block (uvarint count, zigzag first key, uvarint
//     key gaps, zigzag values) in gate.enc[s]; gate.cc is the store-wide
//     scratch pool and gate.buf stays nil.
//
// The primitives the rest of the package builds on:
//
//   - view / viewChecked: segment s as sorted ks, vs under the latch. Slots
//     alias the storage (capacity b, so a caller may grow the pair run in
//     place); blocks decode into the caller's pooled scratch.
//   - find: one key of segment s, the lookup of every Get, optimistic or
//     latched. Slots search the alias by interpolation (seekSeg); blocks
//     seek the encoded bytes (codec.Seek) and decode nothing but the
//     target's value.
//   - appendSeg: segment s copied out for Scan, optimistic or latched,
//     straight into the caller's buffer (one memmove for slots,
//     decode-into-destination for blocks).
//   - setSeg: make segment s hold exactly these pairs. A no-op beyond the
//     cardinality when the slices are the slot alias; an encode for blocks,
//     stored by storePayload: in place when the array has room, else in a
//     fresh array published with one pointer store.
//   - stageMerge / commitMerge: upsert a sorted run into segment s in two
//     steps, so that a batch touching several segments stores nothing until
//     every one of them has room. Slots count the run's fresh keys, then
//     merge them into the alias; blocks merge the run into the encoded
//     block (codec.MergeBlock: a block's kept gaps and values are copied as
//     byte ranges, nothing is decoded) into pooled scratch, then store it.
//   - spliceUpsert / spliceRemove: blocks only — edit one pair of a
//     non-empty block in place (codec.Upsert / codec.Remove), moving bytes
//     instead of re-encoding the segment. The splice writes what setSeg's
//     encode would have, byte for byte, so a block's bytes do not depend on
//     its history. Slots, empty segments and an insert into a full segment
//     are the caller's view -> setSeg route, which is why both layouts still
//     decide every rebalance alike.
//   - newPlan / fillSeg / install: build a fresh chunk segment by segment
//     for the rebalancer and BulkLoad, and swap it into a gate.
//
// Every writer — setSeg's encode, fillSeg, the splices and the merge —
// leaves a block canonical, byte for byte AppendBlock of its pairs, and
// Validate checks that it is (checkStorage).
//
// Concurrency contract. Writers hold the latch exclusively and see
// well-formed payloads by invariant: view, the splices and the merge panic on
// one that does not parse. find and appendSeg serve readers, and a reader
// holds the shared latch or nothing at all: a seqlock reader runs
// concurrently with in-place slot writes, block stores and splices — a block
// mid-splice is part old bytes, part moved ones, under a count and length
// that may belong to either — so every word it loads may be garbage. The
// two therefore copy slice headers once, verify lengths against the fixed
// geometry, clamp cardinalities and payload lengths, lean on the hardened
// decoder and seek (every loop bounded by the payload and b; a result or an
// error, never a fault), and report a block that does not parse as good ==
// false rather than panicking. The reader judges that flag with the rest of
// its read: on a read that proved consistent — validated, or latched — it
// is corruption, and the reader panics with corruptSegment; on one that did
// not it is a torn block, and the attempt is retried.

// corruptSegment is the panic of every path that meets a block that does
// not parse where it must: corrupted memory, and failing loudly beats
// serving wrong answers.
const corruptSegment = "core: corrupt compressed segment"

// encSeg is one segment's encoded payload. data is allocated with len ==
// cap and never resliced, so its slice header is immutable for the
// pointee's lifetime; n is the payload's live prefix. Growing past cap
// publishes a fresh *encSeg with a single pointer store into gate.enc —
// the same single-word publication discipline as install's chunk swap, and
// the array it replaces is never written again, so a reader still holding
// the old pointer decodes the old block — while rewrites and splices that fit
// mutate data/n in place under the latch, which seqlock readers tolerate per
// the contract above.
type encSeg struct {
	data []byte
	n    int32
}

// cScratch is one decode/encode workspace of a block store: ks/vs take a
// decoded segment, mk/mv a gathered window (capacity is a full chunk each),
// eb one segment's encoding, mb the blocks a mergeBySegment pass stages
// (staged[i] is group i's) and room for the merge of one more. Slot stores
// have none: their views alias the storage, and a nil *cScratch is what
// every primitive expects from them.
type cScratch struct {
	ks, vs []int64
	mk, mv []int64
	eb     []byte
	mb     []byte
	staged [maxSegmentsPerGate][]byte
}

// cctx is the store-wide context of a block store: the scratch pool and the
// metrics sink, reachable from gate methods that have no *PMA. It is nil for
// slot stores, which is what the primitives below branch on — the field is
// fixed at gate creation, so the seqlock readers may test it too.
type cctx struct {
	pool    sync.Pool
	metrics *obs.CoreMetrics
}

func newCctx(spg, b int, m *obs.CoreMetrics) *cctx {
	c := &cctx{metrics: m}
	chunk := spg * b
	c.pool.New = func() any {
		return &cScratch{
			ks: make([]int64, 0, chunk),
			vs: make([]int64, 0, chunk),
			mk: make([]int64, 0, chunk),
			mv: make([]int64, 0, chunk),
			eb: make([]byte, 0, codec.MaxEncodedLen(b)),
			// A staged block holds at most b pairs; merging a run of at
			// most b keys into one needs MaxEncodedLen(2b) of room.
			mb: make([]byte, 0, (spg+1)*codec.MaxEncodedLen(b)),
		}
	}
	return c
}

// get hands out the scratch the view and setSeg calls of one operation
// share: pooled for a block store, nil (nothing to decode into) for slots.
func (c *cctx) get() *cScratch {
	if c == nil {
		return nil
	}
	return c.pool.Get().(*cScratch)
}

func (c *cctx) put(sc *cScratch) {
	if sc != nil {
		c.pool.Put(sc)
	}
}

// window returns empty buffers for gathering up to n pairs: the pooled
// chunk-sized pair of a block store, fresh slices for a slot store.
func (sc *cScratch) window(n int) (ks, vs []int64) {
	if sc == nil {
		return make([]int64, 0, n), make([]int64, 0, n)
	}
	return sc.mk[:0], sc.mv[:0]
}

// compressionStats fills the snapshot's gauges for a block store; the
// encoded-byte sum walks the live gates without latching them.
func (p *PMA) compressionStats(s *Stats) {
	if p.cctx == nil {
		return
	}
	s.Compression.Enabled = true
	st := p.state.Load()
	var bytes int64
	for _, g := range st.gates {
		bytes += g.encBytes.Load()
	}
	if bytes > 0 {
		s.Compression.EncodedBytes = uint64(bytes)
	}
	s.Compression.Pairs = uint64(st.card.Load())
}

// --- writers' reads ---

// view returns segment s's pairs in key order. The caller holds the latch
// (either mode) and passes the scratch of its operation; the result is valid
// until the next view or setSeg through the same scratch. A holder of the
// exclusive latch may modify the pairs and extend them up to b within the
// slices' capacity, then must hand them to setSeg: for slots the edit already
// is the store, for blocks it is a private copy until then. A decode failure
// means corrupted memory, and failing loudly beats serving wrong answers.
func (g *gate) view(s int, sc *cScratch) (ks, vs []int64) {
	if g.cc == nil {
		lo := s * g.b
		hi, end := lo+g.segCard[s], lo+g.b
		return g.buf.keys[lo:hi:end], g.buf.vals[lo:hi:end]
	}
	ks, vs, err := g.decodeSeg(s, sc)
	if err != nil {
		panic(corruptSegment + ": " + err.Error())
	}
	if len(ks) > 0 {
		g.cc.metrics.SegDecodes.Inc()
	}
	return ks, vs
}

// pairAt reports the value of k, given i, k's search result in the pairs.
func pairAt(ks, vs []int64, i int, k int64) (int64, bool) {
	if i < len(ks) && ks[i] == k {
		return vs[i], true
	}
	return 0, false
}

// viewChecked is view for Validate: corruption comes back as an error, and
// the decode is not counted.
func (g *gate) viewChecked(s int, sc *cScratch) (ks, vs []int64, err error) {
	if g.cc == nil {
		ks, vs = g.view(s, nil)
		return ks, vs, nil
	}
	return g.decodeSeg(s, sc)
}

// decodeSeg decodes block s into sc.ks/sc.vs and checks it against segCard.
func (g *gate) decodeSeg(s int, sc *cScratch) (ks, vs []int64, err error) {
	ks, vs = sc.ks[:0], sc.vs[:0]
	c := g.segCard[s]
	if c == 0 {
		return ks, vs, nil
	}
	e := g.enc[s]
	if e == nil || int(e.n) > len(e.data) {
		return ks, vs, errors.New("bad encoded payload")
	}
	ks, vs, err = codec.DecodeBlock(e.data[:e.n], ks, vs, g.b)
	if err != nil {
		return ks, vs, fmt.Errorf("decode: %w", err)
	}
	if len(ks) != c || len(vs) != c {
		return ks, vs, fmt.Errorf("decoded %d pairs, segCard %d", len(ks), c)
	}
	return ks, vs, nil
}

// checkStorage verifies the layout's own bookkeeping for Validate: empty
// blocks hold no bytes, every other block is canonical — byte for byte
// AppendBlock of its pairs, because the splices and MergeBlock edit a block
// by copying its byte ranges and so keep whatever encoding they find — and
// encBytes is the sum of the payload lengths.
func (g *gate) checkStorage() error {
	if g.cc == nil {
		return nil
	}
	sc := g.cc.get()
	defer g.cc.put(sc)
	var sum int64
	for s, e := range g.enc {
		if e == nil {
			continue
		}
		if g.segCard[s] == 0 && e.n != 0 {
			return fmt.Errorf("empty segment %d holds %d encoded bytes", s, e.n)
		}
		if g.segCard[s] > 0 {
			ks, vs, err := g.decodeSeg(s, sc)
			if err != nil {
				return fmt.Errorf("segment %d: %w", s, err)
			}
			if !bytes.Equal(e.data[:e.n], codec.AppendBlock(sc.eb[:0], ks, vs)) {
				return fmt.Errorf("segment %d is not canonical: %x", s, e.data[:e.n])
			}
		}
		sum += int64(e.n)
	}
	if tracked := g.encBytes.Load(); sum != tracked {
		return fmt.Errorf("encoded bytes %d != tracked %d", sum, tracked)
	}
	return nil
}

// --- reads ---

// find looks k up in segment s, which must be in [0, spg): the clamped slot
// alias searched, or the block sought as it stands. good is false when the
// block does not parse; an empty segment is a clean miss.
func (g *gate) find(s int, k int64) (v int64, found, good bool) {
	if g.cc == nil {
		ks, vs := g.slots(s)
		v, found = pairAt(ks, vs, g.seek(s, ks, k), k)
		return v, found, true
	}
	p := g.payload(s)
	if p == nil {
		return 0, false, true
	}
	c, err := codec.Seek(p, k, g.b)
	return c.Val, err == nil && c.Found, err == nil
}

// appendSeg appends segment s's pairs to dk/dv. It appends at most b pairs
// and keeps the two slices the same length, so a chunk-sized buffer is never
// grown; a block that does not parse appends nothing and reports false.
func (g *gate) appendSeg(s int, dk, dv []int64) ([]int64, []int64, bool) {
	if g.cc == nil {
		ks, vs := g.slots(s)
		return append(dk, ks...), append(dv, vs...), true
	}
	p := g.payload(s)
	if p == nil {
		return dk, dv, true
	}
	ks, vs, err := codec.DecodeBlock(p, dk, dv, g.b)
	if err != nil {
		return dk, dv, false
	}
	g.cc.metrics.SegDecodes.Inc()
	return ks, vs, true
}

// slots is slot segment s as a reader may take it: headers copied once and
// checked against the geometry, the cardinality clamped.
func (g *gate) slots(s int) (ks, vs []int64) {
	buf := g.buf
	if buf == nil || len(buf.keys) < g.spg*g.b || len(buf.vals) < g.spg*g.b {
		return nil, nil // torn headers; the version check will reject
	}
	lo := s * g.b
	hi := lo + clampCard(g.segCard[s], g.b)
	return buf.keys[lo:hi], buf.vals[lo:hi]
}

// payload is block s's encoded bytes, nil when the segment is empty. A
// seqlock reader may call it too: headers are copied once, the length is
// clamped to the array, and anything missing reads as empty.
func (g *gate) payload(s int) []byte {
	enc := g.enc
	if len(enc) < g.spg {
		return nil
	}
	e := enc[s]
	if e == nil {
		return nil
	}
	n := int(e.n)
	if n <= 0 {
		return nil
	}
	if n > len(e.data) {
		n = len(e.data)
	}
	return e.data[:n]
}

// --- writes ---

// setSeg makes segment s hold exactly ks/vs (sorted, at most b pairs) and
// records its cardinality; gcard and the minima stay with the caller, which
// holds the latch exclusively. Slots copy unless ks/vs are the view's own
// alias, in which case the pairs are already in place. Blocks re-encode and
// store the payload (storePayload).
func (g *gate) setSeg(s int, ks, vs []int64, sc *cScratch) {
	g.segCard[s] = len(ks)
	if g.cc == nil {
		if lo := s * g.b; len(ks) > 0 && &ks[0] != &g.buf.keys[lo] {
			copy(g.buf.keys[lo:lo+g.b], ks)
			copy(g.buf.vals[lo:lo+g.b], vs)
		}
		return
	}
	if len(ks) == 0 {
		if e := g.enc[s]; e != nil {
			g.encBytes.Add(-int64(e.n))
			e.n = 0
		}
		return
	}
	g.storePayload(s, codec.AppendBlock(sc.eb[:0], ks, vs))
}

// storePayload makes block s hold the non-empty payload p, reusing the
// backing array when p fits and publishing a fresh encSeg with growth slack
// otherwise; segCard is the caller's.
func (g *gate) storePayload(s int, p []byte) {
	e := g.enc[s]
	var old int64
	if e != nil {
		old = int64(e.n)
	}
	if e != nil && len(p) <= len(e.data) {
		copy(e.data, p)
		e.n = int32(len(p))
	} else {
		nd := make([]byte, len(p)+len(p)/4+16)
		copy(nd, p)
		g.enc[s] = &encSeg{data: nd, n: int32(len(p))}
	}
	g.encBytes.Add(int64(len(p)) - old)
	g.cc.metrics.ReencodeBytes.Add(uint64(len(p)))
}

// stageMerge readies segment s to take the key-sorted, deduplicated run as
// group i of a mergeBySegment pass, and reports how many of the run's keys
// are fresh, or false when the segment cannot hold them; the gate is left as
// it was either way. Slots count the fresh keys against the alias. Blocks
// merge the run into the encoded block and stage the result as sc.staged[i],
// decoding nothing; the run is longer than b only when it cannot fit.
func (g *gate) stageMerge(i, s int, run []op, sc *cScratch) (int, bool) {
	if g.cc == nil {
		ks, _ := g.view(s, nil)
		fresh := countFresh(ks, run)
		return fresh, len(ks)+fresh <= g.b
	}
	if len(run) > g.b {
		return 0, false
	}
	ks, vs := sc.mk[:len(run)], sc.mv[:len(run)]
	for j, o := range run {
		ks[j], vs[j] = o.key, o.val
	}
	if i == 0 {
		sc.mb = sc.mb[:0]
	}
	at := len(sc.mb)
	mb, fresh, err := codec.MergeBlock(sc.mb, g.payload(s), ks, vs, g.b)
	if err == codec.ErrFull {
		return 0, false
	}
	if err != nil {
		panic(corruptSegment + ": " + err.Error())
	}
	sc.mb, sc.staged[i] = mb, mb[at:]
	return fresh, true
}

// commitMerge applies what stageMerge readied for group i, segment s: the
// run with its fresh keys merged into the slots, or the staged block
// stored. gcard and the minima are the caller's.
func (g *gate) commitMerge(i, s int, run []op, fresh int, sc *cScratch) {
	if g.cc == nil {
		ks, vs := g.view(s, nil)
		ks, vs = mergeRun(ks, vs, run, fresh)
		g.setSeg(s, ks, vs, nil)
		return
	}
	g.segCard[s] += fresh
	g.storePayload(s, sc.staged[i])
}

// spliceUpsert sets k to v inside block s without decoding it and reports
// codec.Replaced or codec.Inserted, or codec.Full — nothing touched — when k
// is new and the segment holds b pairs already. The caller holds the latch
// exclusively, the store is a block store and the segment is not empty; as
// with setSeg, gcard and the minima are the caller's, and r.First is the
// block's first key after the edit. A block that outgrows its array moves
// to a fresh one by setSeg's rule (a quarter and 16 bytes of slack): copied,
// spliced there, then published with one pointer store.
func (g *gate) spliceUpsert(s int, k, v int64) codec.Splice {
	e := g.enc[s]
	old := int(e.n)
	r := codec.Upsert(e.data, old, k, v, g.b)
	if r.Status == codec.NoFit {
		e = &encSeg{data: make([]byte, r.Len+r.Len/4+16)}
		copy(e.data, g.enc[s].data[:old])
		r = codec.Upsert(e.data, old, k, v, g.b)
		r.Written += old
	}
	switch r.Status {
	case codec.Full:
		return r
	case codec.Inserted:
		g.segCard[s]++
	case codec.Replaced:
	default:
		panic(corruptSegment)
	}
	g.spliced(s, e, old, r)
	return r
}

// spliceRemove deletes k from block s without decoding it, under the same
// conditions as spliceUpsert, and reports codec.Removed or codec.Missing. A
// block that loses its last pair keeps its array with no live bytes, as
// setSeg leaves an emptied segment.
func (g *gate) spliceRemove(s int, k int64) codec.Splice {
	e := g.enc[s]
	r := codec.Remove(e.data, int(e.n), k, g.b)
	switch r.Status {
	case codec.Missing:
		return r
	case codec.Removed:
		g.segCard[s]--
	default:
		panic(corruptSegment)
	}
	g.spliced(s, e, int(e.n), r)
	return r
}

// spliced books a splice of block s that left r.Len live bytes, old before,
// in e — g.enc[s] itself, or its grown replacement, published here.
func (g *gate) spliced(s int, e *encSeg, old int, r codec.Splice) {
	e.n = int32(r.Len)
	g.enc[s] = e
	g.encBytes.Add(int64(r.Len - old))
	g.cc.metrics.ReencodeBytes.Add(uint64(r.Written))
}

// --- chunk construction ---

// chunkBuf is a slot gate's storage: parallel key and value arrays of spg*b
// slots, segment s at [s*b, (s+1)*b). It stands in for the spare physical
// pages of memory rewiring [Schuhknecht et al., RUMA]: a rebalance copies
// its window once into fresh buffers and install swaps each in with one
// pointer store. The buffer it replaces is never written again, so a
// reader still copying from it reads the chunk as it was; the GC frees it
// once no reader holds it.
type chunkBuf struct {
	keys, vals []int64
}

func newChunkBuf(slots int) *chunkBuf {
	kv := make([]int64, 2*slots) // one allocation: the allocator's cost is per object
	return &chunkBuf{keys: kv[:slots:slots], vals: kv[slots:]}
}

// destPlan is the fully built replacement content for one gate, produced by
// a worker (fillChunk) and published by the master.
type destPlan struct {
	buf      *chunkBuf // slots
	enc      []*encSeg // blocks
	encBytes int64     // sum of the enc payload lengths
	segCard  [maxSegmentsPerGate]int
	smin     [maxSegmentsPerGate]int64
	gcard    int
	firstKey int64
	hasKey   bool
}

// newPlan starts an empty replacement chunk: a fresh buffer, or spg unset
// blocks.
func (p *PMA) newPlan(spg int) destPlan {
	var pl destPlan
	if p.cctx == nil {
		pl.buf = newChunkBuf(spg * p.cfg.SegmentCapacity)
	} else {
		pl.enc = make([]*encSeg, spg)
	}
	return pl
}

// fillSeg writes the sorted pairs ks/vs (at least one) into the plan's
// segment j and returns the segment's first key. Slots are copied in place;
// blocks are encoded exactly sized: rebalanced chunks carry no slack, the
// first rewrite that outgrows a payload adds it (setSeg).
func (p *PMA) fillSeg(pl *destPlan, j int, ks, vs []int64, sc *cScratch) int64 {
	if p.cctx == nil {
		lo := j * p.cfg.SegmentCapacity
		copy(pl.buf.keys[lo:], ks)
		copy(pl.buf.vals[lo:], vs)
		return ks[0]
	}
	payload := codec.AppendBlock(sc.eb[:0], ks, vs)
	data := make([]byte, len(payload))
	copy(data, payload)
	pl.enc[j] = &encSeg{data: data, n: int32(len(payload))}
	pl.encBytes += int64(len(payload))
	p.metrics.ReencodeBytes.Add(uint64(len(payload)))
	return ks[0]
}

// install swaps the plan's chunk and metadata into the gate — the O(1)
// "rewiring" step: one pointer store for the storage, a copy of the inline
// minima and cardinalities. The storage it replaces is left to the GC,
// unchanged. The caller holds the latch exclusively, or the gate is not yet
// published.
func (g *gate) install(pl *destPlan) {
	g.buf, g.enc = pl.buf, pl.enc
	g.encBytes.Store(pl.encBytes)
	g.segCard, g.smin, g.gcard = pl.segCard, pl.smin, pl.gcard
}
