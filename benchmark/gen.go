package main

import (
	"math/rand"
	"slices"
)

// The benchmark carries its own generators so that no change outside
// benchmark/ can alter the load: splitmix64 for everything uniform and
// math/rand's Zipf for the skewed ingest. Every stream is a pure function of
// (seed, stream tag), which is what lets verify rebuild the expected store
// contents by replaying the streams instead of modelling them during the
// timed loops.

const golden = 0x9e3779b97f4a7c15

// mix is the splitmix64 finalizer over seed + x*golden.
func mix(seed, x uint64) uint64 {
	z := seed + x*golden
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// rng is a splitmix64 sequence.
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += golden
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Stream tags: each load stream derives its own seed from the run seed.
const (
	tagUpdate = iota + 1
	tagGet
	tagScan
	tagIngestPoint
	tagIngestBatch
	tagVerify
)

// keyClass is the oracle's answer for one key.
type keyClass int

const (
	classPreloaded keyClass = iota // even, in the store from set-up on, never deleted
	classAbsent                    // even, never in the store
	classFresh                     // odd, written (and maybe deleted) during the run
)

// keyScheme fixes which keys exist. Preloaded key i is 16*i + 2*(mix&7):
// even, with jittered gaps around 16 so delta compression sees realistic
// deltas, and membership of any even key is decided in O(1). Keys written
// during the run are odd. The value of every key is mix(seed, key).
type keyScheme struct {
	seed uint64
	n    int64 // preloaded pairs
}

func (ks keyScheme) preKey(i int64) int64 {
	return 16*i + 2*int64(mix(ks.seed, uint64(i))&7)
}

func (ks keyScheme) val(k int64) int64 { return int64(mix(ks.seed, uint64(k))) }

// span is the size of the key space: every key lies in [0, span).
func (ks keyScheme) span() int64 { return 16 * ks.n }

func (ks keyScheme) classify(k int64) keyClass {
	if k&1 == 1 {
		return classFresh
	}
	if i := k >> 4; i >= 0 && i < ks.n && ks.preKey(i) == k {
		return classPreloaded
	}
	return classAbsent
}

// absentKey returns an even key that is not preloaded: slot i's own key
// shifted to one of the seven other even offsets.
func (ks keyScheme) absentKey(r uint64) int64 {
	i := int64(r % uint64(ks.n))
	j := mix(ks.seed, uint64(i)) & 7
	off := (j + 1 + (r>>40)%7) & 7
	return 16*i + 2*int64(off)
}

// freshKey returns a uniform odd key.
func (ks keyScheme) freshKey(r uint64) int64 {
	return 2*int64(r%uint64(8*ks.n)) + 1
}

// preload materialises the preloaded pairs (sorted by construction).
func (ks keyScheme) preload() (keys, vals []int64) {
	keys = make([]int64, ks.n)
	vals = make([]int64, ks.n)
	for i := range keys {
		keys[i] = ks.preKey(int64(i))
		vals[i] = ks.val(keys[i])
	}
	return keys, vals
}

// updateRound is the length of one Put round and of the Delete round that
// follows it.
const updateRound = 4096

// updateStream is G0's point-update stream in rw, scan and checkpoint:
// rounds of updateRound Puts of fresh uniform odd keys, each followed by
// Deletes of the same keys in the same order, so the store's size stays
// about n and rebalances run both ways.
type updateStream struct {
	ks   keyScheme
	r    rng
	keys [updateRound]int64
	pos  int
	del  bool
}

func newUpdateStream(ks keyScheme) *updateStream {
	u := &updateStream{ks: ks, r: rng{mix(ks.seed, tagUpdate)}}
	u.fill()
	return u
}

func (u *updateStream) fill() {
	for i := range u.keys {
		u.keys[i] = u.ks.freshKey(u.r.next())
	}
}

func (u *updateStream) next() (del bool, k int64) {
	del, k = u.del, u.keys[u.pos]
	u.pos++
	if u.pos == updateRound {
		u.pos = 0
		if u.del {
			u.fill()
		}
		u.del = !u.del
	}
	return del, k
}

// getStream is G1's stream in rw: 80 % uniform preloaded keys (must hit),
// 20 % absent even keys (must miss).
type getStream struct {
	ks keyScheme
	r  rng
}

func newGetStream(ks keyScheme) *getStream {
	return &getStream{ks: ks, r: rng{mix(ks.seed, tagGet)}}
}

func (g *getStream) next() (k int64, hit bool) {
	r := g.r.next()
	if (r>>48)%5 == 0 {
		return g.ks.absentKey(r), false
	}
	return g.ks.preKey(int64(r % uint64(g.ks.n))), true
}

// Scan widths, in preloaded keys. A window of w preloaded slots holds
// exactly w preloaded keys, which is what every scan is checked against.
const (
	scanShort = 128
	scanLong  = 65536
)

// scanStream is G1's stream in scan: one short and one long window in turn,
// at uniform slot-aligned positions.
type scanStream struct {
	ks   keyScheme
	r    rng
	long bool
}

func newScanStream(ks keyScheme) *scanStream {
	return &scanStream{ks: ks, r: rng{mix(ks.seed, tagScan)}}
}

func (s *scanStream) next() (lo, hi, width int64, long bool) {
	long = s.long
	s.long = !s.long
	width = scanShort
	if long {
		width = scanLong
	}
	if width > s.ks.n {
		width = s.ks.n
	}
	i := int64(s.r.next() % uint64(s.ks.n-width+1))
	return 16 * i, 16*(i+width) - 1, width, long
}

// Ingest shape: both writers draw cluster positions from the same
// Zipf(s=1.1) over ingestBuckets equal key ranges, so they collide on the
// same hot gates.
const (
	ingestBuckets = 65536
	ingestZipfS   = 1.1
	batchKeys     = 1024
	clusterKeys   = 32
	clusterSpan   = 1024 // key units a cluster's keys are drawn from, at least
)

// ingestStream yields cluster positions and the odd keys around them.
type ingestStream struct {
	ks    keyScheme
	r     rng
	zipf  *rand.Zipf
	width int64 // key units per bucket
	batch []int64
	vals  []int64
}

func newIngestStream(ks keyScheme, tag uint64) *ingestStream {
	s := mix(ks.seed, tag)
	src := rand.New(rand.NewSource(int64(s >> 1)))
	w := ks.span() / ingestBuckets
	if w < 2 {
		w = 2
	}
	return &ingestStream{
		ks:    ks,
		r:     rng{s},
		zipf:  rand.NewZipf(src, ingestZipfS, 1, ingestBuckets-1),
		width: w,
		batch: make([]int64, 0, batchKeys),
		vals:  make([]int64, 0, batchKeys),
	}
}

// cluster draws a cluster's base key. Zipf rank 0 is the hottest; the odd
// multiplier permutes ranks over the buckets so hot buckets are spread over
// the key range and are the same for both writers.
func (s *ingestStream) cluster() int64 {
	b := (s.zipf.Uint64() * 40503) % ingestBuckets
	return int64(b) * s.width % s.ks.span()
}

// keyNear returns an odd key within the cluster starting at base.
func (s *ingestStream) keyNear(base int64) int64 {
	w := s.width
	if w < clusterSpan {
		w = clusterSpan
	}
	k := base + int64(s.r.next()%uint64(w))
	return (k%s.ks.span())&^1 + 1
}

// point is G0's next ingest key.
func (s *ingestStream) point() int64 { return s.keyNear(s.cluster()) }

// nextBatch is G1's next ingest batch: batchKeys sorted odd keys in clusters
// of clusterKeys (duplicates are possible and collapse in PutBatch). The
// returned slices are reused by the next call.
func (s *ingestStream) nextBatch() (keys, vals []int64) {
	s.batch = s.batch[:0]
	for len(s.batch) < batchKeys {
		base := s.cluster()
		for j := 0; j < clusterKeys; j++ {
			s.batch = append(s.batch, s.keyNear(base))
		}
	}
	slices.Sort(s.batch)
	s.vals = s.vals[:0]
	for _, k := range s.batch {
		s.vals = append(s.vals, s.ks.val(k))
	}
	return s.batch, s.vals
}

// model is the benchmark's own record of which fresh (odd) keys the store
// must hold: one bit per odd key of the key space.
type model struct {
	ks    keyScheme
	bits  []uint64
	count int64
}

func newModel(ks keyScheme) *model {
	return &model{ks: ks, bits: make([]uint64, (8*ks.n+63)/64)}
}

func (m *model) has(k int64) bool {
	i := k >> 1
	return m.bits[i>>6]>>(uint(i)&63)&1 == 1
}

func (m *model) put(k int64) {
	i := k >> 1
	w, b := &m.bits[i>>6], uint64(1)<<(uint(i)&63)
	if *w&b == 0 {
		*w |= b
		m.count++
	}
}

func (m *model) del(k int64) {
	i := k >> 1
	w, b := &m.bits[i>>6], uint64(1)<<(uint(i)&63)
	if *w&b != 0 {
		*w &^= b
		m.count--
	}
}

// opCounts is how far each write stream got during a run; replaying the
// streams that far rebuilds the store's expected fresh keys.
type opCounts struct {
	updates       int64 // G0 update-stream ops (rw, scan, checkpoint)
	ingestPoints  int64 // G0 ingest Puts
	ingestBatches int64 // G1 ingest PutBatch calls
}

// replay builds the model of a run from its op counts.
func replay(ks keyScheme, c opCounts) *model {
	m := newModel(ks)
	u := newUpdateStream(ks)
	for i := int64(0); i < c.updates; i++ {
		if del, k := u.next(); del {
			m.del(k)
		} else {
			m.put(k)
		}
	}
	p := newIngestStream(ks, tagIngestPoint)
	for i := int64(0); i < c.ingestPoints; i++ {
		m.put(p.point())
	}
	b := newIngestStream(ks, tagIngestBatch)
	for i := int64(0); i < c.ingestBatches; i++ {
		keys, _ := b.nextBatch()
		for _, k := range keys {
			m.put(k)
		}
	}
	return m
}
