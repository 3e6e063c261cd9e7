package pmago

import (
	"errors"
	"fmt"
	"math/bits"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"pmago/internal/core"
	"pmago/internal/obs"
	"pmago/internal/persist"
	"pmago/internal/placement"
)

// Sharded is a horizontally sharded store: one key space routed across N
// independent PMA shards, each with its own gates, rebalancer and (when
// opened with OpenSharded) its own write-ahead log and snapshots. Sharding
// multiplies the structures that serialize writers — combining queues,
// rebalancer masters, WAL group commits — so writers on different shards
// do not contend for them. It does not promise more write throughput:
// that depends on cores and workload, and every call pays for routing and,
// for a batch, the split and fan-out. Scans pay a merge step.
//
// Keys are placed by one of two schemes, fixed at creation time and recorded
// in the store's manifest:
//
//   - Weighted (straw2, the default): each key draws a weighted pseudo-random
//     straw per shard and lands on the argmax. WithShards gives every shard
//     weight 1; a manifest that records other weights keeps routing by them.
//     Placement is uniform in proportion to the weights, depends only on
//     (key, shard count, weights), and is stable in the CRUSH sense —
//     growing the cluster moves keys only onto the new shard, never between
//     old ones.
//   - Range (WithRangeSplits): shard i holds the keys between split points
//     i-1 and i. Shard order equals key order, so a scan is the shards'
//     scans one after the other; the caller owns balance.
//
// All methods are safe for concurrent use. The semantics of each operation
// match PMA/DB on the shard that holds the key; what sharding changes is
// atomicity ACROSS shards: a PutBatch/DeleteBatch spanning shards is applied
// as one batch per shard concurrently, so a concurrent scan can observe one
// shard's portion applied and another's not, and a crash can persist the
// portions independently (each shard recovers its own acknowledged-durable
// prefix). Scan hands out one globally ascending stream, merged from
// per-shard cursors that each read their shard at most scanRefillMax pairs
// plus one chunk ahead; each chunk within a shard is still observed
// atomically.
type Sharded struct {
	place  placement.Placement
	stores []Store
	mems   []*PMA // non-nil entries when in-memory
	dbs    []*DB  // non-nil entries when durable
	// ordered means shard order == key order (range placement, or a single
	// shard): scans walk the shards sequentially instead of merging.
	ordered bool
	merges  sync.Pool // *mergeState, for the scans that do merge
	dir     string
	unlock  func()
	closed  atomic.Bool

	// routedOps/routedBatch count the point ops and batch keys routed to
	// each shard — the observed placement balance in request (rather than
	// resident-key) terms, reported as Stats().Shards.
	routedOps   []obs.Counter
	routedBatch []obs.Counter
}

// newSharded returns a Sharded that has its placement but no shards yet:
// what every constructor starts from.
func newSharded(place placement.Placement) *Sharded {
	return &Sharded{
		place:       place,
		ordered:     place.Ordered() || place.Shards() == 1,
		routedOps:   make([]obs.Counter, place.Shards()),
		routedBatch: make([]obs.Counter, place.Shards()),
	}
}

// DefaultShards is the shard count used when none of the sharding options is
// given.
const DefaultShards = 4

// shardConfig carries the sharding options until a constructor resolves them
// into a placement.
type shardConfig struct {
	n      int
	splits []int64
}

// specified reports whether the caller expressed any topology at all —
// OpenSharded adopts the on-disk manifest when it did not.
func (sc shardConfig) specified() bool {
	return sc.n != 0 || sc.splits != nil
}

// WithShards shards the store across n equally weighted shards (straw2
// placement). Only the Sharded constructors accept this option.
func WithShards(n int) Option {
	return func(c *config) { c.shardOpt("WithShards"); c.shard.n = n }
}

// WithRangeSplits shards the store by key range: len(splits)+1 shards, shard
// i holding keys k with splits[i-1] <= k < splits[i]. Splits must be strictly
// increasing. Range placement keeps shard order equal to key order, so Scan
// walks shards sequentially with no merge.
func WithRangeSplits(splits []int64) Option {
	return func(c *config) {
		c.shardOpt("WithRangeSplits")
		c.shard.splits = append([]int64(nil), splits...)
	}
}

// resolve turns the options into a placement and the manifest describing it.
func (sc shardConfig) resolve() (placement.Placement, persist.ShardManifest, error) {
	var none persist.ShardManifest
	if sc.n < 0 {
		return nil, none, fmt.Errorf("pmago: shard count %d", sc.n)
	}
	if sc.splits != nil {
		if sc.n != 0 && sc.n != len(sc.splits)+1 {
			return nil, none, fmt.Errorf("pmago: WithShards(%d) conflicts with %d range splits (%d shards)",
				sc.n, len(sc.splits), len(sc.splits)+1)
		}
		p, err := placement.NewRange(sc.splits)
		if err != nil {
			return nil, none, err
		}
		return p, persist.ShardManifest{
			Version:   1,
			Shards:    p.Shards(),
			Placement: persist.PlacementRange,
			Splits:    append([]int64(nil), sc.splits...),
		}, nil
	}
	n := sc.n
	if n == 0 {
		n = DefaultShards
	}
	weights := make([]float64, n)
	for i := range weights {
		weights[i] = 1
	}
	p, err := placement.NewStraw2(weights)
	if err != nil {
		return nil, none, err
	}
	return p, persist.ShardManifest{
		Version:   1,
		Shards:    p.Shards(),
		Placement: persist.PlacementStraw2,
		Weights:   weights,
	}, nil
}

// placementFromManifest rebuilds the placement a manifest records.
func placementFromManifest(m persist.ShardManifest) (placement.Placement, error) {
	switch m.Placement {
	case persist.PlacementRange:
		return placement.NewRange(m.Splits)
	default:
		return placement.NewStraw2(m.Weights)
	}
}

// NewSharded creates an empty in-memory sharded store. The sharding options
// (WithShards, WithRangeSplits) pick the topology — DefaultShards
// equal-weight shards when none is given; every other in-memory option
// applies to each shard as it does in New. Durability options are rejected
// with an error (use OpenSharded).
func NewSharded(opts ...Option) (*Sharded, error) {
	cfg, err := resolveOptions("NewSharded", opts, false, true)
	if err != nil {
		return nil, err
	}
	place, _, err := cfg.shard.resolve()
	if err != nil {
		return nil, err
	}
	return loadSharded(place, cfg, nil, nil)
}

// BulkLoadSharded creates an in-memory sharded store already containing the
// given pairs: the input is partitioned by placement and each shard is
// bulk-loaded concurrently, with BulkLoad's semantics per shard (unsorted
// input is sorted, duplicate keys collapse to their last occurrence).
func BulkLoadSharded(keys, vals []int64, opts ...Option) (*Sharded, error) {
	if err := core.CheckBatch(keys, vals); err != nil {
		return nil, err
	}
	cfg, err := resolveOptions("BulkLoadSharded", opts, false, true)
	if err != nil {
		return nil, err
	}
	place, _, err := cfg.shard.resolve()
	if err != nil {
		return nil, err
	}
	return loadSharded(place, cfg, keys, vals)
}

// loadSharded builds the in-memory shards of place concurrently, each
// bulk-loaded with its part of keys/vals (an empty part loads an empty
// shard): the back end of NewSharded and BulkLoadSharded.
func loadSharded(place placement.Placement, cfg config, keys, vals []int64) (*Sharded, error) {
	sp := splitByShard(place, keys)
	partK, partV := sp.parts(keys), sp.parts(vals)
	s := newSharded(place)
	s.mems = make([]*PMA, place.Shards())
	s.stores = make([]Store, place.Shards())
	err := core.Fan(len(s.stores), len(s.stores), func(i int) error {
		p, err := bulkLoadPMA(cfg, partK[i], partV[i])
		if err != nil {
			return err
		}
		s.mems[i] = p
		s.stores[i] = p
		return nil
	})
	if err != nil {
		s.closeAll()
		return nil, err
	}
	return s, nil
}

// shardDirName is the per-shard subdirectory inside a sharded store's parent
// directory.
func shardDirName(i int) string { return fmt.Sprintf("shard-%03d", i) }

// OpenSharded opens (creating it if necessary) a durable sharded store
// rooted at dir: shard i lives in dir/shard-00i with its own WAL and
// snapshots, and the parent directory holds a manifest recording the
// topology plus an advisory flock so a directory is owned by at most one
// open store.
//
// On a fresh directory the sharding options pick the topology and the
// manifest is written before any shard. On an existing store the manifest is
// authoritative: with no sharding options given the recorded topology is
// adopted; options that contradict the manifest are an error, because
// routing keys with a different placement than the writer used would make
// existing data unreachable. A manifest whose shard directories are missing,
// or shard directories with no manifest, also refuse to open.
//
// Per-shard recovery (snapshot load + WAL replay, including torn-tail
// truncation) runs in parallel across shards; any shard's failure fails the
// open with every shard error aggregated.
func OpenSharded(dir string, opts ...Option) (*Sharded, error) {
	cfg, err := resolveOptions("OpenSharded", opts, true, true)
	if err != nil {
		return nil, err
	}
	var desired persist.ShardManifest
	place, desired, err := cfg.shard.resolve()
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	unlock, err := persist.LockDir(dir)
	if err != nil {
		return nil, err
	}
	manifest, ok, err := persist.LoadManifest(dir)
	switch {
	case err != nil:
		unlock()
		return nil, err
	case ok:
		if cfg.shard.specified() && !manifest.Equal(desired) {
			unlock()
			return nil, fmt.Errorf("pmago: shard topology mismatch in %s: store has %s, options request %s",
				dir, manifest, desired)
		}
		if place, err = placementFromManifest(manifest); err != nil {
			unlock()
			return nil, err
		}
		// The manifest promises these shards exist. A missing directory
		// means someone deleted shard data; reopening it as empty would
		// silently lose every key placed there.
		for i := 0; i < manifest.Shards; i++ {
			if _, statErr := os.Stat(filepath.Join(dir, shardDirName(i))); statErr != nil {
				unlock()
				return nil, fmt.Errorf("pmago: %s: manifest records %s but shard directory %s is missing",
					dir, manifest, shardDirName(i))
			}
		}
	default:
		// No manifest. Shard directories without one mean the manifest was
		// lost — the topology that placed their keys is unknown, so refuse
		// rather than guess.
		ents, err := os.ReadDir(dir)
		if err != nil {
			unlock()
			return nil, err
		}
		for _, e := range ents {
			if strings.HasPrefix(e.Name(), "shard-") {
				unlock()
				return nil, fmt.Errorf("pmago: %s holds shard directories but no manifest; cannot infer placement", dir)
			}
		}
		if err := persist.SaveManifest(dir, desired); err != nil {
			unlock()
			return nil, err
		}
	}

	s := newSharded(place)
	s.dir, s.unlock = dir, unlock
	s.dbs = make([]*DB, place.Shards())
	s.stores = make([]Store, place.Shards())
	err = core.Fan(len(s.stores), len(s.stores), func(i int) error {
		db, err := openDB(filepath.Join(dir, shardDirName(i)), cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", shardDirName(i), err)
		}
		s.dbs[i] = db
		s.stores[i] = db
		return nil
	})
	if err != nil {
		s.closeAll()
		unlock()
		return nil, err
	}
	return s, nil
}

// closeAll closes whatever shards a failed constructor managed to open.
func (s *Sharded) closeAll() {
	for _, p := range s.mems {
		if p != nil {
			p.Close()
		}
	}
	for _, db := range s.dbs {
		if db != nil {
			db.Close()
		}
	}
}

// shardSplit is a batch routed to its shards: the shard of each key, in the
// caller's order, and how many keys each shard received. A key is routed
// once however many arrays (keys, values) are then split along it.
type shardSplit struct {
	ids    []int32
	counts []int
}

func splitByShard(place placement.Placement, keys []int64) shardSplit {
	sp := shardSplit{ids: make([]int32, len(keys)), counts: make([]int, place.Shards())}
	for i, k := range keys {
		sh := place.Shard(k)
		sp.ids[i] = int32(sh)
		sp.counts[sh]++
	}
	return sp
}

// live lists the shards that received keys, in shard order.
func (sp shardSplit) live() []int {
	live := make([]int, 0, len(sp.counts))
	for sh, c := range sp.counts {
		if c > 0 {
			live = append(live, sh)
		}
	}
	return live
}

// parts scatters src — the batch's keys, or its values — into one slice per
// shard, all cut from one array, preserving the caller's order within each
// shard so last-wins duplicate semantics survive the split.
func (sp shardSplit) parts(src []int64) [][]int64 {
	parts := make([][]int64, len(sp.counts))
	backing := make([]int64, len(src))
	off := 0
	for sh, c := range sp.counts {
		parts[sh] = backing[off : off : off+c]
		off += c
	}
	for i, sh := range sp.ids {
		parts[sh] = append(parts[sh], src[i])
	}
	return parts
}

func (s *Sharded) checkOpen() {
	if s.closed.Load() {
		panic("pmago: use after Close")
	}
}

// Put inserts k/v, replacing the value if k is present (PMA.Put on the
// owning shard; durable per DB's contract when opened with OpenSharded).
func (s *Sharded) Put(k, v int64) {
	s.checkOpen()
	if err := core.CheckKey(k); err != nil {
		panic(err.Error())
	}
	i := s.place.Shard(k)
	s.routedOps[i].Inc()
	s.stores[i].Put(k, v)
}

// Get returns the value stored under k.
func (s *Sharded) Get(k int64) (int64, bool) {
	s.checkOpen()
	i := s.place.Shard(k)
	s.routedOps[i].Inc()
	return s.stores[i].Get(k)
}

// Delete removes k, reporting whether an element was removed. A sentinel
// key is never stored, so it reaches no shard and removes nothing.
func (s *Sharded) Delete(k int64) bool {
	s.checkOpen()
	if core.CheckKey(k) != nil {
		return false
	}
	i := s.place.Shard(k)
	s.routedOps[i].Inc()
	return s.stores[i].Delete(k)
}

// PutBatch upserts all pairs: the batch is partitioned by placement and each
// shard applies (and, when durable, logs) its portion as one batch, portions
// running concurrently. Within a shard the batch keeps PutBatch's semantics;
// across shards it is not atomic — see the type comment. Duplicate keys
// still collapse to their last occurrence, since duplicates share a shard
// and the split preserves order.
func (s *Sharded) PutBatch(keys, vals []int64) {
	s.checkOpen()
	if err := core.CheckBatch(keys, vals); err != nil {
		panic(err.Error())
	}
	sp := splitByShard(s.place, keys)
	partK, partV, live := sp.parts(keys), sp.parts(vals), sp.live()
	core.Fan(len(live), len(live), func(j int) error {
		i := live[j]
		s.routedBatch[i].Add(uint64(len(partK[i])))
		s.stores[i].PutBatch(partK[i], partV[i])
		return nil
	})
}

// DeleteBatch removes all given keys, partitioned and applied per shard like
// PutBatch, and returns the exact total number of elements removed (shards
// hold disjoint key sets, so per-shard exact counts sum exactly). Sentinel
// keys are dropped from each shard's portion, uncounted.
func (s *Sharded) DeleteBatch(keys []int64) int {
	s.checkOpen()
	sp := splitByShard(s.place, keys)
	partK, live := sp.parts(keys), sp.live()
	var total atomic.Int64
	core.Fan(len(live), len(live), func(j int) error {
		i := live[j]
		partK[i] = slices.DeleteFunc(partK[i], func(k int64) bool { return core.CheckKey(k) != nil })
		s.routedBatch[i].Add(uint64(len(partK[i])))
		total.Add(int64(s.stores[i].DeleteBatch(partK[i])))
		return nil
	})
	return int(total.Load())
}

// Flush applies every pending combined update and deferred batch on every
// shard.
func (s *Sharded) Flush() {
	s.checkOpen()
	core.Fan(len(s.stores), len(s.stores), func(i int) error {
		s.stores[i].Flush()
		return nil
	})
}

// Len returns the total number of stored elements across shards (excluding
// not-yet-applied combined updates; Flush first for an exact count).
func (s *Sharded) Len() int {
	s.checkOpen()
	n := 0
	for _, st := range s.stores {
		n += st.Len()
	}
	return n
}

// Capacity returns the total slot count across shards.
func (s *Sharded) Capacity() int {
	s.checkOpen()
	n := 0
	for _, st := range s.stores {
		n += st.Capacity()
	}
	return n
}

// NumShards returns the shard count.
func (s *Sharded) NumShards() int { return len(s.stores) }

// ShardLens returns the element count per shard — the observed placement
// balance.
func (s *Sharded) ShardLens() []int {
	s.checkOpen()
	lens := make([]int, len(s.stores))
	for i, st := range s.stores {
		lens[i] = st.Len()
	}
	return lens
}

// Stats returns the metrics snapshot merged across shards — counters summed,
// latency and size distributions merged bucket-wise — plus one Shards entry
// per shard with the ops and batch keys routed to it (the placement balance
// in request terms). On a durable sharded store Recovery.Recoveries counts
// the shards recovered by OpenSharded.
func (s *Sharded) Stats() Stats {
	s.checkOpen()
	var t Stats
	for _, st := range s.stores {
		t = t.Merge(st.Stats())
	}
	t.Shards = make([]obs.ShardStats, len(s.stores))
	for i := range t.Shards {
		t.Shards[i] = obs.ShardStats{
			Ops:       s.routedOps[i].Load(),
			BatchKeys: s.routedBatch[i].Load(),
		}
	}
	return t
}

// Validate checks every shard's structural invariants and that every stored
// key resides on the shard the placement routes it to. Like PMA.Validate it
// must run without concurrent updates.
func (s *Sharded) Validate() error {
	s.checkOpen()
	return core.Fan(len(s.stores), len(s.stores), func(i int) (err error) {
		if err := s.stores[i].Validate(); err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
		s.stores[i].Scan(KeyMin+1, KeyMax-1, func(k, _ int64) bool {
			if home := s.place.Shard(k); home != i {
				err = fmt.Errorf("shard %d holds key %d, which places on shard %d", i, k, home)
			}
			return err == nil
		})
		return err
	})
}

// Sync forces every acknowledged write on every shard to stable storage (a
// durability barrier; see DB.Sync). Errors on an in-memory store.
func (s *Sharded) Sync() error {
	s.checkOpen()
	if s.dbs == nil {
		return errors.New("pmago: Sync on a non-durable sharded store")
	}
	return core.Fan(len(s.dbs), len(s.dbs), func(i int) error { return s.dbs[i].Sync() })
}

// Snapshot checkpoints every shard (see DB.Snapshot), shards in parallel.
// Shard snapshots are independent checkpoints — a crash between them leaves
// some shards compacted and others not, which recovery handles per shard.
// Errors on an in-memory store.
func (s *Sharded) Snapshot() error {
	s.checkOpen()
	if s.dbs == nil {
		return errors.New("pmago: Snapshot on a non-durable sharded store")
	}
	return core.Fan(len(s.dbs), len(s.dbs), func(i int) error { return s.dbs[i].Snapshot() })
}

// WALBytes reports the total live write-ahead-log size across shards (zero
// for an in-memory store).
func (s *Sharded) WALBytes() int64 {
	s.checkOpen()
	var n int64
	for _, db := range s.dbs {
		if db != nil {
			n += db.WALBytes()
		}
	}
	return n
}

// Dir returns the parent directory of a durable sharded store ("" when
// in-memory).
func (s *Sharded) Dir() string { return s.dir }

// Close closes every shard (in parallel) and releases the parent directory
// lock. Close is idempotent; any other use of a closed Sharded panics with
// "pmago: use after Close". As with PMA.Close, concurrent operations must
// have completed.
func (s *Sharded) Close() error {
	if s.closed.Swap(true) {
		return nil
	}
	err := core.Fan(len(s.stores), len(s.stores), func(i int) error {
		if s.dbs != nil {
			return s.dbs[i].Close()
		}
		s.mems[i].Close()
		return nil
	})
	if s.unlock != nil {
		s.unlock()
	}
	return err
}

// Scan visits all pairs with lo <= key <= hi across every shard in globally
// ascending key order until fn returns false, on the caller's goroutine.
// Where shard order is key order (range placement, or one shard) the shards
// are scanned one after the other. Under straw2 a cursor per shard copies a
// run of whole chunks out of its shard, each by the one consistent read the
// shard's own Scan makes of it, fn is handed the smallest head among the
// cursors, and a drained cursor resumes its shard at the next chunk's lower
// fence, so no chunk is read twice. A run stops after the chunk that brings
// it to scanRefillMax pairs, which bounds how far a shard is read ahead of
// what fn has seen to that plus one chunk. Either way fn inherits PMA.Scan's
// callback freedom: it runs on copied-out pairs with no latch held and may
// update or re-scan the same store (a pair already copied does not reflect a
// later update). Chunk atomicity is per shard, and there is no cross-shard
// snapshot (a concurrent cross-shard batch may be visible on one shard and
// not yet on another).
func (s *Sharded) Scan(lo, hi int64, fn func(k, v int64) bool) {
	s.checkOpen()
	if s.ordered {
		last := len(s.stores) - 1
		for _, st := range s.stores[:last] {
			stopped := false
			st.Scan(lo, hi, func(k, v int64) bool {
				stopped = !fn(k, v)
				return !stopped
			})
			if stopped {
				return
			}
		}
		s.stores[last].Scan(lo, hi, fn)
		return
	}
	// No pair has a sentinel key; with hi below KeyMax, the key after a
	// cursor's last one cannot overflow.
	lo, hi = max(lo, KeyMin+1), min(hi, KeyMax-1)
	if lo > hi || s.Len() == 0 {
		return
	}
	m, _ := s.merges.Get().(*mergeState)
	if m == nil {
		m = newMergeState(s.stores)
	}
	defer s.merges.Put(m)
	m.run(lo, hi, fn)
}

// ScanAll visits every pair across shards in globally ascending key order.
func (s *Sharded) ScanAll(fn func(k, v int64) bool) {
	s.Scan(KeyMin+1, KeyMax-1, fn)
}

// A merge cursor's first run is the whole chunks that hold at least
// scanRefillMin pairs and each later one twice as many up to scanRefillMax:
// a short window or an early stop copies little that fn never sees, and a
// long scan re-seeks its shard (an index descent) about once per
// scanRefillMax pairs. A run ends on a chunk boundary, so a shard is read at
// most scanRefillMax pairs plus one chunk ahead of fn, and the next run
// resumes at the next chunk's lower fence: no chunk is copied twice.
const (
	scanRefillMin = 64
	scanRefillMax = 1024
)

// runSource is what a merge cursor reads its shard through, and a served
// scan its store (see the init in pmago.go): *PMA has it, and *DB through
// its embedded store.
type runSource interface {
	appendRun(lo, hi int64, n int, ks, vs []int64) ([]int64, []int64, int64, bool)
}

// shardCursor is one shard's position in a merge: a run of pairs copied out
// of the shard, and where the shard's scan resumes when the run is drained.
type shardCursor struct {
	src        runSource
	keys, vals []int64 // the run; keys[pos:] have not been handed to fn
	pos        int
	size       int   // pairs the next refill copies at least
	next, hi   int64 // the shard still owes the pairs in [next, hi]
	more       bool  // false once a refill has reached hi
}

// head is the cursor's next key, KeyMax once it is drained.
func (c *shardCursor) head() int64 {
	if c.pos < len(c.keys) {
		return c.keys[c.pos]
	}
	return KeyMax
}

// refill replaces the drained run with the shard's next pairs, if it owes
// any. A run that leaves pairs owed holds at least one, so one copy settles
// it.
func (c *shardCursor) refill() {
	c.keys, c.vals, c.pos = c.keys[:0], c.vals[:0], 0
	if c.more {
		c.keys, c.vals, c.next, c.more = c.src.appendRun(c.next, c.hi, c.size, c.keys, c.vals)
		c.size = min(2*c.size, scanRefillMax)
	}
}

// mergeState is the cursors of one merging Scan, pooled on the Sharded so a
// scan in steady state allocates nothing. A scan nested in fn takes a state
// of its own.
type mergeState struct {
	cursors []shardCursor
	heads   []int64 // heads[i] is cursor i's next key, KeyMax once it is drained
}

func newMergeState(stores []Store) *mergeState {
	m := &mergeState{
		cursors: make([]shardCursor, len(stores)),
		heads:   make([]int64, len(stores)),
	}
	for i := range m.cursors {
		m.cursors[i].src = stores[i].(runSource)
	}
	return m
}

// run merges the shards' pairs in [lo, hi] into fn. It sets every field a
// previous scan left behind, however that scan ended.
func (m *mergeState) run(lo, hi int64, fn func(k, v int64) bool) {
	for i := range m.cursors {
		c := &m.cursors[i]
		c.size, c.next, c.hi, c.more = scanRefillMin, lo, hi, true
		c.refill()
		m.heads[i] = c.head()
	}
	heads := m.heads
	for {
		// The smallest head is next. Shards interleave every pair or two,
		// so a compare the CPU predicts wrong half the time would cost more
		// than the rest of the step: the argmin is branch-free instead, the
		// borrow of an unsigned subtraction of sign-flipped keys (their
		// signed order) widened to a mask. A key lives on one shard, so
		// heads tie only at KeyMax, which no pair has.
		best, bk := 0, heads[0]
		for i := 1; i < len(heads); i++ {
			h := heads[i]
			_, less := bits.Sub64(uint64(h)^signBit, uint64(bk)^signBit, 0)
			mask := -int64(less)
			best ^= (best ^ i) & int(mask)
			bk ^= (bk ^ h) & mask
		}
		if bk == KeyMax {
			return
		}
		c := &m.cursors[best]
		if !fn(bk, c.vals[c.pos]) {
			return
		}
		if c.pos++; c.pos == len(c.keys) {
			c.refill()
		}
		heads[best] = c.head()
	}
}

// signBit flips a key's sign so that unsigned order is signed order.
const signBit = 1 << 63
