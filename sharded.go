package pmago

import (
	"container/heap"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"

	"pmago/internal/obs"
	"pmago/internal/persist"
	"pmago/internal/placement"
)

// Sharded is a horizontally sharded store: one key space routed across N
// independent PMA shards, each with its own gates, rebalancer and (when
// opened with OpenSharded) its own write-ahead log and snapshots. Sharding
// multiplies the structures that serialize writers — combining queues,
// rebalancer masters, WAL group commits — so write throughput scales with
// shard count on multi-core machines, at the cost of a merge step on scans.
//
// Keys are placed by one of two schemes, fixed at creation time and recorded
// in the store's manifest:
//
//   - Weighted (straw2, the default): each key draws a weighted pseudo-random
//     straw per shard and lands on the argmax. Placement is uniform (in
//     proportion to the weights), depends only on (key, shard count, weights),
//     and is stable in the CRUSH sense — growing the cluster moves keys only
//     onto the new shard, never between old ones.
//   - Range (WithRangeSplits): shard i holds the keys between split points
//     i-1 and i. Shard order equals key order, so scans need no merge; the
//     caller owns balance.
//
// All methods are safe for concurrent use. The semantics of each operation
// match PMA/DB on the shard that holds the key; what sharding changes is
// atomicity ACROSS shards: a PutBatch/DeleteBatch spanning shards is applied
// as one batch per shard concurrently, so a concurrent scan can observe one
// shard's portion applied and another's not, and a crash can persist the
// portions independently (each shard recovers its own acknowledged-durable
// prefix). Scan merges the per-shard streams into one globally ascending
// stream; each chunk within a shard is still observed atomically.
type Sharded struct {
	place  placement.Placement
	stores []Store
	mems   []*PMA // non-nil entries when in-memory
	dbs    []*DB  // non-nil entries when durable
	// ordered means shard order == key order (range placement): scans walk
	// the shards sequentially instead of k-way merging.
	ordered bool
	dir     string
	unlock  func()
	closed  atomic.Bool

	// routedOps/routedBatch count the point ops and batch keys routed to
	// each shard — the observed placement balance in request (rather than
	// resident-key) terms, reported as Stats().Shards. Nil with
	// WithoutMetrics.
	routedOps   []obs.Counter
	routedBatch []obs.Counter
}

// initRouting allocates the per-shard routing counters unless metrics are
// disabled. Called by every constructor after the placement is resolved.
func (s *Sharded) initRouting(cfg config) {
	if cfg.core.DisableMetrics {
		return
	}
	s.routedOps = make([]obs.Counter, s.place.Shards())
	s.routedBatch = make([]obs.Counter, s.place.Shards())
}

// DefaultShards is the shard count used when none of the sharding options is
// given.
const DefaultShards = 4

// shardConfig carries the sharding options until a constructor resolves them
// into a placement.
type shardConfig struct {
	n       int
	weights []float64
	splits  []int64
}

// specified reports whether the caller expressed any topology at all —
// OpenSharded adopts the on-disk manifest when it did not.
func (sc shardConfig) specified() bool {
	return sc.n != 0 || sc.weights != nil || sc.splits != nil
}

// WithShards shards the store across n equally weighted shards (straw2
// placement). Only the Sharded constructors accept this option.
func WithShards(n int) Option {
	return func(c *config) { c.shardOpt("WithShards"); c.shard.n = n }
}

// WithShardWeights shards the store across len(weights) shards, shard i
// receiving keys in proportion to weights[i] (straw2 placement). All weights
// must be positive and finite.
func WithShardWeights(weights []float64) Option {
	return func(c *config) {
		c.shardOpt("WithShardWeights")
		c.shard.weights = append([]float64(nil), weights...)
	}
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
	if sc.weights != nil && sc.splits != nil {
		return nil, none, errors.New("pmago: WithShardWeights and WithRangeSplits are mutually exclusive")
	}
	if sc.n < 0 {
		return nil, none, fmt.Errorf("pmago: shard count %d", sc.n)
	}
	switch {
	case sc.splits != nil:
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
	default:
		weights := sc.weights
		if weights == nil {
			n := sc.n
			if n == 0 {
				n = DefaultShards
			}
			weights = make([]float64, n)
			for i := range weights {
				weights[i] = 1
			}
		} else if sc.n != 0 && sc.n != len(weights) {
			return nil, none, fmt.Errorf("pmago: WithShards(%d) conflicts with %d shard weights", sc.n, len(weights))
		}
		p, err := placement.NewStraw2(weights)
		if err != nil {
			return nil, none, err
		}
		return p, persist.ShardManifest{
			Version:   1,
			Shards:    p.Shards(),
			Placement: persist.PlacementStraw2,
			Weights:   append([]float64(nil), weights...),
		}, nil
	}
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
// (WithShards, WithShardWeights, WithRangeSplits) pick the topology —
// DefaultShards equal-weight shards when none is given; every other
// in-memory option applies to each shard as it does in New. Durability
// options are rejected with an error (use OpenSharded).
func NewSharded(opts ...Option) (*Sharded, error) {
	cfg, err := resolveOptions("NewSharded", opts, false, true)
	if err != nil {
		return nil, err
	}
	place, _, err := cfg.shard.resolve()
	if err != nil {
		return nil, err
	}
	s := &Sharded{place: place, ordered: place.Ordered()}
	s.initRouting(cfg)
	for i := 0; i < place.Shards(); i++ {
		p, err := newPMA(cfg)
		if err != nil {
			s.closeAll()
			return nil, err
		}
		s.mems = append(s.mems, p)
		s.stores = append(s.stores, p)
	}
	return s, nil
}

// BulkLoadSharded creates an in-memory sharded store already containing the
// given pairs: the input is partitioned by placement and each shard is
// bulk-loaded concurrently, with BulkLoad's semantics per shard (unsorted
// input is sorted, duplicate keys collapse to their last occurrence).
func BulkLoadSharded(keys, vals []int64, opts ...Option) (*Sharded, error) {
	if len(keys) != len(vals) {
		return nil, fmt.Errorf("pmago: BulkLoadSharded: %d keys but %d vals", len(keys), len(vals))
	}
	cfg, err := resolveOptions("BulkLoadSharded", opts, false, true)
	if err != nil {
		return nil, err
	}
	place, _, err := cfg.shard.resolve()
	if err != nil {
		return nil, err
	}
	partK, partV, _ := partition(place, keys, vals)
	s := &Sharded{place: place, ordered: place.Ordered()}
	s.initRouting(cfg)
	s.mems = make([]*PMA, place.Shards())
	s.stores = make([]Store, place.Shards())
	err = eachShard(len(s.stores), func(i int) error {
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

	s := &Sharded{place: place, ordered: place.Ordered(), dir: dir, unlock: unlock}
	s.initRouting(cfg)
	s.dbs = make([]*DB, place.Shards())
	s.stores = make([]Store, place.Shards())
	err = eachShard(len(s.stores), func(i int) error {
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

// partition splits keys (and vals, when non-nil) into per-shard slices,
// preserving the caller's order within each shard so last-wins duplicate
// semantics survive the split. live lists the shards that received keys.
func partition(place placement.Placement, keys, vals []int64) (partK, partV [][]int64, live []int) {
	partK = make([][]int64, place.Shards())
	if vals != nil {
		partV = make([][]int64, place.Shards())
	}
	for i, k := range keys {
		sh := place.Shard(k)
		if len(partK[sh]) == 0 {
			live = append(live, sh)
		}
		partK[sh] = append(partK[sh], k)
		if vals != nil {
			partV[sh] = append(partV[sh], vals[i])
		}
	}
	return partK, partV, live
}

// eachShard runs fn(0) … fn(n-1) concurrently, one goroutine per index, waits
// for all of them and joins their errors. A single index runs inline.
func eachShard(n int, fn func(i int) error) error {
	if n == 1 {
		return fn(0)
	}
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = fn(i)
		}(i)
	}
	wg.Wait()
	return errors.Join(errs...)
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
	i := s.place.Shard(k)
	if s.routedOps != nil {
		s.routedOps[i].Inc()
	}
	s.stores[i].Put(k, v)
}

// Get returns the value stored under k.
func (s *Sharded) Get(k int64) (int64, bool) {
	s.checkOpen()
	i := s.place.Shard(k)
	if s.routedOps != nil {
		s.routedOps[i].Inc()
	}
	return s.stores[i].Get(k)
}

// Delete removes k, reporting whether an element was removed.
func (s *Sharded) Delete(k int64) bool {
	s.checkOpen()
	i := s.place.Shard(k)
	if s.routedOps != nil {
		s.routedOps[i].Inc()
	}
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
	if len(keys) != len(vals) {
		panic(fmt.Sprintf("pmago: PutBatch: %d keys but %d vals", len(keys), len(vals)))
	}
	partK, partV, live := partition(s.place, keys, vals)
	eachShard(len(live), func(j int) error {
		i := live[j]
		if s.routedBatch != nil {
			s.routedBatch[i].Add(uint64(len(partK[i])))
		}
		s.stores[i].PutBatch(partK[i], partV[i])
		return nil
	})
}

// DeleteBatch removes all given keys, partitioned and applied per shard like
// PutBatch, and returns the exact total number of elements removed (shards
// hold disjoint key sets, so per-shard exact counts sum exactly).
func (s *Sharded) DeleteBatch(keys []int64) int {
	s.checkOpen()
	partK, _, live := partition(s.place, keys, nil)
	var total atomic.Int64
	eachShard(len(live), func(j int) error {
		i := live[j]
		if s.routedBatch != nil {
			s.routedBatch[i].Add(uint64(len(partK[i])))
		}
		total.Add(int64(s.stores[i].DeleteBatch(partK[i])))
		return nil
	})
	return int(total.Load())
}

// Flush applies every pending combined update and deferred batch on every
// shard.
func (s *Sharded) Flush() {
	s.checkOpen()
	eachShard(len(s.stores), func(i int) error {
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
	if s.routedOps != nil {
		t.Shards = make([]obs.ShardStats, len(s.stores))
		for i := range t.Shards {
			t.Shards[i] = obs.ShardStats{
				Ops:       s.routedOps[i].Load(),
				BatchKeys: s.routedBatch[i].Load(),
			}
		}
	}
	return t
}

// Validate checks every shard's structural invariants and that every stored
// key resides on the shard the placement routes it to. Like PMA.Validate it
// must run without concurrent updates.
func (s *Sharded) Validate() error {
	s.checkOpen()
	return eachShard(len(s.stores), func(i int) (err error) {
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
	return eachShard(len(s.dbs), func(i int) error { return s.dbs[i].Sync() })
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
	return eachShard(len(s.dbs), func(i int) error { return s.dbs[i].Snapshot() })
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
	err := eachShard(len(s.stores), func(i int) error {
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
// ascending key order until fn returns false. Under range placement the
// shards are walked sequentially (shard order is key order); under straw2
// the per-shard streams — each individually ascending — are merged with a
// k-way heap. Either way fn inherits PMA.Scan's callback freedom: it runs on
// copied-out chunks with no latch held and may call update operations of the
// same store. Chunk atomicity is per shard; there is no cross-shard snapshot
// (a concurrent cross-shard batch may be visible on one shard and not yet on
// another).
func (s *Sharded) Scan(lo, hi int64, fn func(k, v int64) bool) {
	s.checkOpen()
	if len(s.stores) == 1 {
		s.stores[0].Scan(lo, hi, fn)
		return
	}
	if s.ordered {
		stopped := false
		for _, st := range s.stores {
			st.Scan(lo, hi, func(k, v int64) bool {
				if !fn(k, v) {
					stopped = true
					return false
				}
				return true
			})
			if stopped {
				return
			}
		}
		return
	}
	s.mergeScan(lo, hi, fn)
}

// ScanAll visits every pair across shards in globally ascending key order.
func (s *Sharded) ScanAll(fn func(k, v int64) bool) {
	s.Scan(KeyMin+1, KeyMax-1, fn)
}

// scanBatchSize is how many pairs a shard's scan goroutine hands to the
// merge at a time. Batching amortizes channel synchronization to ~1/256 per
// pair; the price is up to scanBatchSize-1 pairs of extra lookahead into
// each shard beyond what fn has consumed.
const scanBatchSize = 256

type scanBatch struct{ keys, vals []int64 }

// shardCursor is one shard's position in the merge: the batch being drained
// and the channel the next batches arrive on.
type shardCursor struct {
	ch  chan scanBatch
	cur scanBatch
	pos int
}

func (c *shardCursor) key() int64 { return c.cur.keys[c.pos] }

// advance steps to the next pair, fetching the next batch when the current
// one is drained. Reports false when the shard's stream is exhausted.
func (c *shardCursor) advance() bool {
	c.pos++
	if c.pos < len(c.cur.keys) {
		return true
	}
	b, ok := <-c.ch
	if !ok {
		return false
	}
	c.cur, c.pos = b, 0
	return true
}

// cursorHeap is a min-heap of shard cursors by current key (keys are unique
// across shards, so no tie-break is needed).
type cursorHeap []*shardCursor

func (h cursorHeap) Len() int           { return len(h) }
func (h cursorHeap) Less(i, j int) bool { return h[i].key() < h[j].key() }
func (h cursorHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *cursorHeap) Push(x any)        { *h = append(*h, x.(*shardCursor)) }
func (h *cursorHeap) Pop() any          { old := *h; n := len(old); c := old[n-1]; *h = old[:n-1]; return c }

// mergeScan merges the per-shard scan streams. One goroutine per shard runs
// the shard's Scan, batching pairs into a channel; the caller's goroutine
// heap-merges the streams and runs fn. Producers select against done on
// every send, so an early stop (fn returning false) unblocks and terminates
// them before mergeScan returns — no goroutine outlives the call.
func (s *Sharded) mergeScan(lo, hi int64, fn func(k, v int64) bool) {
	done := make(chan struct{})
	var wg sync.WaitGroup
	defer func() {
		close(done)
		wg.Wait()
	}()

	cursors := make([]*shardCursor, len(s.stores))
	for i, st := range s.stores {
		c := &shardCursor{ch: make(chan scanBatch, 1)}
		cursors[i] = c
		wg.Add(1)
		go func(st Store, ch chan scanBatch) {
			defer wg.Done()
			defer close(ch)
			b := scanBatch{
				keys: make([]int64, 0, scanBatchSize),
				vals: make([]int64, 0, scanBatchSize),
			}
			send := func() bool {
				select {
				case ch <- b:
					// The merge owns the sent buffers now.
					b = scanBatch{
						keys: make([]int64, 0, scanBatchSize),
						vals: make([]int64, 0, scanBatchSize),
					}
					return true
				case <-done:
					return false
				}
			}
			aborted := false
			st.Scan(lo, hi, func(k, v int64) bool {
				b.keys = append(b.keys, k)
				b.vals = append(b.vals, v)
				if len(b.keys) == scanBatchSize {
					if !send() {
						aborted = true
						return false
					}
				}
				return true
			})
			if !aborted && len(b.keys) > 0 {
				send()
			}
		}(st, c.ch)
	}

	h := make(cursorHeap, 0, len(cursors))
	for _, c := range cursors {
		if b, ok := <-c.ch; ok {
			c.cur = b
			h = append(h, c)
		}
	}
	heap.Init(&h)
	for len(h) > 0 {
		c := h[0]
		if !fn(c.key(), c.cur.vals[c.pos]) {
			return
		}
		if c.advance() {
			heap.Fix(&h, 0)
		} else {
			heap.Pop(&h)
		}
	}
}
