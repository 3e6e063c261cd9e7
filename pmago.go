package pmago

import (
	"fmt"
	"math"
	"time"

	"pmago/internal/core"
	"pmago/internal/persist"
)

// Reserved sentinel keys: the store holds any int64 key except these two,
// which serve as the -inf/+inf fence keys internally.
const (
	KeyMin = core.KeyMin
	KeyMax = core.KeyMax
)

// Mode selects how concurrent updates are processed (Section 3.5 of the
// paper).
type Mode = core.Mode

const (
	// ModeSync applies every update synchronously under its gate latch.
	ModeSync = core.ModeSync
	// ModeOneByOne combines contended updates and drains them in order,
	// retaining adaptive rebalancing.
	ModeOneByOne = core.ModeOneByOne
	// ModeBatch combines contended updates and applies them in batches
	// (deletes first, inserts merged into one rebalance), deferring
	// global rebalances by the configured TDelay.
	ModeBatch = core.ModeBatch
)

// FsyncPolicy selects when WAL appends of a durable store (Open) reach
// stable storage; see the constants for the crash guarantee each buys.
type FsyncPolicy = persist.FsyncPolicy

const (
	// FsyncAlways makes every acknowledged write durable before the call
	// returns (concurrent writers share fsyncs via group commit).
	FsyncAlways = persist.FsyncAlways
	// FsyncInterval fsyncs on a timer: a power loss costs at most the
	// last interval; a mere process crash costs nothing.
	FsyncInterval = persist.FsyncInterval
	// FsyncNone leaves write-back to the OS: fastest, survives process
	// crashes, no power-loss guarantee.
	FsyncNone = persist.FsyncNone
)

// config bundles the in-memory PMA configuration with the durability
// options consumed only by the durable constructors (Open, OpenSharded) and
// the sharding options consumed only by the Sharded constructors. durOpts
// and shardOpts record the names of the group-specific options a caller
// applied, so a constructor the option does not apply to can reject it by
// name instead of silently dropping it.
type config struct {
	core      core.Config
	dur       persist.Options
	shard     shardConfig
	durOpts   []string
	shardOpts []string
}

func defaultConfig() config {
	return config{core: core.DefaultConfig(), dur: persist.DefaultOptions()}
}

// resolve applies the options to a default config and rejects the groups the
// calling constructor does not consume: misapplied options are an error, not
// a silent no-op (a WithFsync quietly dropped by New would read as a
// durability guarantee the store never had).
func resolveOptions(constructor string, opts []Option, allowDur, allowShard bool) (config, error) {
	cfg := defaultConfig()
	for _, o := range opts {
		o(&cfg)
	}
	if !allowDur && len(cfg.durOpts) > 0 {
		return cfg, fmt.Errorf("pmago: %s: option %s applies only to durable stores (Open/OpenSharded)",
			constructor, cfg.durOpts[0])
	}
	if !allowShard && len(cfg.shardOpts) > 0 {
		return cfg, fmt.Errorf("pmago: %s: option %s applies only to sharded stores (NewSharded/BulkLoadSharded/OpenSharded)",
			constructor, cfg.shardOpts[0])
	}
	if p := cfg.dur.Fsync; p < FsyncAlways || p > FsyncNone {
		return cfg, fmt.Errorf("pmago: %s: unknown fsync policy %v", constructor, p)
	}
	if r := cfg.dur.CompactRatio; math.IsNaN(r) || math.IsInf(r, 0) {
		return cfg, fmt.Errorf("pmago: %s: WithCompactRatio(%v) is not finite", constructor, r)
	}
	return cfg, nil
}

// Option customises a PMA.
type Option func(*config)

// WithMode selects the update-processing scheme.
func WithMode(m Mode) Option { return func(c *config) { c.core.Mode = m } }

// WithSegmentCapacity sets the slots per segment (power of two, >= 4; the
// paper uses 128 and evaluates 256 as an ablation).
func WithSegmentCapacity(b int) Option { return func(c *config) { c.core.SegmentCapacity = b } }

// WithTDelay sets the minimum delay between global rebalances of one gate
// in ModeBatch (paper: 100 ms, evaluated 0-800 ms).
func WithTDelay(d time.Duration) Option { return func(c *config) { c.core.TDelay = d } }

// WithCompressedChunks stores each segment as a delta-encoded block instead
// of fixed 16-byte slots: several times less memory for dense key runs, at
// the cost of a bounded per-segment decode on reads and a re-encode on
// writes. Semantics are identical; snapshots written by compressed and
// uncompressed stores are interchangeable. Applies to every constructor
// (per shard under WithShards).
func WithCompressedChunks() Option { return func(c *config) { c.core.CompressedChunks = true } }

// durOpt marks c as carrying the named durability-only option; the
// in-memory constructors reject such configs instead of dropping the option.
func (c *config) durOpt(name string) { c.durOpts = append(c.durOpts, name) }

// shardOpt marks c as carrying the named topology option; the unsharded
// constructors reject such configs instead of dropping the option.
func (c *config) shardOpt(name string) { c.shardOpts = append(c.shardOpts, name) }

// WithFsync selects the WAL fsync policy of a durable store (default
// FsyncAlways; FsyncInterval syncs every 50 ms). Only the durable
// constructors accept it, and they reject a policy that is not one of the
// three constants.
func WithFsync(p FsyncPolicy) Option {
	return func(c *config) { c.durOpt("WithFsync"); c.dur.Fsync = p }
}

// WithCompactRatio makes a durable store snapshot itself automatically when
// the live WAL exceeds ratio × the last snapshot's size, and 8 MiB in any
// case (default 4; zero or negative disables auto-compaction — Snapshot can
// still be called). A NaN or infinite ratio is rejected.
func WithCompactRatio(r float64) Option {
	return func(c *config) { c.durOpt("WithCompactRatio"); c.dur.CompactRatio = r }
}

// PMA is a concurrent packed memory array mapping int64 keys to int64
// values in sorted key order. All methods are safe for concurrent use by any
// number of goroutines. A PMA owns service goroutines; Close releases them.
type PMA struct {
	c *core.PMA
}

// New creates an empty PMA with the paper's default configuration modified
// by the given options. Durability options (WithFsync, ...) and topology
// options (WithShards, ...) are rejected with an error — they would
// otherwise be silently dropped; use Open or the Sharded constructors.
func New(opts ...Option) (*PMA, error) {
	cfg, err := resolveOptions("New", opts, false, false)
	if err != nil {
		return nil, err
	}
	c, err := core.New(cfg.core)
	if err != nil {
		return nil, err
	}
	return &PMA{c: c}, nil
}

// BulkLoad creates a PMA already containing the given pairs, laying the
// sorted data out directly at the array's target density in a single pass
// instead of len(keys) point inserts — the fast path for loading a graph,
// restoring a snapshot, or backfilling telemetry. Unsorted input is sorted
// first; duplicate keys collapse to their last occurrence, matching the
// effect of sequential Puts. The returned PMA must be Closed like any other.
func BulkLoad(keys, vals []int64, opts ...Option) (*PMA, error) {
	cfg, err := resolveOptions("BulkLoad", opts, false, false)
	if err != nil {
		return nil, err
	}
	return bulkLoadPMA(cfg, keys, vals)
}

// bulkLoadPMA is BulkLoad from a resolved config — also the per-shard
// loader of NewSharded and BulkLoadSharded, which consume the topology
// options themselves and must not re-trigger their rejection.
func bulkLoadPMA(cfg config, keys, vals []int64) (*PMA, error) {
	c, err := core.BulkLoad(cfg.core, keys, vals)
	if err != nil {
		return nil, err
	}
	return &PMA{c: c}, nil
}

// Close stops the rebalancer and garbage-collector goroutines, applying any
// still-pending combined updates first. Close is idempotent; any other use
// of a closed PMA panics with "pmago: use after Close".
func (p *PMA) Close() { p.c.Close() }

// Put inserts k/v, replacing the value if k is present. In the asynchronous
// modes the update may be deferred under contention: it is applied before
// Flush returns, but an immediately following Get may not observe it yet.
func (p *PMA) Put(k, v int64) { p.c.Put(k, v) }

// Get returns the value stored under k.
func (p *PMA) Get(k int64) (int64, bool) { return p.c.Get(k) }

// Delete removes k, reporting whether an element was removed (deferred
// deletes report true optimistically; see Put).
func (p *PMA) Delete(k int64) bool { return p.c.Delete(k) }

// PutBatch upserts all keys[i]/vals[i] pairs as one sorted batch: the batch
// is partitioned along the gate fence keys and each affected gate is latched
// and merged exactly once, which is substantially cheaper than the
// equivalent point-Put loop. Duplicate keys collapse to their last
// occurrence. The whole batch is applied when PutBatch returns, but it is
// not atomic: a concurrent scan may observe some gates with their run
// applied and others without, and concurrent updates to the same key
// through other calls are unordered with respect to the batch (as with
// combined updates; see Put). Panics on sentinel keys or mismatched slice
// lengths.
func (p *PMA) PutBatch(keys, vals []int64) { p.c.PutBatch(keys, vals) }

// DeleteBatch removes all given keys as one sorted batch, returning the
// exact number of elements removed. Duplicates and sentinel keys are
// ignored.
func (p *PMA) DeleteBatch(keys []int64) int { return p.c.DeleteBatch(keys) }

// Scan visits all pairs with lo <= key <= hi in ascending key order until
// fn returns false. Each chunk is copied out under validation (optimistic
// version check, or the shared latch under sustained writer pressure) and fn
// runs on the copy with no latch held, so fn may call update operations of
// the same PMA — Put, Delete, the batch calls, Flush — and may be
// arbitrarily slow without blocking writers. The scan observes each chunk
// atomically and the chunks in ascending fence order; updates applied to a
// chunk after it was copied are not reflected in that chunk's callbacks.
func (p *PMA) Scan(lo, hi int64, fn func(k, v int64) bool) { p.c.Scan(lo, hi, fn) }

// ScanAll visits every pair in ascending key order.
func (p *PMA) ScanAll(fn func(k, v int64) bool) { p.c.ScanAll(fn) }

// Len returns the number of stored elements (excluding not-yet-applied
// combined updates; Flush first for an exact count).
func (p *PMA) Len() int { return p.c.Len() }

// Capacity returns the current number of slots; Len()/Capacity() is the
// array's fill factor, kept within the calibrator-tree thresholds.
func (p *PMA) Capacity() int { return p.c.Capacity() }

// Flush applies every pending combined update and deferred batch. After a
// quiescent Flush, reads observe all previously accepted updates.
func (p *PMA) Flush() { p.c.Flush() }

// Stats returns the metrics snapshot: seqlock read-path counters, combining
// and rebalancer activity. The durable sections stay zero for an in-memory
// store.
func (p *PMA) Stats() Stats { return Stats{CoreSnapshot: p.c.Stats()} }

// Validate checks every structural invariant; it is meant for tests and
// debugging and must run without concurrent updates.
func (p *PMA) Validate() error { return p.c.Validate() }
