package pmago

import (
	"fmt"
	"os"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"pmago/internal/core"
	"pmago/internal/obs"
	"pmago/internal/persist"
)

// inner aliases PMA so DB can embed it as an unexported field: the whole
// read surface (Get, Scan, Len, Stats, ...) is promoted, but the in-memory
// store cannot be reached from outside as db.PMA — whose Put would bypass
// the write-ordering lock and let an acknowledged write fall between a
// snapshot and the truncated WAL.
type inner = PMA

// DB is a durable PMA: the full PMA surface (reads and scans go straight to
// the embedded in-memory store) with every update written ahead to a log in
// the store's directory, checkpointable via Snapshot, and recovered by the
// next Open. All methods are safe for concurrent use.
//
// Durability contract, per fsync policy (selected with WithFsync):
//
//   - FsyncAlways (default): when Put/Delete/PutBatch/DeleteBatch returns,
//     the update is on stable storage; a crash at any point loses nothing
//     acknowledged. Concurrent writers share fsyncs through group commit.
//   - FsyncInterval: acknowledged updates reach stable storage within
//     50 ms. A process crash (panic, kill)
//     loses nothing — the records are already in the page cache through
//     the mapped segment (see persist.Log); an OS crash or power loss may
//     lose the last interval's acknowledgements.
//   - FsyncNone: same process-crash guarantee as FsyncInterval; stable
//     storage is reached whenever the OS writes back. The fastest policy.
//
// Under every policy recovery restores a prefix-consistent store: the log
// preserves append order, so no surviving write was acknowledged after a
// lost one. DB's update methods write the log: each rejects what the
// in-memory store rejects, with its panic, and skips a no-op batch, then
// appends under mu's shared hold and applies through the embedded PMA. Log
// order is not apply order, though: two updates of one key that overlap in
// time — from different goroutines, or a point update racing a batch that
// holds the key — can append in one order and apply in the other. The live
// store then keeps one value and recovery restores the other. ROADMAP.md
// item 1 tracks the fix: hold a key's append and apply together.
//
// The store's failure state is its log's: the first append, rotation or
// fsync that fails latches the log for good. The writer that met it panics,
// and a serving layer may recover that panic, so Err, Sync, Stats and Close
// keep reporting the failure from the log for health checks.
type DB struct {
	*inner
	dir string
	dur persist.Options
	log *persist.Log

	// mu orders writes against a snapshot's cut: every update holds it
	// shared across its append+apply, and Snapshot holds it exclusively
	// while draining the combining queues and rotating the log — after
	// which everything logged before the cut is fully visible to the
	// snapshot scan, and everything after it is replayed from the tail.
	mu sync.RWMutex

	snapMu     sync.Mutex // one snapshot at a time
	snapBytes  atomic.Int64
	opTick     atomic.Uint64
	compacting atomic.Bool
	closed     atomic.Bool
	bg         sync.WaitGroup
	unlock     func() // releases the directory flock

	// ckpt counts checkpoints (the WAL's metrics live in the log);
	// recovery is written once by Open before the DB is shared.
	ckpt     obs.CheckpointMetrics
	recovery obs.RecoverySnapshot
}

// Open opens (creating it if necessary) a durable PMA rooted at dir.
// Recovery runs first and is one bulk load: the newest checksum-valid
// snapshot is read, the write-ahead-log tail after it is read (truncating a
// torn final record if a crash cut an append short), each key's last update
// in the tail is merged into the snapshot's sorted pairs, and the result is
// bulk-loaded in one pass. In-memory options (mode, geometry, ...) apply as
// in New; WithFsync and WithCompactRatio tune the durability layer.
// Topology options (WithShards, ...) are rejected with an error — use
// OpenSharded. A directory is owned by at most one open DB at a time,
// enforced with an advisory flock (on unix): a second Open fails instead of
// corrupting the live owner's files.
func Open(dir string, opts ...Option) (*DB, error) {
	cfg, err := resolveOptions("Open", opts, true, false)
	if err != nil {
		return nil, err
	}
	return openDB(dir, cfg)
}

// openDB builds a DB from a resolved config — the shared back end of Open
// and the per-shard loop of OpenSharded (which consumes the topology options
// itself and must not re-trigger their rejection).
func openDB(dir string, cfg config) (*DB, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	unlock, err := persist.LockDir(dir)
	if err != nil {
		return nil, err
	}
	rec, err := persist.Recover(dir)
	if err != nil {
		unlock()
		return nil, err
	}
	t0 := time.Now()
	c, err := core.BulkLoad(cfg.core, rec.Keys, rec.Vals)
	if err != nil {
		unlock()
		return nil, err
	}
	snapLoad := rec.SnapshotLoad + time.Since(t0)
	log, err := persist.OpenLog(dir, rec.NextSeq, cfg.dur)
	if err != nil {
		c.Close()
		unlock()
		return nil, err
	}
	db := &DB{inner: &PMA{c: c}, dir: dir, dur: cfg.dur, log: log, unlock: unlock}
	db.recovery = obs.RecoverySnapshot{
		Recoveries:        1,
		SnapshotPairs:     uint64(rec.SnapshotPairs),
		SnapshotBytes:     uint64(rec.SnapshotBytes),
		SnapshotLoadNanos: uint64(snapLoad),
		WALRecords:        uint64(rec.WALRecords),
		WALReplayNanos:    uint64(rec.WALReplay),
	}
	db.snapBytes.Store(rec.SnapshotBytes)
	return db, nil
}

// logErr turns a WAL append failure into a panic: the store cannot keep its
// durability promise once the log stops accepting records, and the update
// signatures (inherited from PMA) have no error channel. Disk-full and
// similar conditions surface here. The log has latched the failure before
// the append returned it, so even if a serving layer recovers the panic,
// Err/Sync/Close/Stats keep reporting the store as sick.
func (db *DB) logErr(err error) {
	if err != nil {
		panic(fmt.Sprintf("pmago: write-ahead log append failed: %v", err))
	}
	db.maybeCompact()
}

// Err reports the failure that stopped the store's log — a failed append,
// rotation or fsync — or nil while the store is healthy and after a clean
// Close. Once non-nil it stays non-nil: no later write can be considered
// durable.
func (db *DB) Err() error { return db.log.Err() }

// Put inserts or replaces k/v durably (see DB for per-policy guarantees).
func (db *DB) Put(k, v int64) {
	db.checkOpen()
	if err := core.CheckKey(k); err != nil {
		panic(err.Error())
	}
	db.mu.RLock()
	defer db.mu.RUnlock()
	db.logErr(db.log.AppendPut(k, v))
	db.inner.Put(k, v)
}

// Delete removes k durably.
func (db *DB) Delete(k int64) bool {
	db.checkOpen()
	if core.CheckKey(k) != nil {
		return false
	}
	db.mu.RLock()
	defer db.mu.RUnlock()
	db.logErr(db.log.AppendDelete(k))
	return db.inner.Delete(k)
}

// PutBatch upserts the batch durably, logging it as a single record.
func (db *DB) PutBatch(keys, vals []int64) {
	db.checkOpen()
	if err := core.CheckBatch(keys, vals); err != nil {
		panic(err.Error())
	}
	if len(keys) == 0 {
		return
	}
	db.mu.RLock()
	defer db.mu.RUnlock()
	db.logErr(db.log.AppendPutBatch(keys, vals))
	db.inner.PutBatch(keys, vals)
}

// DeleteBatch removes the keys durably, logging them as a single record.
func (db *DB) DeleteBatch(keys []int64) int {
	db.checkOpen()
	if !slices.ContainsFunc(keys, func(k int64) bool { return core.CheckKey(k) == nil }) {
		return 0
	}
	db.mu.RLock()
	defer db.mu.RUnlock()
	db.logErr(db.log.AppendDeleteBatch(keys))
	return db.inner.DeleteBatch(keys)
}

// Sync forces every acknowledged write to stable storage now, whatever the
// fsync policy — a durability barrier for FsyncInterval/FsyncNone stores.
// A store whose log failed earlier (see Err) reports that failure from every
// Sync: the barrier cannot be provided any more.
func (db *DB) Sync() error {
	db.checkOpen()
	return db.log.Sync()
}

// Snapshot checkpoints the store: a consistent full scan is streamed into a
// delta-encoded, checksummed snapshot file, after which the WAL segments it
// covers (and older snapshots) are deleted. Concurrent reads and writes
// proceed during the scan — only the cut itself briefly quiesces writers.
// On return, recovery cost is reset to the snapshot plus the live WAL tail.
func (db *DB) Snapshot() error {
	db.checkOpen()
	return db.snapshot(false)
}

// snapshot checkpoints the store; auto marks the WAL-growth-triggered
// background compactions apart from explicit Snapshot calls in the
// checkpoint metrics.
func (db *DB) snapshot(auto bool) error {
	db.snapMu.Lock()
	defer db.snapMu.Unlock()
	t0 := time.Now()

	// The cut: block writers, drain every combining queue so all updates
	// logged so far are applied (and thus visible to the scan below),
	// then start a fresh WAL segment. Everything before segment `cut` is
	// covered by the snapshot; everything from it on will be replayed.
	db.mu.Lock()
	db.inner.Flush()
	cut, err := db.log.Rotate()
	db.mu.Unlock()
	if err != nil {
		return err
	}

	// The scan may observe writes from after the cut whose WAL records are
	// not yet on stable storage (FsyncInterval/FsyncNone). Sync the log
	// before the writer publishes the checkpoint: otherwise a power loss
	// could recover a state containing a later acknowledged write (captured
	// by the scan) while losing an earlier one that existed only in the
	// unsynced tail — breaking the prefix-consistency guarantee this file
	// documents. Syncing after the scan covers every record the scan could
	// have seen, and a sync failure aborts the snapshot before the rename,
	// so a checkpoint never supersedes WAL records that are not durable.
	count, size, err := persist.WriteSnapshot(db.dir, cut, func(yield func(k, v int64) bool) error {
		db.inner.ScanAll(yield)
		return db.log.Sync()
	}, db.dur)
	if err != nil {
		return err
	}
	db.snapBytes.Store(size)
	// The snapshot is durable: its WAL prefix and older snapshots are
	// garbage now.
	db.log.TruncateBefore(cut)
	persist.RemoveSnapshotsBefore(db.dir, cut)
	db.ckpt.Snapshots.Inc()
	if auto {
		db.ckpt.AutoCompactions.Inc()
	}
	db.ckpt.PairsWritten.Add(uint64(count))
	db.ckpt.BytesWritten.Add(uint64(size))
	db.ckpt.DurationNanos.ObserveDuration(time.Since(t0))
	return nil
}

// maybeCompact triggers a background snapshot when the live WAL has grown
// past CompactRatio × the last snapshot (or past CompactMinBytes while no
// snapshot exists). Checked every 64th append to keep it off the hot path.
func (db *DB) maybeCompact() {
	if db.dur.CompactRatio <= 0 || db.opTick.Add(1)&63 != 0 {
		return
	}
	threshold := db.dur.CompactMinBytes
	if sb := db.snapBytes.Load(); sb > 0 {
		if t := int64(db.dur.CompactRatio * float64(sb)); t > threshold {
			threshold = t
		}
	}
	if db.log.LiveBytes() <= threshold {
		return
	}
	if db.compacting.Swap(true) {
		return
	}
	db.bg.Add(1)
	go func() {
		defer db.bg.Done()
		defer db.compacting.Store(false)
		if db.closed.Load() {
			return
		}
		_ = db.snapshot(true) // failure keeps the WAL; the next trigger retries
	}()
}

// Stats returns the full durable metrics snapshot: the in-memory core
// sections plus WAL, checkpoint and recovery. Overrides the promoted PMA
// method so the durable sections are filled whether the DB is used directly
// or through a Sharded store.
func (db *DB) Stats() Stats {
	s := db.inner.Stats()
	s.Durable = true
	s.WAL = db.log.Metrics().Snapshot()
	s.Checkpoint = db.ckpt.Snapshot()
	s.Recovery = db.recovery
	if err := db.log.Err(); err != nil {
		s.Err = err.Error()
	}
	return s
}

// Validate extends the in-memory structural validation with the durable
// layer's metric invariants, so instrumentation bugs fail the durability
// test suites too.
func (db *DB) Validate() error {
	if err := db.inner.Validate(); err != nil {
		return err
	}
	// Group-commit deltas advance towards the appended-record count and
	// never past it, and appends are counted before any fsync can cover
	// them.
	w := db.log.Metrics().Snapshot()
	if w.GroupCommitRecords.Sum > w.Appends {
		return fmt.Errorf("stats: group-commit record sum %d > wal appends %d", w.GroupCommitRecords.Sum, w.Appends)
	}
	// A checkpoint is counted before its duration is observed.
	timed := db.ckpt.DurationNanos.Snapshot().Count
	if snaps := db.ckpt.Snapshots.Load(); timed > snaps {
		return fmt.Errorf("stats: checkpoint durations %d > checkpoints %d", timed, snaps)
	}
	return nil
}

// WALBytes reports the live write-ahead-log size — the replay cost a crash
// would incur right now (diagnostics and tests).
func (db *DB) WALBytes() int64 { return db.log.LiveBytes() }

// Dir returns the store's directory.
func (db *DB) Dir() string { return db.dir }

// Close flushes pending in-memory work, forces the log to stable storage
// and releases all resources. A WAL failure latched earlier (see Err) is
// returned too — a caller treating a nil Close as "everything acknowledged
// is durable" must see the broken promise. Close is idempotent; any other
// method panics afterwards. As with PMA.Close, concurrent operations must
// have completed.
func (db *DB) Close() error {
	if db.closed.Swap(true) {
		return nil
	}
	db.bg.Wait()
	db.inner.Close() // applies pending combined updates (already logged)
	err := db.log.Close()
	db.unlock()
	return err
}

func (db *DB) checkOpen() {
	if db.closed.Load() {
		panic("pmago: use after Close")
	}
}
