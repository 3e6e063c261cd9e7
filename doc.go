// Package pmago is a Go implementation of the concurrent Packed Memory
// Array of "Fast Concurrent Reads and Updates with PMAs" (De Leo & Boncz,
// GRADES-NDA 2019): a sorted key/value store over a gapped dense array that
// serves range scans at sequential-memory speed while supporting concurrent
// updates.
//
// # Architecture
//
// The sparse array is split into fixed-size chunks, each guarded by a gate —
// a read-write latch bundled with the chunk's fence keys (Section 3.1-3.2).
// A static B+-tree index routes every operation to its gate without
// synchronisation; fence-key verification absorbs racy index reads.
// Readers normally bypass the latch entirely: every gate carries a seqlock
// version counter, and Get and Scan validate an unsynchronised chunk read
// against it, taking the shared latch only after repeated validation
// failures on a writer-heavy gate — so reads proceed without touching any
// mutex and never serialize behind writers. Scan copies each validated
// chunk out and runs the callback on the copy with no latch held: callbacks
// may call update operations of the same PMA and may be slow without
// blocking writers. Rebalances that would span several gates are delegated
// to a centralised rebalancer service (one master goroutine, Section 3.3;
// the master fans a window out over up to Workers goroutines, GOMAXPROCS
// capped at 8, which also fill BulkLoad's chunks): a writer releases its
// latch before it submits, and only the master ever holds more than one
// latch, so none can deadlock.
// Resizes rebuild the whole array behind an atomic state pointer (Section
// 3.4), and contended writers are decoupled through per-gate combining
// queues with one-by-one or batch processing (Section 3.5): an uncontended
// writer updates in place; the queue is for writers that arrive while the
// latch is held.
//
// Section 3.4 frees a retired state through epochs, so that no reader still
// routing through it finds its memory reused. Here Go's garbage collector
// and the seqlock's version validation do the epochs' job. Nothing reuses a
// chunk buffer: rebalances and resizes merge the window with its inserts
// into scratch and fill fresh buffers from it, which an O(1) swap installs
// (Section 3.1's rewiring, though not its single copy), and a retired
// buffer is never reissued or written again. A racing reader still copying
// from a retired gate validates a version under which the gate is marked
// invalid, discards what it read and restarts on the new state; the garbage
// collector frees the retired state once no reader holds it. A chunk buffer
// the collector cannot free — file-backed or off-heap — would bring epochs
// back.
//
// # Point and batch updates
//
// Put, Get, Delete and Scan are the paper's one-key-at-a-time surface.
// PutBatch and DeleteBatch amortise the routing cost (index lookup, gate
// latch) over an entire sorted batch, latching each affected gate exactly
// once and merging that gate's run in a single pass; BulkLoad constructs a
// pre-populated PMA directly at the array's target density in one pass over
// the sorted data. Use them for bulk ingest — graph loading, snapshot
// restore, telemetry backfill — where they beat point-update loops by large
// factors (the ingest phase of the benchmark in benchmark/ times them).
//
// # Durability
//
// Open turns the in-memory PMA into a durable store: every update is
// appended to a write-ahead log in the store's directory before it is
// applied, Snapshot checkpoints a consistent scan into a delta-encoded,
// checksummed file, and the next Open recovers with one bulk load: the
// WAL tail (less a record torn by a crash mid-append, which is truncated)
// is folded into the newest valid snapshot's sorted pairs (its frames
// checksummed and decoded in parallel), each key taking its last logged
// update, and the result is loaded in one pass, its chunks filled in
// parallel. Which acknowledged writes survive a crash depends on the fsync
// policy (WithFsync):
//
//   - FsyncAlways (default): every write that returned is on stable
//     storage — a crash loses nothing acknowledged. Concurrent writers
//     share fsyncs through group commit.
//   - FsyncInterval: writes become durable within 50 ms. A process crash loses nothing (the records are in
//     the kernel already); power loss can cost the last interval.
//   - FsyncNone: durability is left to the OS write-back. Fastest; the
//     same process-crash guarantee, none against power loss.
//
// The log preserves append order, so recovery always yields a
// prefix-consistent store: no surviving write was acknowledged after a
// lost one. WAL segments covered by a snapshot are deleted; by default the
// store re-snapshots itself when the log grows past WithCompactRatio times
// the last snapshot, keeping restart time bounded.
//
// # Sharding
//
// Sharded routes one key space across N independent PMA shards, created
// in-memory with NewSharded/BulkLoadSharded or durably with OpenSharded.
// Every structure that serializes writers — combining queues, the
// rebalancer master, WAL group commit — exists once per shard, so writers
// on different shards do not contend for them. Whether that raises write
// throughput depends on cores and workload: each call also pays for
// routing, and a batch for its split across shards and the fan-out.
//
// Keys are placed by one of two schemes, fixed at creation:
//
//   - Weighted (default; WithShards): straw2-style placement — each key
//     draws a weighted pseudo-random straw per shard and lands on the
//     argmax. WithShards weights every shard equally (a manifest may
//     record other weights, and a reopen keeps them). Spread follows the
//     weights for any key distribution, and growing the topology only moves keys onto the new
//     shard. A scan merges per-shard cursors on the caller's goroutine:
//     each copies a run of whole chunks out of its shard, each chunk by the
//     one consistent read the shard's own Scan makes (at least 64 pairs at
//     first, doubling to 1024; a run ends on a chunk boundary, so a shard is
//     read at most 1024 pairs plus one chunk ahead of the callback), and
//     resumes at the next chunk's lower fence, so no chunk is read twice.
//     The next pair is picked without a branch per shard.
//   - Range (WithRangeSplits): shard i owns one contiguous key range.
//     Shard order is key order, so scans walk shards sequentially with no
//     merge; the caller owns balance.
//
// A durable sharded store keeps each shard's WAL and snapshots in its own
// subdirectory under one parent, with a parent-level flock and a manifest
// (MANIFEST.json) recording the topology. The manifest is authoritative on
// reopen: OpenSharded with no sharding options adopts it, options that
// contradict it are an error (routing with a different placement would make
// existing keys unreachable), and a missing manifest over existing shard
// directories — or a manifest whose shard directory is missing — refuses to
// open. Per-shard recovery runs in parallel.
//
// Operation semantics match PMA/DB on the shard that owns the key; what
// sharding changes is atomicity ACROSS shards. A cross-shard
// PutBatch/DeleteBatch is split per shard and applied as one batch per
// shard concurrently: a concurrent scan can observe one shard's portion
// without another's, and after a crash each shard independently recovers
// its own acknowledged-durable prefix (under FsyncAlways every acknowledged
// cross-shard batch is durable on all shards; prefix consistency holds per
// shard, not globally). Scan returns one globally ascending stream and
// keeps the latch-free callback contract — the callback may update the same
// store — with chunk atomicity per shard and no cross-shard snapshot.
//
// # Compressed chunks
//
// WithCompressedChunks selects a CPMA-style in-memory representation:
// each PMA segment stores its pairs as one delta block (varint key gaps
// and zigzag values, the snapshot wire format) instead of fixed 16-byte
// slots, cutting the live heap of dense key runs by several times — the
// benchmark in benchmark/ reports heap bytes per pair for its mem and
// mem-compressed workloads side by side. Semantics are unchanged: the
// same API, the same concurrency contract (optimistic readers decode
// through a hardened decoder and validate against the seqlock version as
// before), and the same snapshot format on disk, so a directory written
// compressed reopens uncompressed and vice versa.
//
// Both layouts run the same gate, batch and rebalancer code. Its
// decisions read only metadata that stays uncompressed in every store —
// per-segment cardinalities and minima, the chunk cardinality, the fence
// keys — so the same op sequence yields the same structure either way.
// The layout lives behind a small storage seam in internal/core: a view
// of one segment as sorted pairs (a zero-copy alias of the slots, or a
// block decoded into pooled scratch; a racy copy-out for the seqlock
// scans), "make this segment hold exactly these pairs" (nothing to do
// for an alias edited in place, one encode for a block), finding and
// editing one pair of a block without decoding it (a seek over the key
// gaps, an in-place byte splice that leaves the block exactly as an
// encode would), merging a sorted batch into a block the same way, and
// building and installing a fresh chunk for rebalances and BulkLoad.
// Scans, rebalances and batches that move pairs between segments decode
// and re-encode whole segments; Get, Put, Delete and a batch that fits
// the segments it lands in do not, and pay a walk over the segment's key
// gaps and a move or copy of its bytes instead (the README has the
// measured price table). BulkLoad gets faster (one encode pass rides the
// layout pass); a checkpoint scans the pairs as any store's does and
// writes the same file, so it pays the scan's decode. Enable it
// for memory-bound, scan- and ingest-heavy workloads with locally dense
// keys; leave it off when single-key latency dominates. The option is
// per store — under WithShards it applies to every shard.
//
// # Observability
//
// Every store variant is instrumented by default: Stats returns a typed
// snapshot (Stats/obs.Snapshot) covering the read path (optimistic seqlock
// serves vs latched fallbacks and probe retries), the combining queues
// (absorbed ops, drain-size histogram, deferred batches), the rebalancer
// (local/global/resize counts, duration histograms, and a sliding window of
// the exclusive holds writers wait behind), and — on durable stores — WAL
// activity (appends, fsync latency, group-commit batch sizes, rotations,
// waits for the log), checkpoints (counts, auto compactions, durations) and
// the recovery phase split.
// Each quantity is recorded by one instrument. Sharded stores merge the
// per-shard snapshots and add per-shard routing counters. Counter reads
// during concurrent operation are safe and monotonic per stripe but not a
// consistent cut; quiesce first for exact totals.
//
// Sliding-window histograms (internal/obs.Window) extend the same contract
// to tail latency: rebalance stalls, WAL append waits and fsync timings, the
// served request path and the client's RTT recording each keep a ring of
// bucketed sub-windows rotated on a coarse clock, so snapshots answer "p99
// over the trailing ~10s" instead of "since process start". A window takes
// its clock reading from the caller, which already holds one for the
// duration it records, and an append that finds the log uncontended records
// nothing and reads no clock at all. Window consistency mirrors the counters: each
// sub-window is monotonic under concurrent observes, but a snapshot is not a
// consistent cut — an observation whose goroutine stalls for about a whole
// interval can land in a newer lap or (rarely, bounded) be dropped, and the
// interpolated percentiles carry the log2 buckets' relative error. Served
// stores additionally expose per-request stage attribution (decode, queue,
// commit wait, apply, respond — stages that partition each request's
// handling time) and a slow-op flight recorder; see pmago/server.
//
// The snapshots obey documented cross-counter invariants, and Validate
// checks them live: latched Get serves never exceed recorded probe
// failures, combined (queue-absorbed) ops never exceed drained plus
// still-queued ops, the stall window never holds more than the global
// rebalances and resizes, and a durable store never times more checkpoints
// than it counts. Handler serves the same snapshot over HTTP — indented
// JSON on any path, Prometheus text exposition (version 0.0.4) on paths
// ending in "/metrics" — with zero dependencies.
//
// Every store counts, and there is no switch to turn metrics off, because
// their cost is small: hot paths increment striped, cache-line-padded
// counters with no allocation, and clock reads are confined to service
// goroutines (rebalancer, fsync, checkpoint), the served request path and
// appends that had to wait. Stats and Handler are the one channel out of the
// store: structural events — rebalances, resizes, checkpoints, recovery, a
// stalled fsync — are instruments to read, not callbacks, so no user code
// runs inside a store goroutine and none can deadlock one.
//
// # Serving
//
// The Store interface is the package's common surface: PMA, DB and Sharded
// all satisfy it (DurableStore adds the durability calls), so code can be
// written once against any backend. pmago/server exposes a Store over a
// framed binary TCP protocol with per-connection pipelining, pmago/client
// speaks it, and cmd/pmaserve is the ready-made binary.
//
// The server funnels every client's write requests through one committer,
// which coalesces whatever is concurrently in flight into a single
// consolidated PutBatch — one WAL record, one shared fsync. The
// acknowledgment contract: a response frame is queued only after the store
// call covering that request returned, so whatever durability the backend
// promises per call (e.g. FsyncAlways: on stable storage) holds per
// acknowledged request — a response never races ahead of its own
// durability. Ops coalesced into one commit are exactly the ones that were
// all unacknowledged when the drain began, so they are mutually concurrent
// and the batch is a legal serialization. Requests beyond the server's
// bounded in-flight windows are answered with an explicit busy status
// (clients see it as a retryable error), never buffered without bound.
//
// # Quick start
//
//	p, err := pmago.New()
//	if err != nil { ... }
//	defer p.Close()
//	p.Put(42, 1)
//	v, ok := p.Get(42)
//	p.PutBatch([]int64{1, 2, 3}, []int64{10, 20, 30})
//	p.Scan(0, 100, func(k, v int64) bool { ...; return true })
//
// Or durably, surviving restarts:
//
//	db, err := pmago.Open("/var/lib/myapp/pma", pmago.WithFsync(pmago.FsyncInterval))
//	if err != nil { ... }
//	defer db.Close()
//	db.Put(42, 1)         // appended to the WAL, then applied
//	_ = db.Snapshot()     // checkpoint now; truncates the log
//
// The zero-configuration store uses the paper's evaluation setup: 128-slot
// segments, 8 segments per gate, batch-combined asynchronous updates with a
// 100 ms rebalance delay. Use options to select the synchronous or
// one-by-one modes, or to retune the geometry. Options apply only to the
// constructors that can honor them: passing a durability option (WithFsync,
// WithCompactRatio, ...) to New, or a topology option (WithShards, ...) to
// Open, is an error naming the misapplied option — never a silent no-op. After Close, every data
// operation — Put, Get, Delete, Scan, Flush, the batch calls, and a DB's
// Snapshot and Sync — panics with "pmago: use after Close" (read-only
// accessors like Len and Stats still answer from the last state); Close
// itself is idempotent.
package pmago
