package obs

// The live metric sets. Each layer of the store owns one, allocated with
// the layer itself: core.PMA a *CoreMetrics, persist.Log a *WALMetrics,
// pmago.DB a *CheckpointMetrics.

// CoreMetrics instruments the in-memory PMA: the seqlock read path, the
// Section 3.5 combining queues, and the rebalancer.
type CoreMetrics struct {
	// Read path (read.go). A Get or Scan chunk is counted exactly once,
	// at its serve point: Optimistic when a seqlock-validated snapshot
	// was returned, Latched when the same read was made under the shared
	// latch (after the seqlock attempts all failed, or with a budget of
	// none). ProbeFails counts individual failed seqlock attempts, and a
	// latched read follows the whole budget of them.
	GetOptimistic        Counter
	GetLatched           Counter
	GetProbeFails        Counter
	ScanChunksOptimistic Counter
	ScanChunksLatched    Counter
	ScanProbeFails       Counter

	// Update combining (write.go, async.go). CombinedOps counts updates
	// absorbed into another writer's queue (the op never latched its
	// gate); DrainSize observes the ops taken per non-empty queue detach,
	// on every consumption path (active-writer drain rounds, rebalancer
	// pickups, resize absorption, Flush sweeps) — so, quiesced,
	// CombinedOps <= DrainSize.Sum + queued. An uncontended update is
	// applied in place and passes through no queue: it is not observed
	// (there is no 1 per lone Put or Delete). DeferredBatches counts
	// batches parked at the rebalancer by the tdelay rate limit.
	CombinedOps     Counter
	DeferredBatches Counter
	DrainSize       Histogram

	// Rebalancer (gate.go local path, rebalancer.go global path).
	LocalRebalances  Counter
	GlobalRebalances Counter
	Resizes          Counter
	RebalanceNanos   Histogram
	ResizeNanos      Histogram

	// Compressed chunks (core/cgate.go). SegDecodes counts whole-segment
	// decodes that succeeded (scans, batches that move pairs between
	// segments, rebalance gathers, an insert into a full segment); a point
	// Get, Put or Delete seeks the encoded bytes and a batch merged into
	// each segment's block merges them encoded, so neither is one.
	// ReencodeBytes accumulates the bytes stored into segment payloads, the
	// compressed write amplification: a re-encoded or merged block's whole
	// payload, and for an in-place splice the varints
	// it writes plus every byte it moves to make or close room (and the
	// copy, when the block had to move to a larger array). Both stay zero
	// for an uncompressed store. The gauges of the snapshot's compression
	// section (encoded bytes, pairs) are not counters — the core computes
	// them from the live array at Stats time.
	SegDecodes    Counter
	ReencodeBytes Counter
}

// ReadStats is the read-path section of a snapshot.
type ReadStats struct {
	GetOptimistic        uint64 `json:"get_optimistic"`
	GetLatched           uint64 `json:"get_latched"`
	GetProbeFails        uint64 `json:"get_probe_fails"`
	ScanChunksOptimistic uint64 `json:"scan_chunks_optimistic"`
	ScanChunksLatched    uint64 `json:"scan_chunks_latched"`
	ScanProbeFails       uint64 `json:"scan_probe_fails"`
}

// UpdateStats is the combining-queue section of a snapshot.
type UpdateStats struct {
	CombinedOps     uint64       `json:"combined_ops"`
	DeferredBatches uint64       `json:"deferred_batches"`
	DrainSize       Distribution `json:"drain_size"`
}

// RebalanceStats is the rebalancer section of a snapshot.
type RebalanceStats struct {
	Local          uint64       `json:"local"`
	Global         uint64       `json:"global"`
	Resizes        uint64       `json:"resizes"`
	RebalanceNanos Distribution `json:"rebalance_nanos"`
	ResizeNanos    Distribution `json:"resize_nanos"`
}

// CompressionStats is the compressed-chunks section of a snapshot. For an
// uncompressed store every field is zero and Enabled is false. EncodedBytes
// and Pairs are gauges over the live array (filled by the core at Stats
// time); EncodedBytes/Pairs is the store's bytes/pair.
// SegDecodes (compressed_seg_decodes_total) is whole-segment decodes, which
// point operations no longer cause; ReencodeBytes
// (compressed_reencode_bytes_total) is payload bytes stored, encoded or
// moved — see CoreMetrics.
type CompressionStats struct {
	Enabled       bool   `json:"enabled"`
	SegDecodes    uint64 `json:"seg_decodes"`
	ReencodeBytes uint64 `json:"reencode_bytes"`
	EncodedBytes  uint64 `json:"encoded_bytes"`
	Pairs         uint64 `json:"pairs"`
}

// CoreSnapshot is one PMA's counters at a point in time.
type CoreSnapshot struct {
	Reads       ReadStats        `json:"reads"`
	Updates     UpdateStats      `json:"updates"`
	Rebalance   RebalanceStats   `json:"rebalance"`
	Compression CompressionStats `json:"compression"`
}

// Snapshot copies the live counters.
func (m *CoreMetrics) Snapshot() CoreSnapshot {
	return CoreSnapshot{
		Reads: ReadStats{
			GetOptimistic:        m.GetOptimistic.Load(),
			GetLatched:           m.GetLatched.Load(),
			GetProbeFails:        m.GetProbeFails.Load(),
			ScanChunksOptimistic: m.ScanChunksOptimistic.Load(),
			ScanChunksLatched:    m.ScanChunksLatched.Load(),
			ScanProbeFails:       m.ScanProbeFails.Load(),
		},
		Updates: UpdateStats{
			CombinedOps:     m.CombinedOps.Load(),
			DeferredBatches: m.DeferredBatches.Load(),
			DrainSize:       m.DrainSize.Snapshot(),
		},
		Rebalance: RebalanceStats{
			Local:          m.LocalRebalances.Load(),
			Global:         m.GlobalRebalances.Load(),
			Resizes:        m.Resizes.Load(),
			RebalanceNanos: m.RebalanceNanos.Snapshot(),
			ResizeNanos:    m.ResizeNanos.Snapshot(),
		},
		Compression: CompressionStats{
			SegDecodes:    m.SegDecodes.Load(),
			ReencodeBytes: m.ReencodeBytes.Load(),
		},
	}
}

// merge sums o into s.
func (s CoreSnapshot) merge(o CoreSnapshot) CoreSnapshot {
	s.Reads.GetOptimistic += o.Reads.GetOptimistic
	s.Reads.GetLatched += o.Reads.GetLatched
	s.Reads.GetProbeFails += o.Reads.GetProbeFails
	s.Reads.ScanChunksOptimistic += o.Reads.ScanChunksOptimistic
	s.Reads.ScanChunksLatched += o.Reads.ScanChunksLatched
	s.Reads.ScanProbeFails += o.Reads.ScanProbeFails
	s.Updates.CombinedOps += o.Updates.CombinedOps
	s.Updates.DeferredBatches += o.Updates.DeferredBatches
	s.Updates.DrainSize = s.Updates.DrainSize.merge(o.Updates.DrainSize)
	s.Rebalance.Local += o.Rebalance.Local
	s.Rebalance.Global += o.Rebalance.Global
	s.Rebalance.Resizes += o.Rebalance.Resizes
	s.Rebalance.RebalanceNanos = s.Rebalance.RebalanceNanos.merge(o.Rebalance.RebalanceNanos)
	s.Rebalance.ResizeNanos = s.Rebalance.ResizeNanos.merge(o.Rebalance.ResizeNanos)
	s.Compression.Enabled = s.Compression.Enabled || o.Compression.Enabled
	s.Compression.SegDecodes += o.Compression.SegDecodes
	s.Compression.ReencodeBytes += o.Compression.ReencodeBytes
	s.Compression.EncodedBytes += o.Compression.EncodedBytes
	s.Compression.Pairs += o.Compression.Pairs
	return s
}

// WALMetrics instruments the write-ahead log (persist/wal.go).
type WALMetrics struct {
	// Appends/AppendBytes count records (and their framed bytes) appended
	// to the active segment. Rotations counts segment boundaries.
	// FsyncNanos times each segment fsync; its count is the snapshot's
	// Fsyncs (group commit keeps it far below Appends under FsyncAlways).
	// GroupCommit observes how many appended records each fsync newly made
	// durable — the group-commit batch size.
	Appends     Counter
	AppendBytes Counter
	Rotations   Counter
	FsyncNanos  Histogram
	GroupCommit Histogram

	// AppendWindow observes how long an append waited for the log's append
	// mutex, and only when it had to wait: an uncontended append records
	// nothing and reads no clock, so its count is the number of contended
	// appends. FsyncWindow mirrors FsyncNanos over the trailing interval.
	// Together they are the store-side attribution for the serving layer's
	// StageApply, and the only one an embedded user needs.
	AppendWindow Window
	FsyncWindow  Window
}

// WALSnapshot is the WAL section of a snapshot.
type WALSnapshot struct {
	Appends            uint64         `json:"appends"`
	AppendBytes        uint64         `json:"append_bytes"`
	Rotations          uint64         `json:"rotations"`
	Fsyncs             uint64         `json:"fsyncs"`
	FsyncNanos         Distribution   `json:"fsync_nanos"`
	GroupCommitRecords Distribution   `json:"group_commit_records"`
	AppendWindow       WindowSnapshot `json:"append_window"`
	FsyncWindow        WindowSnapshot `json:"fsync_window"`
}

// Snapshot copies the live counters.
func (m *WALMetrics) Snapshot() WALSnapshot {
	s := WALSnapshot{
		Appends:            m.Appends.Load(),
		AppendBytes:        m.AppendBytes.Load(),
		Rotations:          m.Rotations.Load(),
		FsyncNanos:         m.FsyncNanos.Snapshot(),
		GroupCommitRecords: m.GroupCommit.Snapshot(),
		AppendWindow:       m.AppendWindow.Snapshot(),
		FsyncWindow:        m.FsyncWindow.Snapshot(),
	}
	s.Fsyncs = s.FsyncNanos.Count
	return s
}

func (s WALSnapshot) merge(o WALSnapshot) WALSnapshot {
	s.Appends += o.Appends
	s.AppendBytes += o.AppendBytes
	s.Rotations += o.Rotations
	s.Fsyncs += o.Fsyncs
	s.FsyncNanos = s.FsyncNanos.merge(o.FsyncNanos)
	s.GroupCommitRecords = s.GroupCommitRecords.merge(o.GroupCommitRecords)
	s.AppendWindow = s.AppendWindow.merge(o.AppendWindow)
	s.FsyncWindow = s.FsyncWindow.merge(o.FsyncWindow)
	return s
}

// CheckpointMetrics instruments snapshots/compaction (pmago durable layer).
type CheckpointMetrics struct {
	// Snapshots counts completed checkpoints; Pairs/Bytes accumulate what
	// the checkpoint files contained.
	Snapshots    Counter
	PairsWritten Counter
	BytesWritten Counter
}

// CheckpointSnapshot is the checkpoint section of a snapshot.
type CheckpointSnapshot struct {
	Snapshots    uint64 `json:"snapshots"`
	PairsWritten uint64 `json:"pairs_written"`
	BytesWritten uint64 `json:"bytes_written"`
}

// Snapshot copies the live counters.
func (m *CheckpointMetrics) Snapshot() CheckpointSnapshot {
	return CheckpointSnapshot{
		Snapshots:    m.Snapshots.Load(),
		PairsWritten: m.PairsWritten.Load(),
		BytesWritten: m.BytesWritten.Load(),
	}
}

func (s CheckpointSnapshot) merge(o CheckpointSnapshot) CheckpointSnapshot {
	s.Snapshots += o.Snapshots
	s.PairsWritten += o.PairsWritten
	s.BytesWritten += o.BytesWritten
	return s
}

// RecoverySnapshot records what the last Open had to do to restore the
// store. It is written once, before the store is shared, so plain fields
// suffice; a sharded store's sections sum across shards (Recoveries then
// counts the shards).
type RecoverySnapshot struct {
	Recoveries    uint64 `json:"recoveries"`
	SnapshotPairs uint64 `json:"snapshot_pairs"` // pairs in the snapshot
	SnapshotBytes uint64 `json:"snapshot_bytes"`
	// SnapshotLoadNanos times reading the snapshot plus the one BulkLoad
	// of the recovered pairs.
	SnapshotLoadNanos uint64 `json:"snapshot_load_nanos"`
	WALRecords        uint64 `json:"wal_records"` // records in the WAL tail
	// WALReplayNanos times reading the WAL tail and folding it into the
	// snapshot's pairs.
	WALReplayNanos uint64 `json:"wal_replay_nanos"`
}

func (s RecoverySnapshot) merge(o RecoverySnapshot) RecoverySnapshot {
	s.Recoveries += o.Recoveries
	s.SnapshotPairs += o.SnapshotPairs
	s.SnapshotBytes += o.SnapshotBytes
	s.SnapshotLoadNanos += o.SnapshotLoadNanos
	s.WALRecords += o.WALRecords
	s.WALReplayNanos += o.WALReplayNanos
	return s
}

// ShardStats is one shard's routing counters in a sharded store's snapshot.
type ShardStats struct {
	Ops       uint64 `json:"ops"`        // point ops (Put/Get/Delete) routed here
	BatchKeys uint64 `json:"batch_keys"` // batch keys routed here
}

// Snapshot is the full typed metrics snapshot returned by Stats() at every
// level of the public API. In-memory stores leave the durable sections
// zero; sharded stores sum their shards and add the per-shard routing
// section.
type Snapshot struct {
	CoreSnapshot
	Durable    bool               `json:"durable"`
	WAL        WALSnapshot        `json:"wal"`
	Checkpoint CheckpointSnapshot `json:"checkpoint"`
	Recovery   RecoverySnapshot   `json:"recovery"`
	Shards     []ShardStats       `json:"shards,omitempty"`
	// Err is the first background durability failure ("" while healthy): a
	// WAL append or sync error makes the store sick permanently, and health
	// checks scrape it here. Mirrored as the pmago_unhealthy gauge.
	Err string `json:"err,omitempty"`
	// Server is the serving-layer section, set only on snapshots taken
	// through a pmago/server.Server.
	Server *ServerSnapshot `json:"server,omitempty"`
	// Trace is the request-path tracing section (per-op, per-stage sliding
	// windows), set alongside Server by pmago/server.Server.
	Trace *TraceSnapshot `json:"trace,omitempty"`
}

// Merge sums o into s, returning the result (sharded aggregation). The
// per-shard routing sections are concatenated in order.
func (s Snapshot) Merge(o Snapshot) Snapshot {
	s.CoreSnapshot = s.CoreSnapshot.merge(o.CoreSnapshot)
	s.Durable = s.Durable || o.Durable
	s.WAL = s.WAL.merge(o.WAL)
	s.Checkpoint = s.Checkpoint.merge(o.Checkpoint)
	s.Recovery = s.Recovery.merge(o.Recovery)
	s.Shards = append(s.Shards, o.Shards...)
	if s.Err == "" {
		s.Err = o.Err
	}
	if s.Server == nil {
		s.Server = o.Server
	}
	if s.Trace == nil {
		s.Trace = o.Trace
	}
	return s
}
