package obs

import (
	"context"
	"log/slog"
	"time"
)

// EventHook receives structural events from the store: the rare, expensive
// operations (rebalances, checkpoints, recovery, slow fsyncs) whose
// occurrence an operator wants traced individually, not just counted.
//
// Hooks are called synchronously from store goroutines — the rebalancer
// master, the checkpoint goroutine, and (for OnFsyncStall) whichever
// committer ran the fsync, which may hold WAL internals locked. An
// implementation must be fast and must not call back into the store.
// A nil hook field everywhere means no calls and no cost.
type EventHook interface {
	OnRebalance(RebalanceEvent)
	OnCompaction(CompactionEvent)
	OnRecovery(RecoveryEvent)
	OnFsyncStall(FsyncStallEvent)
}

// RebalanceEvent describes one completed global rebalance or resize.
type RebalanceEvent struct {
	Gates    int           // window width in gates (whole table for a resize)
	Resize   bool          // true when the table was grown/shrunk instead
	Duration time.Duration // exclusive-hold + redistribution time
}

// CompactionEvent describes one completed checkpoint.
type CompactionEvent struct {
	Auto     bool  // triggered by the WAL-growth heuristic, not Snapshot()
	Pairs    int64 // live pairs written
	Bytes    int64 // snapshot file size
	Duration time.Duration
}

// RecoveryEvent describes one completed Open() restore.
type RecoveryEvent struct {
	SnapshotPairs int64 // pairs in the snapshot
	SnapshotBytes int64
	SnapshotLoad  time.Duration // snapshot read + the one bulk load
	WALRecords    int64         // records in the log tail
	WALReplay     time.Duration // tail read + fold into the snapshot's pairs
}

// FsyncStallEvent reports a File.Sync that exceeded the configured stall
// threshold — the classic sign of a saturated or misbehaving device.
type FsyncStallEvent struct {
	Duration  time.Duration
	Threshold time.Duration
}

// SlogHook adapts an EventHook onto a *slog.Logger. Routine events log at
// Info; events slower than Slow (and every fsync stall) log at Warn.
// Rebalances are the one high-frequency event class, so they are logged
// only when slow — counting them is the histograms' job.
type SlogHook struct {
	Logger *slog.Logger
	Slow   time.Duration
}

// NewSlogHook returns a hook logging to logger (slog.Default() when nil),
// escalating events slower than slow to Warn.
func NewSlogHook(logger *slog.Logger, slow time.Duration) *SlogHook {
	if logger == nil {
		logger = slog.Default()
	}
	return &SlogHook{Logger: logger, Slow: slow}
}

func (h *SlogHook) slowLevel(d time.Duration) slog.Level {
	if h.Slow > 0 && d >= h.Slow {
		return slog.LevelWarn
	}
	return slog.LevelInfo
}

// OnRebalance logs only rebalances at or above Slow (at Warn).
func (h *SlogHook) OnRebalance(e RebalanceEvent) {
	if h.Slow <= 0 || e.Duration < h.Slow {
		return
	}
	h.Logger.LogAttrs(context.Background(), slog.LevelWarn, "pmago: slow rebalance",
		slog.Int("gates", e.Gates),
		slog.Bool("resize", e.Resize),
		slog.Duration("duration", e.Duration))
}

func (h *SlogHook) OnCompaction(e CompactionEvent) {
	h.Logger.LogAttrs(context.Background(), h.slowLevel(e.Duration), "pmago: compaction",
		slog.Bool("auto", e.Auto),
		slog.Int64("pairs", e.Pairs),
		slog.Int64("bytes", e.Bytes),
		slog.Duration("duration", e.Duration))
}

func (h *SlogHook) OnRecovery(e RecoveryEvent) {
	h.Logger.LogAttrs(context.Background(), h.slowLevel(e.SnapshotLoad+e.WALReplay), "pmago: recovery",
		slog.Int64("snapshot_pairs", e.SnapshotPairs),
		slog.Int64("snapshot_bytes", e.SnapshotBytes),
		slog.Duration("snapshot_load", e.SnapshotLoad),
		slog.Int64("wal_records", e.WALRecords),
		slog.Duration("wal_replay", e.WALReplay))
}

func (h *SlogHook) OnFsyncStall(e FsyncStallEvent) {
	h.Logger.LogAttrs(context.Background(), slog.LevelWarn, "pmago: fsync stall",
		slog.Duration("duration", e.Duration),
		slog.Duration("threshold", e.Threshold))
}
