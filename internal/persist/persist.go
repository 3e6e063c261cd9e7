// Package persist is the durability layer under pmago.Open: a segmented
// write-ahead log plus CRC-checked, delta-encoded snapshots of the whole
// store, and the recovery logic that stitches the two back together after a
// crash.
//
// The design follows the classic checkpoint+log recipe. Every accepted
// update is first appended to the active WAL segment as a length-prefixed,
// CRC32C-protected record (wal.go). On Linux the active segment is a
// preallocated file mapped into memory, so an append is a copy into the
// page cache — where a process crash cannot lose it — with no system call
// (segment_linux.go); other platforms write(2) each record
// (segment_other.go). An fsync policy decides when appended records become
// durable against power loss too, with concurrent writers sharing fsyncs
// through group commit. A snapshot (snapshot.go) is a consistent full scan
// streamed into blocks of delta-encoded key/value pairs, written to a
// temporary file and atomically renamed; its header names the WAL segment
// recovery must replay from, so finishing a snapshot makes every older
// segment garbage (log truncation). Recovery (Recover) finds the newest
// snapshot that passes all its checksums, reads the WAL tail after it —
// truncating a torn final record where a crash cut an append short — and
// folds the tail into the snapshot's sorted pairs: each key keeps its last
// update in log order, deleted keys drop out.
//
// The package is deliberately independent of the PMA: it moves int64 pairs
// and op records. pmago owns the glue: Open bulk-loads the pairs Recover
// returns in one pass, and DB's update methods append to the Log before
// they apply; neither sees a record.
package persist

import (
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// FsyncPolicy selects when appended WAL records are forced to stable
// storage — the durability/throughput dial of the log.
type FsyncPolicy int

const (
	// FsyncAlways fsyncs before an update is acknowledged: every write
	// that returned survives a crash. Concurrent writers share fsyncs
	// through group commit, so throughput scales with the write
	// concurrency rather than collapsing to one fsync per op.
	FsyncAlways FsyncPolicy = iota
	// FsyncInterval fsyncs on a timer (Options.FsyncEvery): a crash
	// loses at most the last interval's acknowledged writes. Process
	// crashes (panic, kill) lose nothing — the records are already in
	// the page cache, copied there through the mapped segment on Linux —
	// only power loss or a kernel crash can.
	FsyncInterval
	// FsyncNone never fsyncs explicitly; the OS writes back at its
	// leisure. Same process-crash guarantee as FsyncInterval, no
	// guarantee against power loss. The fastest policy.
	FsyncNone
)

func (p FsyncPolicy) String() string {
	switch p {
	case FsyncAlways:
		return "always"
	case FsyncInterval:
		return "interval"
	case FsyncNone:
		return "none"
	default:
		return fmt.Sprintf("FsyncPolicy(%d)", int(p))
	}
}

// Options tunes the durability layer. pmago's WithFsync and
// WithCompactRatio set Fsync and CompactRatio; the other fields keep their
// defaults outside tests.
type Options struct {
	// Fsync is the WAL durability policy.
	Fsync FsyncPolicy
	// FsyncEvery is the FsyncInterval period (default 50ms).
	FsyncEvery time.Duration
	// SegmentBytes is the size of each active WAL segment (default 64
	// MiB): on Linux it is reserved on disk and mapped when the segment
	// is created. A record that does not fit in the space left rotates
	// the log; a record larger than SegmentBytes gets a segment of its
	// own size. Rotated segments are sealed — cut to their records and
	// fsynced — so only the active segment can ever hold a torn tail.
	SegmentBytes int64
	// CompactRatio triggers an automatic snapshot (and WAL truncation)
	// when the live WAL exceeds this multiple of the last snapshot's
	// size (default 4); pmago counts these apart from explicit Snapshot
	// calls in Stats().Checkpoint.AutoCompactions. Zero or negative
	// disables auto-compaction; Snapshot can still be called explicitly.
	CompactRatio float64
	// CompactMinBytes is the WAL size floor below which auto-compaction
	// never fires, whatever the ratio says (default 8 MiB). It also
	// serves as the threshold while no snapshot exists yet.
	CompactMinBytes int64
	// SnapshotBlockEntries is the number of pairs per snapshot block
	// (default 8192); each block carries its own checksum.
	SnapshotBlockEntries int
}

// DefaultOptions returns the defaults described on each field.
func DefaultOptions() Options {
	return Options{
		Fsync:                FsyncAlways,
		FsyncEvery:           50 * time.Millisecond,
		SegmentBytes:         64 << 20,
		CompactRatio:         4,
		CompactMinBytes:      8 << 20,
		SnapshotBlockEntries: 8192,
	}
}

// normalize fills zero fields from the defaults (negative CompactRatio is
// kept: it means "disabled").
func (o Options) normalize() Options {
	def := DefaultOptions()
	if o.FsyncEvery <= 0 {
		o.FsyncEvery = def.FsyncEvery
	}
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = def.SegmentBytes
	}
	if o.CompactMinBytes <= 0 {
		o.CompactMinBytes = def.CompactMinBytes
	}
	if o.SnapshotBlockEntries <= 0 {
		o.SnapshotBlockEntries = def.SnapshotBlockEntries
	}
	return o
}

// writeDurable replaces path with the bytes write produces, so that a crash
// leaves either the old file or the new one, never a torn one: write streams
// into path+".tmp", which is fsynced, closed, renamed over path, and the
// directory synced. On any error — write's included — the temp file is
// removed and path is untouched. It returns the new file's size.
func writeDurable(path string, write func(f *os.File) error) (size int64, err error) {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return 0, err
	}
	defer func() {
		if err != nil {
			f.Close()
			os.Remove(tmp)
		}
	}()
	if err = write(f); err != nil {
		return 0, err
	}
	if err = f.Sync(); err != nil {
		return 0, err
	}
	fi, err := f.Stat()
	if err != nil {
		return 0, err
	}
	if err = f.Close(); err != nil {
		return 0, err
	}
	if err = os.Rename(tmp, path); err != nil {
		return 0, err
	}
	syncDir(filepath.Dir(path))
	return fi.Size(), nil
}

// syncDir fsyncs a directory so renames and removals inside it survive a
// crash. Best-effort: some filesystems reject directory fsync.
func syncDir(dir string) {
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	_ = d.Sync()
	_ = d.Close()
}
