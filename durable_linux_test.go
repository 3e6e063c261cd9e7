package pmago

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestDurableSegmentFaultIsError: the active WAL segment is mapped, so a
// file truncated behind the store's back faults on the next append. The
// store must fail the way a failed write(2) fails it — the writer panics
// with the WAL message, Err stays set, Sync and Close report it — and the
// process lives.
func TestDurableSegmentFaultIsError(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, WithFsync(FsyncNone), WithCompactRatio(0))
	if err != nil {
		t.Fatal(err)
	}
	db.Put(1, 1)
	seg := filepath.Join(dir, "wal-00000000000000000001.log")
	if err := os.Truncate(seg, 0); err != nil {
		t.Fatal(err)
	}
	func() {
		defer func() {
			r := recover()
			if msg, ok := r.(string); !ok || !strings.Contains(msg, "write-ahead log append failed") {
				t.Fatalf("Put after truncation: panic %v, want the WAL append failure", r)
			}
		}()
		db.Put(2, 2)
	}()
	if db.Err() == nil {
		t.Fatal("Err is nil after a failed append")
	}
	if db.Sync() == nil {
		t.Fatal("Sync succeeded after a failed append")
	}
	if db.Stats().Err == "" {
		t.Fatal("Stats does not report the failed append")
	}
	if db.Close() == nil {
		t.Fatal("Close succeeded after a failed append")
	}
}

// TestShardedSegmentFaultReachesCaller: a durable shard fails an append the
// way DB does, with a panic on the goroutine that applies the shard's part
// of a batch. The fan-out must raise it again on the caller, where a
// serving layer's recover sees it, instead of letting it kill the process
// from a goroutine of its own.
func TestShardedSegmentFaultReachesCaller(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenSharded(dir, WithShards(4), WithFsync(FsyncNone), WithCompactRatio(0), withWALSegmentBytes(1<<20))
	if err != nil {
		t.Fatal(err)
	}
	keys, vals := make([]int64, 256), make([]int64, 256)
	for i := range keys {
		keys[i], vals[i] = int64(i), int64(i)
	}
	s.PutBatch(keys, vals)
	for i, n := range s.ShardLens() {
		if n == 0 {
			t.Fatalf("shard %d received none of the batch", i)
		}
	}
	seg := filepath.Join(dir, shardDirName(2), "wal-00000000000000000001.log")
	if err := os.Truncate(seg, 0); err != nil {
		t.Fatal(err)
	}
	func() {
		defer func() {
			r := recover()
			if msg, ok := r.(string); !ok || !strings.Contains(msg, "write-ahead log append failed") {
				t.Fatalf("PutBatch after truncation: panic %v, want the WAL append failure", r)
			}
		}()
		s.PutBatch(keys, vals)
	}()
	if s.dbs[2].Err() == nil {
		t.Fatal("the faulted shard's Err is nil after a failed append")
	}
	if s.Sync() == nil {
		t.Fatal("Sync succeeded after a failed append")
	}
	if s.Close() == nil {
		t.Fatal("Close succeeded after a failed append")
	}
}
