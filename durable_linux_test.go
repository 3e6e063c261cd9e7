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
