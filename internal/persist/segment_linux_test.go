package persist

import (
	"os"
	"path/filepath"
	"testing"
)

// TestMappedSegmentFaultIsError: truncating the active segment behind the
// log's back turns the next copy into the mapping into a fault. The append
// must report it as an error, and the log stays failed for every later
// append, Sync and Close, as after a failed write(2).
func TestMappedSegmentFaultIsError(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenLog(dir, 1, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := w.AppendPut(1, 1); err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(filepath.Join(dir, segName(1)), 0); err != nil {
		t.Fatal(err)
	}
	if err := w.AppendPut(2, 2); err == nil {
		t.Fatal("append into a truncated mapping succeeded")
	}
	if err := w.AppendDelete(1); err == nil {
		t.Fatal("append after a fault succeeded: the failure must be sticky")
	}
	if err := w.Sync(); err == nil {
		t.Fatal("Sync after a fault succeeded")
	}
	if err := w.Close(); err == nil {
		t.Fatal("Close after a fault reported success")
	}
}
