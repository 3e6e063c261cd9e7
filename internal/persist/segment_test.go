package persist

import (
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"
)

// segSizes returns the on-disk size of every WAL segment in dir, by number.
func segSizes(t *testing.T, dir string) map[uint64]int64 {
	t.Helper()
	seqs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	sizes := map[uint64]int64{}
	for _, s := range seqs {
		fi, err := os.Stat(filepath.Join(dir, segName(s)))
		if err != nil {
			t.Fatal(err)
		}
		sizes[s] = fi.Size()
	}
	return sizes
}

// wantActiveSize is the on-disk size of an open active segment: preallocated
// to its full size where it is mapped, exactly its appended bytes elsewhere.
func wantActiveSize(capacity, appended int64) int64 {
	if runtime.GOOS == "linux" {
		return capacity
	}
	return appended
}

// TestSegmentShape pins the on-disk shape of the log: the active segment is
// created at SegmentBytes, and Rotate and Close seal a segment to exactly the
// bytes appended to it, so replay never meets preallocated space in a
// segment that is not the newest.
func TestSegmentShape(t *testing.T) {
	dir := t.TempDir()
	o := testOptions()
	o.SegmentBytes = 4096
	w, err := OpenLog(dir, 1, o)
	if err != nil {
		t.Fatal(err)
	}
	appended := map[uint64]int64{}
	put := func(seq uint64, k int64) {
		t.Helper()
		if err := w.AppendPut(k, -k); err != nil {
			t.Fatal(err)
		}
		appended[seq] += int64(len(encodePut(nil, k, -k)))
	}
	for k := int64(0); k < 10; k++ {
		put(1, k)
	}
	if got := segSizes(t, dir)[1]; got != wantActiveSize(o.SegmentBytes, appended[1]) {
		t.Fatalf("active segment is %d bytes on disk, want %d", got, wantActiveSize(o.SegmentBytes, appended[1]))
	}
	if w.LiveBytes() != appended[1] {
		t.Fatalf("LiveBytes %d, want the %d appended", w.LiveBytes(), appended[1])
	}
	cut, err := w.Rotate()
	if err != nil || cut != 2 {
		t.Fatalf("Rotate = %d, %v", cut, err)
	}
	for k := int64(100); k < 103; k++ {
		put(2, k)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if got := segSizes(t, dir); len(got) != 2 || got[1] != appended[1] || got[2] != appended[2] {
		t.Fatalf("sealed segments are %v bytes, want %v", got, appended)
	}
	if got := collect(t, dir, 1); len(got) != 13 {
		t.Fatalf("replayed %d keys, want 13", len(got))
	}
}

// TestOversizedRecordGetsOwnSegment: a record larger than SegmentBytes
// rotates into a fresh segment sized to it, alone, and the next append
// rotates again into an ordinary one.
func TestOversizedRecordGetsOwnSegment(t *testing.T) {
	dir := t.TempDir()
	o := testOptions()
	o.SegmentBytes = 256
	w, err := OpenLog(dir, 1, o)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.AppendPut(1, 1); err != nil {
		t.Fatal(err)
	}
	keys := make([]int64, 200)
	vals := make([]int64, 200)
	for i := range keys {
		keys[i], vals[i] = int64(i)<<20, int64(i)
	}
	big := int64(len(encodeBatch(nil, KindPutBatch, keys, vals)))
	if big <= o.SegmentBytes {
		t.Fatalf("batch record is %d bytes, not over the %d-byte segment", big, o.SegmentBytes)
	}
	if err := w.AppendPutBatch(keys, vals); err != nil {
		t.Fatal(err)
	}
	if got := segSizes(t, dir)[2]; got != wantActiveSize(big, big) {
		t.Fatalf("oversized record's segment is %d bytes, want %d", got, big)
	}
	if err := w.AppendPut(2, 2); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	small := int64(len(encodePut(nil, 1, 1)))
	if got := segSizes(t, dir); len(got) != 3 || got[1] != small || got[2] != big || got[3] != small {
		t.Fatalf("segments %v, want {1:%d 2:%d 3:%d}", got, small, big, small)
	}
	if got := collect(t, dir, 1); len(got) != 202 {
		t.Fatalf("replayed %d keys, want 202", len(got))
	}
}

// TestProbeSkipsZerosSameAnswer checks the probe's zero-word skip against
// the definition it shortcuts — decode at every offset — on sparse buffers:
// long zero runs, stray nonzero bytes and valid records at every alignment,
// which is what a killed store's preallocated tail looks like.
func TestProbeSkipsZerosSameAnswer(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	naive := func(data []byte, off int) bool {
		var rec Record
		for i := off + 1; i < len(data); i++ {
			if _, ok := decodeRecord(data[i:], &rec); ok {
				return true
			}
		}
		return false
	}
	for trial := 0; trial < 300; trial++ {
		data := make([]byte, 64+rng.Intn(2048))
		for j := rng.Intn(8); j > 0; j-- {
			data[rng.Intn(len(data))] = byte(rng.Intn(256))
		}
		if rng.Intn(2) == 0 {
			rec := encodePut(nil, rng.Int63(), rng.Int63())
			if at := rng.Intn(len(data)); at+len(rec) <= len(data) {
				copy(data[at:], rec)
			}
		}
		off := rng.Intn(16)
		if got, want := hasValidRecordAfter(data, off), naive(data, off); got != want {
			t.Fatalf("trial %d: probe says %v, decoding every offset says %v", trial, got, want)
		}
	}
}

// TestAppendWindowRecordsOnlyWaits: the append window is the time appends
// spent waiting for the log. Sequential appends never wait, so they record
// nothing (and read no clock), rotations on the appending goroutine
// included; an append blocked behind a held mutex records its wait once.
func TestAppendWindowRecordsOnlyWaits(t *testing.T) {
	o := testOptions()
	o.SegmentBytes = 4096
	w, err := OpenLog(t.TempDir(), 1, o)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	for i := 0; i < 1000; i++ {
		if err := w.AppendPut(int64(i), int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if s := w.Metrics().Snapshot(); s.Appends != 1000 || s.Rotations == 0 || s.AppendWindow.Count != 0 {
		t.Fatalf("after 1000 sequential appends: appends %d, rotations %d, append window count %d; want 1000, > 0, 0",
			s.Appends, s.Rotations, s.AppendWindow.Count)
	}

	const hold = 2 * time.Millisecond
	w.mu.Lock()
	done := make(chan error, 1)
	go func() { done <- w.AppendPut(-1, -1) }()
	waitAppendBlocked(t)
	time.Sleep(hold)
	w.mu.Unlock()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	s := w.Metrics().Snapshot()
	if s.Appends != 1001 || s.AppendWindow.Count != 1 || s.AppendWindow.Sum < uint64(hold) {
		t.Fatalf("after one blocked append: appends %d, append window count %d sum %v; want 1001, 1, >= %v",
			s.Appends, s.AppendWindow.Count, time.Duration(s.AppendWindow.Sum), hold)
	}
}

// waitAppendBlocked returns once a goroutine is parked in an append's Lock
// of the log mutex, so a hold that starts now is already being timed.
func waitAppendBlocked(t *testing.T) {
	t.Helper()
	buf := make([]byte, 1<<20)
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(50 * time.Microsecond) {
		n := runtime.Stack(buf, true)
		for _, g := range strings.Split(string(buf[:n]), "\n\n") {
			head, _, _ := strings.Cut(g, "\n")
			if strings.Contains(g, "(*Log).lockAppend") &&
				(strings.Contains(head, "Mutex.Lock") || strings.Contains(head, "semacquire")) {
				return
			}
		}
	}
	t.Fatal("the append never blocked on the log mutex")
}

// BenchmarkAppendPut prices one logged point update through the log alone:
// encode, checksum, the copy into the active segment, the two counter adds,
// and the rotations a default-sized segment amortises.
func BenchmarkAppendPut(b *testing.B) {
	w, err := OpenLog(b.TempDir(), 1, testOptions())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := w.AppendPut(int64(i), int64(i)); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if err := w.Close(); err != nil {
		b.Fatal(err)
	}
}
