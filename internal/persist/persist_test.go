package persist

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"pmago/internal/codec"
)

// collect replays dir into a model map, the reference the WAL tests check
// against.
func collect(t *testing.T, dir string, fromSeq uint64) map[int64]int64 {
	t.Helper()
	m := map[int64]int64{}
	_, err := Replay(dir, fromSeq, func(r *Record) error {
		applyToModel(m, r)
		return nil
	})
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	return m
}

func applyToModel(m map[int64]int64, r *Record) {
	switch r.Kind {
	case KindPut:
		m[r.Keys[0]] = r.Vals[0]
	case KindDelete:
		delete(m, r.Keys[0])
	case KindPutBatch:
		for i, k := range r.Keys {
			m[k] = r.Vals[i]
		}
	case KindDeleteBatch:
		for _, k := range r.Keys {
			delete(m, k)
		}
	}
}

func testOptions() Options {
	o := DefaultOptions()
	o.Fsync = FsyncNone
	return o
}

func TestWALRoundTrip(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenLog(dir, 1, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	must(w.AppendPut(1, 10))
	must(w.AppendPut(-5, 50))
	must(w.AppendDelete(1))
	must(w.AppendPutBatch([]int64{7, 8, 7}, []int64{70, 80, 71}))
	must(w.AppendDeleteBatch([]int64{8, 999}))
	_, err = w.Rotate()
	must(err)
	// A log opened with the defaults counts without being asked: each
	// FsyncAlways append is one fsync, and the rotation fsyncs the
	// segment it seals.
	if s := w.Metrics().Snapshot(); s.Appends != 5 || s.Rotations != 1 || s.Fsyncs != 6 {
		t.Fatalf("appends %d, rotations %d, fsyncs %d; want 5, 1, 6", s.Appends, s.Rotations, s.Fsyncs)
	}
	must(w.Close())

	got := collect(t, dir, 1)
	want := map[int64]int64{-5: 50, 7: 71}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("replayed %v, want %v", got, want)
	}
}

func TestWALRotationAndTruncate(t *testing.T) {
	dir := t.TempDir()
	o := testOptions()
	o.SegmentBytes = 64 // force rotation every few records
	w, err := OpenLog(dir, 1, o)
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 100; i++ {
		if err := w.AppendPut(i, i*10); err != nil {
			t.Fatal(err)
		}
	}
	segs, _ := listSegments(dir)
	if len(segs) < 3 {
		t.Fatalf("expected several segments, got %v", segs)
	}
	got := collect(t, dir, 1)
	if len(got) != 100 {
		t.Fatalf("replayed %d records, want 100", len(got))
	}
	// Rotate to a cut point, drop everything before it.
	cut, err := w.Rotate()
	if err != nil {
		t.Fatal(err)
	}
	if err := w.AppendPut(1000, 1); err != nil {
		t.Fatal(err)
	}
	w.TruncateBefore(cut)
	segs, _ = listSegments(dir)
	if segs[0] != cut {
		t.Fatalf("truncation left segment %d, want first %d", segs[0], cut)
	}
	got = collect(t, dir, cut)
	if !reflect.DeepEqual(got, map[int64]int64{1000: 1}) {
		t.Fatalf("post-truncation replay %v", got)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestReplayTruncatesTornTail(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenLog(dir, 1, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 10; i++ {
		if err := w.AppendPut(i, i); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, segName(1))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Cut mid-way through the final record: a crash mid-append.
	if err := os.WriteFile(path, data[:len(data)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	got := collect(t, dir, 1)
	if len(got) != 9 {
		t.Fatalf("recovered %d records after torn tail, want 9", len(got))
	}
	// The tear must have been truncated off so the file is clean again.
	fixed, _ := os.ReadFile(path)
	if rerun := collect(t, dir, 1); !reflect.DeepEqual(rerun, got) || len(fixed) >= len(data) {
		t.Fatalf("torn tail not truncated (size %d vs %d)", len(fixed), len(data))
	}
}

func TestReplayRejectsCorruptRecord(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenLog(dir, 1, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 10; i++ {
		if err := w.AppendPut(i, i); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, segName(1))
	data, _ := os.ReadFile(path)
	// Flip one payload byte mid-file: the CRC rejects the record, and
	// because checksum-valid records follow the damage this is bit rot,
	// not a torn tail — replay must refuse rather than silently truncate
	// the valid (fsynced, acknowledged) suffix.
	corrupt := bytes.Clone(data)
	corrupt[len(corrupt)/2] ^= 0xFF
	if err := os.WriteFile(path, corrupt, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Replay(dir, 1, func(*Record) error { return nil }); err == nil {
		t.Fatal("mid-segment corruption with valid records after it must be an error")
	}
	// The same damage at the very tail (nothing valid after) is
	// indistinguishable from a crash mid-append and is truncated away.
	tail := bytes.Clone(data)
	tail[len(tail)-2] ^= 0xFF
	if err := os.WriteFile(path, tail, 0o644); err != nil {
		t.Fatal(err)
	}
	got := collect(t, dir, 1)
	if len(got) != 9 {
		t.Fatalf("corrupt final record: recovered %d/10, want 9", len(got))
	}
	for k, v := range got {
		if k != v {
			t.Fatalf("corrupt record leaked garbage: %d->%d", k, v)
		}
	}
}

func TestReplayErrorsOnClosedSegmentCorruption(t *testing.T) {
	dir := t.TempDir()
	o := testOptions()
	o.SegmentBytes = 64
	w, err := OpenLog(dir, 1, o)
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 50; i++ {
		if err := w.AppendPut(i, i); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _ := listSegments(dir)
	if len(segs) < 2 {
		t.Fatalf("need multiple segments, got %v", segs)
	}
	path := filepath.Join(dir, segName(segs[0]))
	data, _ := os.ReadFile(path)
	data[len(data)/2] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Replay(dir, 1, func(*Record) error { return nil }); err == nil {
		t.Fatal("corruption in a closed (fsynced) segment must be an error, not silent loss")
	}
}

// TestGroupCommitFsyncAlways: concurrent FsyncAlways writers share fsyncs.
// With small segments, rotations seal segments under the fsyncs writers
// are running on them, which must not fail the log.
func TestGroupCommitFsyncAlways(t *testing.T) {
	for _, segBytes := range []int64{DefaultOptions().SegmentBytes, 512} {
		dir := t.TempDir()
		o := testOptions()
		o.Fsync = FsyncAlways
		o.SegmentBytes = segBytes
		w, err := OpenLog(dir, 1, o)
		if err != nil {
			t.Fatal(err)
		}
		done := make(chan error, 8)
		for g := 0; g < 8; g++ {
			go func(g int) {
				for i := 0; i < 50; i++ {
					if err := w.AppendPut(int64(g*1000+i), int64(i)); err != nil {
						done <- err
						return
					}
				}
				done <- nil
			}(g)
		}
		for g := 0; g < 8; g++ {
			if err := <-done; err != nil {
				t.Fatalf("%d-byte segments: %v", segBytes, err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		if got := collect(t, dir, 1); len(got) != 400 {
			t.Fatalf("%d-byte segments: recovered %d records, want 400", segBytes, len(got))
		}
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	dir := t.TempDir()
	n := 100_000
	keys := make([]int64, n)
	vals := make([]int64, n)
	k := int64(-50_000)
	for i := range keys {
		k += int64(i%7) + 1 // irregular gaps, negative through positive keys
		keys[i] = k
		vals[i] = int64(i) - 1000
	}
	count, size, err := WriteSnapshot(dir, 7, func(yield func(k, v int64) bool) error {
		for i := range keys {
			if !yield(keys[i], vals[i]) {
				break
			}
		}
		return nil
	}, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	if count != int64(n) {
		t.Fatalf("count %d, want %d", count, n)
	}
	if size >= int64(16*n) {
		t.Fatalf("delta encoding ineffective: %d bytes for %d pairs", size, n)
	}
	gk, gv, seq, err := LoadSnapshot(filepath.Join(dir, snapName(7)))
	if err != nil {
		t.Fatal(err)
	}
	if seq != 7 {
		t.Fatalf("walSeq %d, want 7", seq)
	}
	if !reflect.DeepEqual(gk, keys) || !reflect.DeepEqual(gv, vals) {
		t.Fatal("snapshot round trip mismatch")
	}
}

func TestSnapshotEmpty(t *testing.T) {
	dir := t.TempDir()
	if _, _, err := WriteSnapshot(dir, 3, func(func(k, v int64) bool) error { return nil }, testOptions()); err != nil {
		t.Fatal(err)
	}
	gk, gv, seq, err := LoadSnapshot(filepath.Join(dir, snapName(3)))
	if err != nil || len(gk) != 0 || len(gv) != 0 || seq != 3 {
		t.Fatalf("empty snapshot: keys=%d err=%v", len(gk), err)
	}
}

func TestSnapshotCorruptionRejected(t *testing.T) {
	dir := t.TempDir()
	if _, _, err := WriteSnapshot(dir, 2, func(yield func(k, v int64) bool) error {
		for i := int64(0); i < 1000; i++ {
			if !yield(i, i) {
				break
			}
		}
		return nil
	}, testOptions()); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, snapName(2))
	data, _ := os.ReadFile(path)
	for _, off := range []int{4, len(data) / 2, len(data) - 2} {
		corrupt := bytes.Clone(data)
		corrupt[off] ^= 0x01
		if err := os.WriteFile(path, corrupt, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, _, err := LoadSnapshot(path); err == nil {
			t.Fatalf("corruption at offset %d accepted", off)
		}
	}
}

func TestRecoverPicksNewestValidSnapshot(t *testing.T) {
	dir := t.TempDir()
	write := func(seq uint64, v int64) {
		if _, _, err := WriteSnapshot(dir, seq, func(yield func(k, v int64) bool) error {
			yield(1, v)
			return nil
		}, testOptions()); err != nil {
			t.Fatal(err)
		}
	}
	write(2, 100)
	write(5, 200)
	// Corrupt the newest: Recover must fall back to seq 2 and replay from it.
	path := filepath.Join(dir, snapName(5))
	data, _ := os.ReadFile(path)
	data[len(data)-1] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	w, err := OpenLog(dir, 2, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := w.AppendPut(9, 9); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	var tail []Record
	var loadedK, loadedV []int64
	rec, err := Recover(dir, func(keys, vals []int64) error {
		loadedK, loadedV = keys, vals
		return nil
	}, func(r *Record) error {
		tail = append(tail, Record{Kind: r.Kind, Keys: append([]int64(nil), r.Keys...), Vals: append([]int64(nil), r.Vals...)})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(loadedK) != 1 || loadedK[0] != 1 || loadedV[0] != 100 {
		t.Fatalf("expected fallback snapshot contents, got keys=%v vals=%v", loadedK, loadedV)
	}
	if len(tail) != 1 || tail[0].Keys[0] != 9 {
		t.Fatalf("expected WAL tail replay of 1 record, got %v", tail)
	}
	if rec.NextSeq != 3 {
		t.Fatalf("NextSeq %d, want 3", rec.NextSeq)
	}
}

func TestRecoverRefusesWhenOnlySnapshotInvalid(t *testing.T) {
	dir := t.TempDir()
	// A checkpointed store: snapshot at cut 2, WAL prefix truncated.
	if _, _, err := WriteSnapshot(dir, 2, func(yield func(k, v int64) bool) error {
		for i := int64(0); i < 100; i++ {
			if !yield(i, i) {
				break
			}
		}
		return nil
	}, testOptions()); err != nil {
		t.Fatal(err)
	}
	w, err := OpenLog(dir, 2, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := w.AppendPut(1000, 1); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// The snapshot rots. Recovery must refuse — silently proceeding would
	// resurrect a store holding only the 1-record WAL tail.
	path := filepath.Join(dir, snapName(2))
	data, _ := os.ReadFile(path)
	data[len(data)/2] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Recover(dir, func(_, _ []int64) error { return nil }, func(*Record) error { return nil }); err == nil {
		t.Fatal("Recover accepted a store whose only snapshot is corrupt")
	}
	// Same refusal when the snapshot file is gone entirely but the WAL
	// visibly starts past segment 1.
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	if _, err := Recover(dir, func(_, _ []int64) error { return nil }, func(*Record) error { return nil }); err == nil {
		t.Fatal("Recover accepted a WAL that starts past segment 1 with no snapshot")
	}
}

func TestRecoverRefusesFallbackPastTruncatedSegments(t *testing.T) {
	dir := t.TempDir()
	write := func(seq uint64, v int64) {
		if _, _, err := WriteSnapshot(dir, seq, func(yield func(k, v int64) bool) error {
			yield(1, v)
			return nil
		}, testOptions()); err != nil {
			t.Fatal(err)
		}
	}
	write(2, 100)
	write(5, 200)
	// Segments < 5 are truncated (the newer snapshot covered them); only
	// the active segment 5 remains.
	w, err := OpenLog(dir, 5, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// Newest snapshot rots: falling back to snapshot 2 would need segments
	// 2-4, which are gone — recovery must error, not lose their records.
	path := filepath.Join(dir, snapName(5))
	data, _ := os.ReadFile(path)
	data[len(data)-1] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Recover(dir, func(_, _ []int64) error { return nil }, func(*Record) error { return nil }); err == nil {
		t.Fatal("Recover silently skipped truncated WAL segments")
	}
}

func TestAppendBatchChunksOversized(t *testing.T) {
	old := maxBatchPairs
	maxBatchPairs = 3
	defer func() { maxBatchPairs = old }()

	dir := t.TempDir()
	w, err := OpenLog(dir, 1, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]int64, 10)
	vals := make([]int64, 10)
	for i := range keys {
		keys[i] = int64(i)
		vals[i] = int64(i) * 10
	}
	if err := w.AppendPutBatch(keys, vals); err != nil {
		t.Fatal(err)
	}
	if err := w.AppendDeleteBatch(keys[:7]); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	records := 0
	got := map[int64]int64{}
	if _, err := Replay(dir, 1, func(r *Record) error {
		records++
		if len(r.Keys) > 3 {
			t.Fatalf("record carries %d pairs, over the chunk cap", len(r.Keys))
		}
		applyToModel(got, r)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if records != 4+3 { // 10 puts in ceil(10/3)=4 chunks, 7 deletes in 3
		t.Fatalf("got %d chunk records, want 7", records)
	}
	want := map[int64]int64{7: 70, 8: 80, 9: 90}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("chunked replay %v, want %v", got, want)
	}
}

func TestRecoverFreshDir(t *testing.T) {
	dir := t.TempDir()
	loaded := -1
	rec, err := Recover(dir, func(keys, _ []int64) error {
		loaded = len(keys)
		return nil
	}, func(*Record) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if loaded != 0 || rec.NextSeq != 1 {
		t.Fatalf("fresh dir: loaded=%d nextSeq=%d", loaded, rec.NextSeq)
	}
}

// TestWriteSnapshotIteratorErrorAborts pins the pre-publish gate: when the
// iterator returns an error (durable.go returns the WAL Sync result there,
// so an unsyncable log must not be superseded), no snapshot may be
// published and no temp file may linger.
func TestWriteSnapshotIteratorErrorAborts(t *testing.T) {
	dir := t.TempDir()
	wantErr := errors.New("sync failed")
	if _, _, err := WriteSnapshot(dir, 4, func(yield func(k, v int64) bool) error {
		yield(1, 1)
		return wantErr
	}, testOptions()); err != wantErr {
		t.Fatalf("err = %v, want %v", err, wantErr)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		t.Fatalf("aborted snapshot left %q behind", e.Name())
	}
}

// TestSnapshotWritersSameBytes pins the snapshot file format: for a fixed
// pair set and block size, the pair writer and the pre-encoded block writer
// produce byte-identical files, and those bytes hash to what the format has
// always produced.
func TestSnapshotWritersSameBytes(t *testing.T) {
	const (
		blockEntries = 64
		wantSHA256   = "5ac0d7876c7e5720eae84954dbff05e27acf7f5d993fd1010112e9a15e6bee41"
	)
	keys := make([]int64, 1000)
	vals := make([]int64, 1000)
	k := int64(-3000)
	for i := range keys {
		k += int64(i%5) + 1
		keys[i], vals[i] = k, int64(i*i)-500
	}
	o := testOptions()
	o.SnapshotBlockEntries = blockEntries
	pairDir, blockDir := t.TempDir(), t.TempDir()
	if _, _, err := WriteSnapshot(pairDir, 9, func(yield func(k, v int64) bool) error {
		for i := range keys {
			if !yield(keys[i], vals[i]) {
				break
			}
		}
		return nil
	}, o); err != nil {
		t.Fatal(err)
	}
	if _, _, err := WriteSnapshotBlocks(blockDir, 9, func(yield func(payload []byte, pairs int) bool) error {
		for lo := 0; lo < len(keys); lo += blockEntries {
			hi := min(lo+blockEntries, len(keys))
			if !yield(codec.AppendBlock(nil, keys[lo:hi], vals[lo:hi]), hi-lo) {
				break
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	pairs, err := os.ReadFile(filepath.Join(pairDir, snapName(9)))
	if err != nil {
		t.Fatal(err)
	}
	blocks, err := os.ReadFile(filepath.Join(blockDir, snapName(9)))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(pairs, blocks) {
		t.Fatalf("pair writer wrote %d bytes, block writer %d, and they differ", len(pairs), len(blocks))
	}
	if got := fmt.Sprintf("%x", sha256.Sum256(pairs)); got != wantSHA256 {
		t.Fatalf("snapshot file hashes to %s, want %s", got, wantSHA256)
	}
}
