package pmago

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pmago/internal/persist"
)

func scanToMap(t *testing.T, p interface {
	ScanAll(func(k, v int64) bool)
}) map[int64]int64 {
	t.Helper()
	m := map[int64]int64{}
	p.ScanAll(func(k, v int64) bool {
		m[k] = v
		return true
	})
	return m
}

func TestOpenFreshPutReopen(t *testing.T) {
	for _, policy := range []FsyncPolicy{FsyncAlways, FsyncInterval, FsyncNone} {
		t.Run(policy.String(), func(t *testing.T) {
			dir := t.TempDir()
			db, err := Open(dir, WithFsync(policy), withFsyncInterval(time.Millisecond))
			if err != nil {
				t.Fatal(err)
			}
			model := map[int64]int64{}
			for i := int64(0); i < 2000; i++ {
				db.Put(i*7, i)
				model[i*7] = i
			}
			db.PutBatch([]int64{1, 3, 5}, []int64{10, 30, 50})
			model[1], model[3], model[5] = 10, 30, 50
			if n := db.DeleteBatch([]int64{7, 21}); n != 2 {
				t.Fatalf("DeleteBatch removed %d, want 2", n)
			}
			delete(model, 7)
			delete(model, 21)
			db.Delete(14)
			delete(model, 14)
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}

			re, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			defer re.Close()
			re.Flush()
			if got := scanToMap(t, re); !reflect.DeepEqual(got, model) {
				t.Fatalf("reopen lost data: %d keys, want %d", len(got), len(model))
			}
			if err := re.Validate(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestSnapshotTruncatesWALAndRecovers(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, WithFsync(FsyncNone), WithCompactRatio(0))
	if err != nil {
		t.Fatal(err)
	}
	model := map[int64]int64{}
	for i := int64(0); i < 5000; i++ {
		db.Put(i, i*2)
		model[i] = i * 2
	}
	pre := db.WALBytes()
	if err := db.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if post := db.WALBytes(); post >= pre/2 {
		t.Fatalf("snapshot did not truncate the WAL: %d -> %d bytes", pre, post)
	}
	if err := db.Validate(); err != nil {
		t.Fatal(err)
	}
	// Tail writes after the checkpoint land in the WAL only.
	for i := int64(0); i < 500; i++ {
		db.Put(-i-1, i)
		model[-i-1] = i
	}
	db.DeleteBatch([]int64{0, 2, 4})
	delete(model, 0)
	delete(model, 2)
	delete(model, 4)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	re.Flush()
	if got := scanToMap(t, re); !reflect.DeepEqual(got, model) {
		t.Fatalf("snapshot+tail recovery mismatch: %d keys, want %d", len(got), len(model))
	}
}

// crashOp is one acknowledged update plus the durable WAL size right after
// it returned — the boundary the truncation property test cuts against.
type crashOp struct {
	apply  func(m map[int64]int64)
	endOff int64
}

// TestCrashRecoveryProperty is the crash property test: a workload of
// acknowledged FsyncAlways updates is recorded together with each op's WAL
// end offset; the log is then truncated at random byte offsets (a crash mid
// group of appends), reopened, and the recovered store must equal the model
// of exactly the ops whose records fit below the cut — every acknowledged-
// durable op survives, nothing partial leaks in. Each cut is tried twice:
// as the bare prefix, and as the image a kill leaves of a preallocated
// active segment — the prefix followed by zeros up to the segment size.
func TestCrashRecoveryProperty(t *testing.T) {
	const segBytes = 64 << 10
	dir := t.TempDir()
	db, err := Open(dir, WithFsync(FsyncAlways), WithCompactRatio(0), withWALSegmentBytes(segBytes))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	var ops []crashOp
	for i := 0; i < 400; i++ {
		var apply func(m map[int64]int64)
		switch rng.Intn(4) {
		case 0:
			k, v := rng.Int63n(200), rng.Int63()
			db.Put(k, v)
			apply = func(m map[int64]int64) { m[k] = v }
		case 1:
			k := rng.Int63n(200)
			db.Delete(k)
			apply = func(m map[int64]int64) { delete(m, k) }
		case 2:
			n := 1 + rng.Intn(8)
			keys := make([]int64, n)
			vals := make([]int64, n)
			for j := range keys {
				keys[j] = rng.Int63n(200)
				vals[j] = rng.Int63()
			}
			db.PutBatch(keys, vals)
			apply = func(m map[int64]int64) {
				for j := range keys {
					m[keys[j]] = vals[j]
				}
			}
		default:
			n := 1 + rng.Intn(8)
			keys := make([]int64, n)
			for j := range keys {
				keys[j] = rng.Int63n(200)
			}
			db.DeleteBatch(keys)
			apply = func(m map[int64]int64) {
				for _, k := range keys {
					delete(m, k)
				}
			}
		}
		ops = append(ops, crashOp{apply: apply, endOff: db.WALBytes()})
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	walName := fmt.Sprintf("wal-%020d.log", 1)
	wal, err := os.ReadFile(filepath.Join(dir, walName))
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(wal)) != ops[len(ops)-1].endOff {
		t.Fatalf("wal is %d bytes, last op ended at %d", len(wal), ops[len(ops)-1].endOff)
	}
	if len(wal) > segBytes {
		t.Fatalf("wal is %d bytes, over the %d-byte segment", len(wal), segBytes)
	}

	cuts := []int64{0, 1, 7, int64(len(wal)) - 1, int64(len(wal))}
	for i := 0; i < 40; i++ {
		cuts = append(cuts, rng.Int63n(int64(len(wal))+1))
	}
	for _, cut := range cuts {
		// The acknowledged-durable prefix: every op whose record fully
		// precedes the cut. A record straddling the cut is torn and, with
		// it, everything after — recovery may not apply any of it.
		want := map[int64]int64{}
		for _, op := range ops {
			if op.endOff > cut {
				break
			}
			op.apply(want)
		}
		killed := make([]byte, segBytes)
		copy(killed, wal[:cut])
		for _, image := range [][]byte{wal[:cut], killed} {
			trial := t.TempDir()
			if err := os.WriteFile(filepath.Join(trial, walName), image, 0o644); err != nil {
				t.Fatal(err)
			}
			re, err := Open(trial)
			if err != nil {
				t.Fatalf("cut %d (%d-byte image): reopen: %v", cut, len(image), err)
			}
			re.Flush()
			got := scanToMap(t, re)
			if verr := re.Validate(); verr != nil {
				t.Fatalf("cut %d (%d-byte image): %v", cut, len(image), verr)
			}
			re.Close()
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("cut %d of %d (%d-byte image): recovered %d keys, want %d", cut, len(wal), len(image), len(got), len(want))
			}
		}
	}
}

// TestCorruptRecordRejectedOnOpen flips a byte inside the WAL. Mid-file,
// with checksum-valid records after the damage, that is bit rot eating
// acknowledged writes — Open must refuse rather than silently drop the
// suffix. At the very tail it is indistinguishable from a crash mid-append
// and recovery keeps the intact prefix, leaking no garbage.
func TestCorruptRecordRejectedOnOpen(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, WithFsync(FsyncNone), WithCompactRatio(0))
	if err != nil {
		t.Fatal(err)
	}
	const n = 500
	for i := int64(0); i < n; i++ {
		db.Put(i, i*10)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	walPath := filepath.Join(dir, fmt.Sprintf("wal-%020d.log", 1))
	data, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	midCorrupt := append([]byte(nil), data...)
	midCorrupt[len(midCorrupt)/3] ^= 0xA5
	if err := os.WriteFile(walPath, midCorrupt, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); err == nil {
		t.Fatal("Open accepted a WAL with mid-file corruption followed by valid records")
	}

	// Damage in the final record: torn-tail semantics, prefix recovered.
	tailCorrupt := append([]byte(nil), data...)
	tailCorrupt[len(tailCorrupt)-2] ^= 0xA5
	if err := os.WriteFile(walPath, tailCorrupt, 0o644); err != nil {
		t.Fatal(err)
	}
	re, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	got := scanToMap(t, re)
	if len(got) != n-1 {
		t.Fatalf("torn final record: recovered %d/%d, want %d", len(got), n, n-1)
	}
	for k, v := range got {
		if v != k*10 {
			t.Fatalf("garbage survived CRC check: %d -> %d", k, v)
		}
	}
}

// TestKillAndReopen simulates a kill -9: the directory is copied while the
// store is still open (nothing sealed by Close, the active segment still at
// its preallocated size) and reopened elsewhere. A process kill loses
// nothing under any fsync policy: every acknowledged record is in the page
// cache, which is what the copy reads.
func TestKillAndReopen(t *testing.T) {
	for _, policy := range []FsyncPolicy{FsyncAlways, FsyncInterval, FsyncNone} {
		t.Run(policy.String(), func(t *testing.T) {
			dir := t.TempDir()
			db, err := Open(dir, WithFsync(policy), WithCompactRatio(0))
			if err != nil {
				t.Fatal(err)
			}
			model := map[int64]int64{}
			for i := int64(0); i < 1000; i++ {
				db.Put(i*3, i)
				model[i*3] = i
			}
			db.PutBatch([]int64{1, 2}, []int64{10, 20})
			model[1], model[2] = 10, 20
			// Copy the directory with the store still open — the "crash image".
			image := t.TempDir()
			ents, err := os.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range ents {
				data, err := os.ReadFile(filepath.Join(dir, e.Name()))
				if err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(filepath.Join(image, e.Name()), data, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			db.Close()

			start := time.Now()
			re, err := Open(image)
			if err != nil {
				t.Fatal(err)
			}
			defer re.Close()
			re.Flush()
			if got := scanToMap(t, re); !reflect.DeepEqual(got, model) {
				t.Fatalf("kill-and-reopen lost acknowledged writes: %d keys, want %d", len(got), len(model))
			}
			t.Logf("recovered %d keys in %v", len(model), time.Since(start))
		})
	}
}

func TestSecondOpenSameDirRefused(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	db.Put(1, 1)
	if _, err := Open(dir); err == nil {
		t.Fatal("second Open on a live directory must fail, not corrupt the owner")
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	// The flock dies with its holder: reopening after Close works.
	re, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := re.Get(1); !ok || v != 1 {
		t.Fatal("reopen after lock release lost data")
	}
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestAutoCompaction(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir,
		WithFsync(FsyncNone),
		WithCompactRatio(4),
		withCompactMinBytes(4<<10))
	if err != nil {
		t.Fatal(err)
	}
	model := map[int64]int64{}
	deadline := time.Now().Add(10 * time.Second)
	var i int64
	for db.WALBytes() < 32<<10 { // well past the trigger threshold
		db.Put(i, i)
		model[i] = i
		i++
	}
	for time.Now().Before(deadline) {
		if snaps, _ := filepath.Glob(filepath.Join(dir, "snap-*.pma")); len(snaps) > 0 && db.WALBytes() < 8<<10 {
			break
		}
		db.Put(i, i)
		model[i] = i
		i++
		time.Sleep(time.Millisecond)
	}
	snaps, _ := filepath.Glob(filepath.Join(dir, "snap-*.pma"))
	if len(snaps) == 0 {
		t.Fatal("auto-compaction never produced a snapshot")
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	re.Flush()
	if got := scanToMap(t, re); !reflect.DeepEqual(got, model) {
		t.Fatalf("post-compaction recovery mismatch: %d keys, want %d", len(got), len(model))
	}
}

// TestStructuralEventsInStats checks that the structural events a store goes
// through show in Stats: every checkpoint is timed and an auto compaction is
// counted apart from a Snapshot call; every global rebalance and resize lands
// in the stall window with its duration, each ModeSync Put that caused one
// waited once for its hand-off, and a Sharded store's windows are the merge
// of its shards'.
func TestStructuralEventsInStats(t *testing.T) {
	db, err := Open(t.TempDir(), WithFsync(FsyncNone), WithCompactRatio(4),
		withCompactMinBytes(64<<10), withWALSegmentBytes(1<<20))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for i := int64(0); i < 100; i++ {
		db.Put(i, i)
	}
	if err := db.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if ck := db.Stats().Checkpoint; ck.Snapshots != 1 || ck.DurationNanos.Count != 1 || ck.AutoCompactions != 0 {
		t.Fatalf("after Snapshot: %d checkpoints, %d timed, %d auto; want 1, 1, 0",
			ck.Snapshots, ck.DurationNanos.Count, ck.AutoCompactions)
	}
	// Grow the WAL past the compaction floor until the trigger fires.
	deadline := time.Now().Add(10 * time.Second)
	for i := int64(100); db.Stats().Checkpoint.AutoCompactions == 0; i++ {
		if time.Now().After(deadline) {
			t.Fatal("auto-compaction never ran")
		}
		db.Put(i, i)
	}
	db.Flush()
	if err := db.Validate(); err != nil {
		t.Fatal(err)
	}
	if ck := db.Stats().Checkpoint; ck.Snapshots != 2 || ck.DurationNanos.Count != 2 || ck.AutoCompactions != 1 {
		t.Fatalf("after auto compaction: %d checkpoints, %d timed, %d auto; want 2, 2, 1",
			ck.Snapshots, ck.DurationNanos.Count, ck.AutoCompactions)
	}

	// Ascending keys in a small geometry make every shard resize and run
	// global rebalances.
	s, err := NewSharded(WithShards(2), WithMode(ModeSync), WithSegmentCapacity(8), withSegmentsPerGate(2))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := int64(0); i < 30_000; i++ {
		s.Put(i, i)
	}
	s.Flush()
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	// The drive takes far less than the window's trailing interval, so the
	// window still holds every hold.
	var perShard, waits uint64
	for i, m := range s.mems {
		rb := m.Stats().Rebalance
		if rb.Global == 0 || rb.Resizes == 0 {
			t.Fatalf("shard %d: %d global rebalances, %d resizes; the drive must cause both", i, rb.Global, rb.Resizes)
		}
		// ModeSync: each of them is a Put that waited for its hand-off.
		if w := rb.HandOffWait.Count; w != rb.Global+rb.Resizes {
			t.Errorf("shard %d: %d hand-off waits, want one per global rebalance or resize (%d)", i, w, rb.Global+rb.Resizes)
		}
		waits += rb.HandOffWait.Count
		if w := rb.StallWindow; w.Count != rb.Global+rb.Resizes || w.Max != max(rb.RebalanceNanos.Max, rb.ResizeNanos.Max) {
			t.Errorf("shard %d: stall window count %d max %d; want %d holds, max %d",
				i, w.Count, w.Max, rb.Global+rb.Resizes, max(rb.RebalanceNanos.Max, rb.ResizeNanos.Max))
		}
		perShard += rb.StallWindow.Count
	}
	if w := s.Stats().Rebalance.StallWindow; w.Count != perShard || w.P99 == 0 {
		t.Errorf("merged stall window: count %d p99 %g; want the shards' %d holds and a p99", w.Count, w.P99, perShard)
	}
	if w := s.Stats().Rebalance.HandOffWait; w.Count != waits {
		t.Errorf("merged hand-off wait: count %d, want the shards' %d", w.Count, waits)
	}
}

// TestConcurrentDurableWritersRecover: point writers and one batch writer,
// each on keys of its own, rewrite their keys while snapshots run back to
// back. Every update is appended and applied under the cut's shared hold, so
// a snapshot covers exactly the records before its Rotate: after Close and
// reopen every key holds the last value its writer was acknowledged for.
func TestConcurrentDurableWritersRecover(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, WithFsync(FsyncInterval), withFsyncInterval(time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	const workers, per, width = 8, 500, 64
	var snaps atomic.Int64
	stop, snapErr := make(chan struct{}), make(chan error, 1)
	go func() {
		for {
			select {
			case <-stop:
				snapErr <- nil
				return
			default:
			}
			if err := db.Snapshot(); err != nil {
				snapErr <- err
				return
			}
			snaps.Add(1)
		}
	}()
	// A writer keeps rewriting its keys until a few snapshots have cut
	// through its rounds.
	more := func(round int) bool { return round < 2 || snaps.Load() < 4 && round < 100 }
	want := make([]map[int64]int64, workers+1) // one per writer: no sharing
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		want[w] = map[int64]int64{}
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for round := 0; more(round); round++ {
				for i := 0; i < per; i++ {
					k, v := int64(w*per+i), int64(round*100+w)
					if (i+round)%5 == 0 {
						db.Delete(k)
						delete(want[w], k)
						continue
					}
					db.Put(k, v)
					want[w][k] = v
				}
			}
		}(w)
	}
	want[workers] = map[int64]int64{}
	wg.Add(1)
	go func() {
		defer wg.Done()
		keys, vals := make([]int64, width), make([]int64, width)
		for round := 0; more(round); round++ {
			for b := 0; b < per/width; b++ {
				for i := range keys {
					// Batches overlap by half: the next rewrites a key.
					keys[i] = int64(workers*per + b*width/2 + i)
					vals[i] = int64(round*100 + b)
					want[workers][keys[i]] = vals[i]
				}
				db.PutBatch(keys, vals)
				if (b+round)%3 == 0 {
					db.DeleteBatch(keys[:width/4])
					for _, k := range keys[:width/4] {
						delete(want[workers], k)
					}
				}
			}
		}
	}()
	wg.Wait()
	close(stop)
	if err := <-snapErr; err != nil {
		t.Fatal(err)
	}
	t.Logf("%d snapshots ran beside the writers", snaps.Load())
	all := map[int64]int64{}
	for _, m := range want {
		for k, v := range m {
			all[k] = v
		}
	}
	db.Flush()
	if got := scanToMap(t, db); !reflect.DeepEqual(got, all) {
		t.Errorf("live store holds %d keys, want %d; first differences: %v", len(got), len(all), mapDiff(got, all, 5))
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := scanToMap(t, re); !reflect.DeepEqual(got, all) {
		t.Fatalf("recovered %d keys, want %d; first differences: %v", len(got), len(all), mapDiff(got, all, 5))
	}
}

// mapDiff names up to n keys on which got and want differ.
func mapDiff(got, want map[int64]int64, n int) []string {
	var out []string
	for k, w := range want {
		if g, ok := got[k]; !ok || g != w {
			out = append(out, fmt.Sprintf("%d: got %d (present %t), want %d", k, g, ok, w))
		}
	}
	for k, g := range got {
		if _, ok := want[k]; !ok {
			out = append(out, fmt.Sprintf("%d: got %d, want absent", k, g))
		}
	}
	if len(out) > n {
		out = out[:n]
	}
	return out
}

func mustPanic(t *testing.T, want string, fn func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected panic, got none")
		}
		if msg, ok := r.(string); !ok || msg != want {
			t.Fatalf("panic %v, want %q", r, want)
		}
	}()
	fn()
}

func TestUseAfterClosePanics(t *testing.T) {
	p, err := New()
	if err != nil {
		t.Fatal(err)
	}
	p.Put(1, 1)
	p.Close()
	p.Close() // double Close stays a no-op
	const msg = "pmago: use after Close"
	mustPanic(t, msg, func() { p.Put(2, 2) })
	mustPanic(t, msg, func() { p.Get(1) })
	mustPanic(t, msg, func() { p.Delete(1) })
	mustPanic(t, msg, func() { p.Scan(0, 10, func(int64, int64) bool { return true }) })
	mustPanic(t, msg, func() { p.Flush() })
	mustPanic(t, msg, func() { p.PutBatch([]int64{1}, []int64{1}) })
	mustPanic(t, msg, func() { p.DeleteBatch([]int64{1}) })
}

func TestDurableUseAfterClosePanics(t *testing.T) {
	db, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	db.Put(1, 1)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
	const msg = "pmago: use after Close"
	mustPanic(t, msg, func() { db.Put(2, 2) })
	mustPanic(t, msg, func() { db.Get(1) })
	mustPanic(t, msg, func() { _ = db.Snapshot() })
	mustPanic(t, msg, func() { _ = db.Sync() })
	mustPanic(t, msg, func() { db.Delete(1) })
	mustPanic(t, msg, func() { db.PutBatch([]int64{1}, []int64{1}) })
	mustPanic(t, msg, func() { db.DeleteBatch([]int64{1}) })
	// An update that reached the closed log would have failed its append
	// and marked the store sick.
	if err := db.Err(); err != nil {
		t.Fatalf("an update after Close reached the log: %v", err)
	}
}

// TestCompressedSnapshotInterop: snapshots are a representation-neutral
// interchange format. A snapshot cut by a compressed store must reopen into
// an uncompressed store, and vice versa, with identical content in both
// directions.
func TestCompressedSnapshotInterop(t *testing.T) {
	dir := t.TempDir()
	model := map[int64]int64{}

	db, err := Open(dir, WithCompressedChunks(), WithCompactRatio(0))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 8000; i++ {
		k, v := rng.Int63n(1<<30), rng.Int63()
		db.Put(k, v)
		model[k] = v
	}
	for k := range model {
		if rng.Intn(5) == 0 {
			db.Delete(k)
			delete(model, k)
		}
	}
	db.Flush()
	if !db.Stats().Compression.Enabled {
		t.Fatal("compressed store reports compression disabled")
	}
	if err := db.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// Compressed-written snapshot into an uncompressed store.
	db2, err := Open(dir, WithCompactRatio(0))
	if err != nil {
		t.Fatal(err)
	}
	if got := scanToMap(t, db2); !reflect.DeepEqual(got, model) {
		t.Fatalf("uncompressed reopen: %d keys, want %d", len(got), len(model))
	}
	if db2.Stats().Compression.Enabled {
		t.Fatal("uncompressed store reports compression enabled")
	}
	for i := 0; i < 1000; i++ {
		k, v := rng.Int63n(1<<30), rng.Int63()
		db2.Put(k, v)
		model[k] = v
	}
	db2.Flush()
	if err := db2.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if err := db2.Close(); err != nil {
		t.Fatal(err)
	}

	// Uncompressed-written snapshot back into a compressed store.
	db3, err := Open(dir, WithCompressedChunks())
	if err != nil {
		t.Fatal(err)
	}
	if got := scanToMap(t, db3); !reflect.DeepEqual(got, model) {
		t.Fatalf("compressed reopen: %d keys, want %d", len(got), len(model))
	}
	if err := db3.Validate(); err != nil {
		t.Fatal(err)
	}
	st := db3.Stats()
	if !st.Compression.Enabled || st.Compression.Pairs != uint64(len(model)) {
		t.Fatalf("compression stats after reopen: %+v (want %d pairs)", st.Compression, len(model))
	}
	if err := db3.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotLayoutNeutral: a checkpoint is one scan of the pairs, whatever
// the chunk layout. The same pairs, spread over many segments, in a slot
// store and a block store checkpoint to byte-identical snapshot files.
func TestSnapshotLayoutNeutral(t *testing.T) {
	const n = 20_000
	rng := rand.New(rand.NewSource(11))
	keys, vals := make([]int64, n), make([]int64, n)
	for i := range keys {
		keys[i], vals[i] = rng.Int63n(1<<40), rng.Int63n(1<<20)-(1<<19)
	}
	snap := func(opts ...Option) (name string, data []byte) {
		dir := t.TempDir()
		opts = append([]Option{WithFsync(FsyncNone), WithCompactRatio(0), withWALSegmentBytes(1 << 20)}, opts...)
		db, err := Open(dir, opts...)
		if err != nil {
			t.Fatal(err)
		}
		db.PutBatch(keys, vals)
		if err := db.Snapshot(); err != nil {
			t.Fatal(err)
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		snaps, err := filepath.Glob(filepath.Join(dir, "snap-*.pma"))
		if err != nil || len(snaps) != 1 {
			t.Fatalf("snapshot files %v, %v; want one", snaps, err)
		}
		data, err = os.ReadFile(snaps[0])
		if err != nil {
			t.Fatal(err)
		}
		return filepath.Base(snaps[0]), data
	}
	slotName, slots := snap()
	blockName, blocks := snap(WithCompressedChunks())
	if slotName != blockName {
		t.Fatalf("slot store wrote %s, block store %s", slotName, blockName)
	}
	if !bytes.Equal(slots, blocks) {
		t.Fatalf("slot store wrote %d snapshot bytes, block store %d, and they differ", len(slots), len(blocks))
	}
}

// TestEmptyBatchesLogNothing: an update call that changes nothing — a batch
// of no keys, or a DeleteBatch of sentinel keys only — or that the store
// rejects — a sentinel key, mismatched batch lengths — returns or panics
// before it appends, so it costs neither a WAL record nor, under
// FsyncAlways, an fsync. A rejected call panics exactly as a PMA does.
func TestEmptyBatchesLogNothing(t *testing.T) {
	db, err := Open(t.TempDir()) // FsyncAlways
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	p, err := New()
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	db.Put(1, 1)
	bytes, appends := db.WALBytes(), db.Stats().WAL.Appends
	db.PutBatch(nil, nil)
	db.PutBatch([]int64{}, []int64{})
	if n := db.DeleteBatch(nil) + db.DeleteBatch([]int64{KeyMin, KeyMax, KeyMin}); n != 0 {
		t.Fatalf("empty DeleteBatches removed %d keys", n)
	}
	if db.Delete(KeyMax) {
		t.Fatal("Delete(KeyMax) reported a removal")
	}
	for _, c := range []struct {
		name string
		call func(Store)
	}{
		{"Put(KeyMin)", func(s Store) { s.Put(KeyMin, 1) }},
		{"PutBatch with KeyMax", func(s Store) { s.PutBatch([]int64{2, KeyMax, 3}, []int64{2, 2, 3}) }},
		{"PutBatch of 2 keys and 1 value", func(s Store) { s.PutBatch([]int64{2, 3}, []int64{2}) }},
	} {
		want, got := panicValue(func() { c.call(p) }), panicValue(func() { c.call(db) })
		if want == nil || got != want {
			t.Fatalf("%s: DB panicked with %v, PMA with %v", c.name, got, want)
		}
	}
	if b, a := db.WALBytes(), db.Stats().WAL.Appends; b != bytes || a != appends {
		t.Fatalf("no-op and rejected updates moved the WAL: %d -> %d bytes, %d -> %d appends", bytes, b, appends, a)
	}
	db.DeleteBatch([]int64{KeyMin, 1})
	if a := db.Stats().WAL.Appends; a != appends+1 {
		t.Fatalf("a DeleteBatch with one real key appended %d records, want 1", a-appends)
	}
}

// TestRejectedBatchChangesNothing: every front rejects a PutBatch that
// holds a sentinel key, or has more keys than values, before any part of it
// is applied or logged — a sharded store before it splits the batch — and
// panics with the message of the in-memory store's own check.
func TestRejectedBatchChangesNothing(t *testing.T) {
	mem, err := New()
	if err != nil {
		t.Fatal(err)
	}
	defer mem.Close()
	db, err := Open(t.TempDir(), withWALSegmentBytes(1<<20))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	memSharded, err := NewSharded(WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	defer memSharded.Close()
	durSharded, err := OpenSharded(t.TempDir(), WithShards(4), withWALSegmentBytes(1<<20))
	if err != nil {
		t.Fatal(err)
	}
	defer durSharded.Close()

	keys := []int64{1, 2, 3, 4, 5, 6, 7, 8, KeyMax}
	vals := make([]int64, len(keys))
	calls := []struct {
		name string
		call func(Store)
	}{
		{"PutBatch of keys 1-8 and KeyMax", func(s Store) { s.PutBatch(keys, vals) }},
		{"PutBatch of 8 keys and 7 values", func(s Store) { s.PutBatch(keys[:8], vals[:7]) }},
	}
	for _, c := range calls {
		want := panicValue(func() { c.call(mem) })
		if msg, ok := want.(string); !ok || !strings.HasPrefix(msg, "core: ") {
			t.Fatalf("%s: PMA panicked with %v, want core's message", c.name, want)
		}
		for name, s := range map[string]Store{"PMA": mem, "DB": db, "NewSharded": memSharded, "OpenSharded": durSharded} {
			walBytes := func() int64 {
				if d, ok := s.(DurableStore); ok {
					return d.WALBytes()
				}
				return 0
			}
			size, appends := walBytes(), s.Stats().WAL.Appends
			if got := panicValue(func() { c.call(s) }); got != want {
				t.Fatalf("%s: %s panicked with %v, PMA with %v", c.name, name, got, want)
			}
			if n := s.Len(); n != 0 {
				t.Errorf("%s: %s holds %d keys after the rejected batch", c.name, name, n)
			}
			if b, a := walBytes(), s.Stats().WAL.Appends; b != size || a != appends {
				t.Errorf("%s: %s's log moved: %d -> %d bytes, %d -> %d appends", c.name, name, size, b, appends, a)
			}
		}
	}
}

// panicValue runs fn and returns what it panicked with, or nil.
func panicValue(fn func()) (r any) {
	defer func() { r = recover() }()
	fn()
	return nil
}

// TestReplayAcceptsEmptyBatchRecords: logs written before empty batches
// stopped at the hook hold such records; recovery must keep replaying them.
func TestReplayAcceptsEmptyBatchRecords(t *testing.T) {
	dir := t.TempDir()
	log, err := persist.OpenLog(dir, 1, persist.Options{Fsync: persist.FsyncNone})
	if err != nil {
		t.Fatal(err)
	}
	for _, err := range []error{
		log.AppendPut(1, 10),
		log.AppendPutBatch(nil, nil),
		log.AppendDeleteBatch(nil),
		log.AppendDeleteBatch([]int64{KeyMin, KeyMax}),
		log.AppendPut(2, 20),
		log.Close(),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}
	db, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if got, want := scanToMap(t, db), map[int64]int64{1: 10, 2: 20}; !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered %v, want %v", got, want)
	}
	if r := db.Stats().Recovery.WALRecords; r != 5 {
		t.Fatalf("replayed %d records, want 5", r)
	}
}
