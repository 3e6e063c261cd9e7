package pmago

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
)

// benchKey spreads index i over the key space: the splitmix64 finalizer,
// shifted clear of the KeyMin/KeyMax sentinels.
func benchKey(i uint64) int64 {
	z := i * 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64((z ^ (z >> 31)) >> 2)
}

// BenchmarkOpen prices recovery: reopening a closed FsyncNone store holding
// a 2^20-pair snapshot and a WAL tail of point Puts of fresh keys, in both
// chunk layouts (slots, and compressed blocks) and as a 4-shard store of
// slots (sharded, whose shards recover in parallel). Recovery reads the
// snapshot and the tail, folds the tail into the snapshot's pairs and
// bulk-loads the result once. ns/op and B/op are the whole Open. From
// Stats().Recovery, summed over shards: load-ns/op is the snapshot load
// phase (reading the snapshot, and the one bulk load), ns/record the WAL
// replay phase (reading the tail and folding it in) per tail record. Every
// iteration reopens the same files: the empty segments each Open leaves
// behind are removed before the next. -short stops the tail at 2^18.
func BenchmarkOpen(b *testing.B) {
	const snapN = 1 << 20
	tails := []int{0, 1 << 18, 1 << 20, 1 << 22}
	if testing.Short() {
		tails = tails[:2]
	}
	base := []Option{WithFsync(FsyncNone), WithCompactRatio(0)}
	stores := []struct {
		name string
		open durableOpener
	}{
		{"slots", openWith(base...)},
		{"blocks", openWith(append(base, WithCompressedChunks())...)},
		{"sharded", func(dir string) (DurableStore, error) {
			return OpenSharded(dir, append(base, WithShards(4))...)
		}},
	}
	for _, store := range stores {
		for _, tail := range tails {
			dir := b.TempDir()
			built := false
			b.Run(fmt.Sprintf("%s/tail=%d", store.name, tail), func(b *testing.B) {
				if !built { // b.Run calls this once per b.N: build once
					buildRecoveryDir(b, dir, snapN, tail, store.open)
					built = true
				}
				keep := dirFiles(b, dir)
				var loadNanos, replayNanos, records uint64
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					db, err := store.open(dir)
					if err != nil {
						b.Fatal(err)
					}
					b.StopTimer()
					rec := db.Stats().Recovery
					loadNanos += rec.SnapshotLoadNanos
					replayNanos += rec.WALReplayNanos
					records += rec.WALRecords
					if n := db.Len(); n != snapN+tail {
						b.Fatalf("recovered %d pairs, want %d", n, snapN+tail)
					}
					if err := db.Close(); err != nil {
						b.Fatal(err)
					}
					for path := range dirFiles(b, dir) {
						if keep[path] {
							continue
						}
						if err := os.Remove(path); err != nil {
							b.Fatal(err)
						}
					}
					b.StartTimer()
				}
				b.ReportMetric(float64(loadNanos)/float64(b.N), "load-ns/op")
				if records > 0 {
					b.ReportMetric(float64(replayNanos)/float64(records), "ns/record")
				}
			})
			os.RemoveAll(dir)
		}
	}
}

// durableOpener opens (creating it if necessary) the store in dir.
type durableOpener func(dir string) (DurableStore, error)

// openWith opens a DB with opts.
func openWith(opts ...Option) durableOpener {
	return func(dir string) (DurableStore, error) { return Open(dir, opts...) }
}

// BenchmarkSnapshot prices a checkpoint: Snapshot of an open FsyncNone store
// holding 2^20 pairs (2^16 under -short), in both chunk layouts. Both take
// the same path — the cut, a ScanAll re-cut into snapshot blocks, the WAL
// sync, the file's fsync and rename — so blocks differ from slots only in
// the scan's decode. The store is loaded, checkpointed and reopened before
// the timer starts, so every timed Snapshot finds an empty WAL tail.
// ns/pair is ns/op over the store's pairs.
func BenchmarkSnapshot(b *testing.B) {
	n := 1 << 20
	if testing.Short() {
		n = 1 << 16
	}
	for _, layout := range []struct {
		name string
		opts []Option
	}{
		{"slots", nil},
		{"blocks", []Option{WithCompressedChunks()}},
	} {
		opts := append([]Option{WithFsync(FsyncNone), WithCompactRatio(0)}, layout.opts...)
		dir := b.TempDir()
		var db *DB
		b.Run(fmt.Sprintf("%s/pairs=%d", layout.name, n), func(b *testing.B) {
			if db == nil { // b.Run calls this once per b.N: build once
				buildRecoveryDir(b, dir, n, 0, openWith(opts...))
				var err error
				if db, err = Open(dir, opts...); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := db.Snapshot(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/pair")
		})
		if db != nil {
			if err := db.Close(); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// buildRecoveryDir writes a store of snapN pairs, checkpointed, followed by
// tail point Puts of fresh keys, and closes it.
func buildRecoveryDir(b *testing.B, dir string, snapN, tail int, open durableOpener) {
	db, err := open(dir)
	if err != nil {
		b.Fatal(err)
	}
	const chunk = 1 << 16
	keys, vals := make([]int64, chunk), make([]int64, chunk)
	for off := 0; off < snapN; off += chunk {
		n := min(chunk, snapN-off)
		for i := range n {
			keys[i] = benchKey(uint64(off + i))
			vals[i] = int64(off + i)
		}
		db.PutBatch(keys[:n], vals[:n])
	}
	if err := db.Snapshot(); err != nil {
		b.Fatal(err)
	}
	for i := snapN; i < snapN+tail; i++ {
		db.Put(benchKey(uint64(i)), int64(i))
	}
	if err := db.Close(); err != nil {
		b.Fatal(err)
	}
}

// dirFiles lists the paths of the files under dir.
func dirFiles(b *testing.B, dir string) map[string]bool {
	files := map[string]bool{}
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			files[path] = true
		}
		return err
	})
	if err != nil {
		b.Fatal(err)
	}
	return files
}

// BenchmarkDurablePut prices a point Put of a fresh key into a durable store
// under each fsync policy. b.RunParallel runs one writer per P, so
// -cpu 1,2,4 is the writer sweep: under FsyncAlways the writers share each
// group commit's fsync, and fsyncs/op (Stats().WAL) shows how many they
// shared.
func BenchmarkDurablePut(b *testing.B) {
	for _, policy := range []FsyncPolicy{FsyncAlways, FsyncInterval, FsyncNone} {
		b.Run("fsync="+policy.String(), func(b *testing.B) {
			db, err := Open(b.TempDir(), WithFsync(policy), WithCompactRatio(0))
			if err != nil {
				b.Fatal(err)
			}
			defer db.Close()
			var next atomic.Uint64
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					i := next.Add(1)
					db.Put(benchKey(i), int64(i))
				}
			})
			b.StopTimer()
			b.ReportMetric(float64(db.Stats().WAL.Fsyncs)/float64(b.N), "fsyncs/op")
			if err := db.Close(); err != nil {
				b.Fatal(err)
			}
		})
	}
}
