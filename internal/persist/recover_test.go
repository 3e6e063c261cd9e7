package persist_test

import (
	"math/rand"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"pmago"
	"pmago/internal/persist"
)

// TestRecoverFoldMatchesReplay checks that Open, which bulk-loads the
// snapshot with the WAL tail folded in (persist.Recover), restores exactly
// the state the per-record replay restored: the snapshot bulk-loaded, every
// tail record applied in log order through the update path its kind names,
// then a Flush. Each case writes a random snapshot and a random tail — point
// and batch records, keys repeated within and across records, deletes of
// absent keys, sentinels in a DeleteBatch, the tail spread over several
// segments — and recovers the same files both ways, in both chunk layouts.
// The first cases cover a directory without a snapshot, an empty snapshot
// and an empty tail.
func TestRecoverFoldMatchesReplay(t *testing.T) {
	seed := time.Now().UnixNano()
	t.Logf("seed %d", seed)
	rng := rand.New(rand.NewSource(seed))
	layouts := []struct {
		name string
		opts []pmago.Option
	}{
		{"slots", nil},
		{"blocks", []pmago.Option{pmago.WithCompressedChunks()}},
	}
	for c := 0; c < 24; c++ {
		snapPairs, tailRecs := rng.Intn(2000), rng.Intn(300)
		switch c {
		case 0:
			snapPairs = -1 // no snapshot file at all
		case 1:
			snapPairs = 0
		case 2:
			tailRecs = 0
		}
		dir := t.TempDir()
		writeStore(t, rng, dir, snapPairs, tailRecs)
		for _, l := range layouts {
			want := replayRecover(t, dir, l.opts)
			db, err := pmago.Open(dir, l.opts...)
			if err != nil {
				t.Fatalf("seed %d case %d %s: Open: %v", seed, c, l.name, err)
			}
			got := scanPairs(db.ScanAll)
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got, want) {
				i := 0
				for i < min(len(got), len(want)) && got[i] == want[i] {
					i++
				}
				t.Fatalf("seed %d case %d %s (snapshot %d pairs, tail %d records): Open recovered %d pairs, the per-record replay %d; they differ at pair %d",
					seed, c, l.name, snapPairs, tailRecs, len(got), len(want), i)
			}
		}
	}
}

// writeStore writes a snapshot of snapPairs random pairs covering the WAL
// before segment 2 (no snapshot when snapPairs < 0), then tailRecs random
// records from that segment on, in segments small enough that the tail
// spans several.
func writeStore(t *testing.T, rng *rand.Rand, dir string, snapPairs, tailRecs int) {
	const keySpace = 4096
	key := func() int64 { return int64(rng.Intn(keySpace) - keySpace/4) }
	val := func() int64 { return rng.Int63() - rng.Int63() }
	seq := uint64(1)
	if snapPairs >= 0 {
		seq = 2
		snap := map[int64]int64{}
		for len(snap) < snapPairs {
			snap[key()] = val()
		}
		keys := make([]int64, 0, len(snap))
		for k := range snap {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		if _, _, err := persist.WriteSnapshot(dir, seq, func(yield func(k, v int64) bool) error {
			for _, k := range keys {
				if !yield(k, snap[k]) {
					break
				}
			}
			return nil
		}, persist.Options{SnapshotBlockEntries: 64}); err != nil {
			t.Fatal(err)
		}
	}
	w, err := persist.OpenLog(dir, seq, persist.Options{Fsync: persist.FsyncNone, SegmentBytes: 1 << 12})
	if err != nil {
		t.Fatal(err)
	}
	// batchKeys draws a clustered batch, so most batches repeat a key.
	batchKeys := func() []int64 {
		base, keys := key(), make([]int64, 1+rng.Intn(64))
		for i := range keys {
			keys[i] = base + int64(rng.Intn(16))
		}
		return keys
	}
	for range tailRecs {
		switch rng.Intn(4) {
		case 0:
			err = w.AppendPut(key(), val())
		case 1:
			err = w.AppendDelete(key())
		case 2:
			keys := batchKeys()
			vals := make([]int64, len(keys))
			for i := range vals {
				vals[i] = val()
			}
			err = w.AppendPutBatch(keys, vals)
		case 3:
			// A DeleteBatch is logged as the caller passed it, sentinels
			// included; the store ignores them.
			keys := batchKeys()
			if rng.Intn(4) == 0 {
				keys = append(keys, pmago.KeyMin, pmago.KeyMax)
			}
			err = w.AppendDeleteBatch(keys)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

// replayRecover recovers dir the way Open did before the tail was folded:
// the snapshot (the one writeStore wrote, if any) bulk-loaded, then every
// tail record applied through the store's update paths in log order, then
// a Flush for the updates combining deferred.
func replayRecover(t *testing.T, dir string, opts []pmago.Option) [][2]int64 {
	var keys, vals []int64
	from := uint64(1)
	snaps, err := filepath.Glob(filepath.Join(dir, "snap-*.pma"))
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) > 0 {
		if keys, vals, from, err = persist.LoadSnapshot(snaps[0]); err != nil {
			t.Fatal(err)
		}
	}
	p, err := pmago.BulkLoad(keys, vals, opts...)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if _, err := persist.Replay(dir, from, func(r *persist.Record) error {
		switch r.Kind {
		case persist.KindPut:
			p.Put(r.Keys[0], r.Vals[0])
		case persist.KindDelete:
			p.Delete(r.Keys[0])
		case persist.KindPutBatch:
			p.PutBatch(r.Keys, r.Vals)
		case persist.KindDeleteBatch:
			p.DeleteBatch(r.Keys)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	p.Flush()
	return scanPairs(p.ScanAll)
}

func scanPairs(scan func(func(k, v int64) bool)) [][2]int64 {
	var pairs [][2]int64
	scan(func(k, v int64) bool {
		pairs = append(pairs, [2]int64{k, v})
		return true
	})
	return pairs
}
