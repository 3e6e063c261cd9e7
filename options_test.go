package pmago

import (
	"errors"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// Test-only settings: what the public options fix (the paper's segments per
// gate, one rebalancer worker per core up to 8, a 50 ms fsync interval,
// 64 MiB WAL segments, an 8 MiB compaction floor), lowered so tests run
// small geometries, fast fsync timers and tiny WAL segments.
func withSegmentsPerGate(n int) Option { return func(c *config) { c.core.SegmentsPerGate = n } }

func withWorkers(n int) Option { return func(c *config) { c.core.Workers = n } }

func withFsyncInterval(d time.Duration) Option {
	return func(c *config) { c.durOpt("withFsyncInterval"); c.dur.FsyncEvery = d }
}

func withWALSegmentBytes(n int64) Option {
	return func(c *config) { c.durOpt("withWALSegmentBytes"); c.dur.SegmentBytes = n }
}

func withCompactMinBytes(n int64) Option {
	return func(c *config) { c.durOpt("withCompactMinBytes"); c.dur.CompactMinBytes = n }
}

// TestMisappliedOptionsRejected checks every constructor rejects the option
// groups it cannot honor, naming the offending option — instead of the old
// behavior of silently dropping it — and that the durable constructors
// reject, by value, a durability setting they cannot honour: an unknown
// fsync policy used to fsync nothing, and a NaN or infinite compaction
// ratio used to compact at the 8 MiB floor.
func TestMisappliedOptionsRejected(t *testing.T) {
	dir := t.TempDir()
	// opened closes a store that a row built although it should not have.
	opened := func(c io.Closer, err error) error {
		if err == nil {
			c.Close()
		}
		return err
	}
	cases := []struct {
		name    string
		build   func() error
		wantOpt string
	}{
		{"New+WithFsync", func() error {
			_, err := New(WithFsync(FsyncAlways))
			return err
		}, "WithFsync"},
		{"New+WithShards", func() error {
			_, err := New(WithShards(4))
			return err
		}, "WithShards"},
		{"New+WithCompactRatio", func() error {
			_, err := New(WithCompactRatio(2))
			return err
		}, "WithCompactRatio"},
		{"BulkLoad+WithFsync", func() error {
			_, err := BulkLoad([]int64{1}, []int64{2}, WithFsync(FsyncNone))
			return err
		}, "WithFsync"},
		{"BulkLoad+WithRangeSplits", func() error {
			_, err := BulkLoad([]int64{1}, []int64{2}, WithRangeSplits([]int64{0}))
			return err
		}, "WithRangeSplits"},
		{"NewSharded+WithFsync", func() error {
			_, err := NewSharded(WithShards(2), WithFsync(FsyncInterval))
			return err
		}, "WithFsync"},
		{"BulkLoadSharded+WithCompactRatio", func() error {
			_, err := BulkLoadSharded([]int64{1}, []int64{2}, WithShards(2), WithCompactRatio(1))
			return err
		}, "WithCompactRatio"},
		{"Open+WithShards", func() error {
			_, err := Open(dir, WithShards(2))
			return err
		}, "WithShards"},
		{"Open+WithRangeSplits", func() error {
			_, err := Open(dir, WithRangeSplits([]int64{0}))
			return err
		}, "WithRangeSplits"},
		{"Open+WithFsync(7)", func() error {
			return opened(Open(t.TempDir(), WithFsync(FsyncPolicy(7))))
		}, "FsyncPolicy(7)"},
		{"Open+WithCompactRatio(NaN)", func() error {
			return opened(Open(t.TempDir(), WithCompactRatio(math.NaN())))
		}, "WithCompactRatio(NaN)"},
		{"Open+WithCompactRatio(+Inf)", func() error {
			return opened(Open(t.TempDir(), WithCompactRatio(math.Inf(1))))
		}, "WithCompactRatio(+Inf)"},
		{"OpenSharded+WithFsync(7)", func() error {
			return opened(OpenSharded(t.TempDir(), WithFsync(FsyncPolicy(7))))
		}, "FsyncPolicy(7)"},
		{"OpenSharded+WithCompactRatio(NaN)", func() error {
			return opened(OpenSharded(t.TempDir(), WithCompactRatio(math.NaN())))
		}, "WithCompactRatio(NaN)"},
		{"NewGraph+WithFsync", func() error {
			g, err := NewGraph(WithFsync(FsyncAlways))
			if err == nil {
				g.Close()
			}
			return err
		}, "WithFsync"},
		{"NewGraph+WithShards", func() error {
			g, err := NewGraph(WithShards(4))
			if err == nil {
				g.Close()
			}
			return err
		}, "WithShards"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.build()
			if err == nil {
				t.Fatal("misapplied option accepted")
			}
			if !strings.Contains(err.Error(), tc.wantOpt) {
				t.Fatalf("error %q does not name option %s", err, tc.wantOpt)
			}
		})
	}
}

// TestValidOptionCombinationsAccepted pins the constructors that SHOULD
// accept each group: durability on Open*, topology on *Sharded, both on
// OpenSharded.
func TestValidOptionCombinationsAccepted(t *testing.T) {
	db, err := Open(t.TempDir(), WithFsync(FsyncNone), WithCompactRatio(8))
	if err != nil {
		t.Fatalf("Open with durability options: %v", err)
	}
	db.Close()
	s, err := NewSharded(WithShards(2), WithMode(ModeSync))
	if err != nil {
		t.Fatalf("NewSharded with topology+core options: %v", err)
	}
	s.Close()
	s2, err := OpenSharded(t.TempDir(), WithShards(2), WithFsync(FsyncNone))
	if err != nil {
		t.Fatalf("OpenSharded with topology+durability options: %v", err)
	}
	s2.Close()
}

// TestWALErrorSurfaces latches a failure in the store's log — the next
// segment's name is taken, so the rotation a checkpoint makes cannot create
// it — and checks it surfaces everywhere the API promises: Err, Sync, Stats,
// and Close. The first failure is sticky: a later append fails with it and
// does not replace it.
func TestWALErrorSurfaces(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, WithFsync(FsyncNone), WithCompactRatio(0))
	if err != nil {
		t.Fatal(err)
	}
	db.Put(1, 2)
	if err := os.Mkdir(filepath.Join(dir, "wal-00000000000000000002.log"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := db.Snapshot(); !errors.Is(err, fs.ErrExist) {
		t.Fatalf("Snapshot() = %v, want the rotation's failure", err)
	}
	boom := db.Err()
	if !errors.Is(boom, fs.ErrExist) {
		t.Fatalf("Err() = %v, want the rotation's failure", boom)
	}
	if r := panicValue(func() { db.Put(3, 4) }); r == nil {
		t.Fatal("Put on a failed log did not panic")
	}
	if got := db.Err(); got != boom {
		t.Fatalf("Err() = %v after a later append, want the first failure %v", got, boom)
	}
	if err := db.Sync(); !errors.Is(err, boom) {
		t.Fatalf("Sync() = %v, want wrapped %v", err, boom)
	}
	if st := db.Stats(); st.Err != boom.Error() {
		t.Fatalf("Stats().Err = %q, want the latched error", st.Err)
	}
	if err := db.Close(); !errors.Is(err, boom) {
		t.Fatalf("Close() = %v, want wrapped %v", err, boom)
	}
}

// TestHealthyStatsNoErr pins the zero value: a healthy store reports no
// error through Stats.
func TestHealthyStatsNoErr(t *testing.T) {
	db, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	db.Put(1, 2)
	if err := db.Sync(); err != nil {
		t.Fatal(err)
	}
	if st := db.Stats(); st.Err != "" {
		t.Fatalf("healthy store Stats().Err = %q", st.Err)
	}
}
