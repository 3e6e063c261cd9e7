package pmago

import (
	"errors"
	"strings"
	"testing"
)

// TestMisappliedOptionsRejected checks every constructor rejects the option
// groups it cannot honor, naming the offending option — instead of the old
// behavior of silently dropping it.
func TestMisappliedOptionsRejected(t *testing.T) {
	dir := t.TempDir()
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
		{"BulkLoad+WithWALSegmentBytes", func() error {
			_, err := BulkLoad([]int64{1}, []int64{2}, WithWALSegmentBytes(1<<20))
			return err
		}, "WithWALSegmentBytes"},
		{"BulkLoad+WithRangeSplits", func() error {
			_, err := BulkLoad([]int64{1}, []int64{2}, WithRangeSplits([]int64{0}))
			return err
		}, "WithRangeSplits"},
		{"NewSharded+WithFsyncInterval", func() error {
			_, err := NewSharded(WithShards(2), WithFsyncInterval(1))
			return err
		}, "WithFsyncInterval"},
		{"BulkLoadSharded+WithCompactMinBytes", func() error {
			_, err := BulkLoadSharded([]int64{1}, []int64{2}, WithShards(2), WithCompactMinBytes(1))
			return err
		}, "WithCompactMinBytes"},
		{"Open+WithShards", func() error {
			_, err := Open(dir, WithShards(2))
			return err
		}, "WithShards"},
		{"Open+WithShardWeights", func() error {
			_, err := Open(dir, WithShardWeights([]float64{1, 2}))
			return err
		}, "WithShardWeights"},
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
	s, err := NewSharded(WithShards(2), WithWorkers(1))
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

// TestWALErrorSurfaces injects a background-append failure the way logErr
// records one and checks it surfaces everywhere the API promises: Err,
// Sync, Stats, and Close.
func TestWALErrorSurfaces(t *testing.T) {
	db, err := Open(t.TempDir(), WithFsync(FsyncNone))
	if err != nil {
		t.Fatal(err)
	}
	db.Put(1, 2)

	boom := errors.New("disk on fire")
	db.recordErr(boom)
	db.recordErr(errors.New("later error")) // first error is sticky

	if got := db.Err(); !errors.Is(got, boom) {
		t.Fatalf("Err() = %v, want %v", got, boom)
	}
	if err := db.Sync(); !errors.Is(err, boom) {
		t.Fatalf("Sync() = %v, want wrapped %v", err, boom)
	}
	if st := db.Stats(); !strings.Contains(st.Err, "disk on fire") {
		t.Fatalf("Stats().Err = %q, want the recorded error", st.Err)
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
