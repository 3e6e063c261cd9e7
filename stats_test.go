package pmago_test

import (
	"encoding/json"
	"math/rand"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"pmago"
)

// TestStatsConsistency is the metrics property test: after a randomized
// concurrent workload with known op counts, the counters must tie out
// against the model exactly where the instrumentation promises exact
// attribution — every Get is served by exactly one of the optimistic and
// latched paths, and every point op routed by a sharded store lands on
// exactly one shard's routing counter.
func TestStatsConsistency(t *testing.T) {
	const (
		workers = 4
		gets    = 5_000
		puts    = 3_000
		batchN  = 2_000
	)
	s, err := pmago.NewSharded(pmago.WithShards(3))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < puts; i++ {
				s.Put(rng.Int63n(1<<20), int64(i))
			}
			for i := 0; i < gets; i++ {
				s.Get(rng.Int63n(1 << 20))
			}
			keys := make([]int64, batchN)
			vals := make([]int64, batchN)
			for i := range keys {
				keys[i] = rng.Int63n(1 << 20)
				vals[i] = int64(i)
			}
			s.PutBatch(keys, vals)
		}(w)
	}
	wg.Wait()
	s.Flush()

	st := s.Stats()
	if got, want := st.Reads.GetOptimistic+st.Reads.GetLatched, uint64(workers*gets); got != want {
		t.Errorf("optimistic+latched gets = %d, want exactly %d (every Get is served by one path)", got, want)
	}
	if len(st.Shards) != 3 {
		t.Fatalf("Shards has %d entries, want 3", len(st.Shards))
	}
	var routedOps, routedBatch uint64
	for _, sh := range st.Shards {
		routedOps += sh.Ops
		routedBatch += sh.BatchKeys
	}
	if want := uint64(workers * (gets + puts)); routedOps != want {
		t.Errorf("routed point ops sum to %d, want %d", routedOps, want)
	}
	if want := uint64(workers * batchN); routedBatch != want {
		t.Errorf("routed batch keys sum to %d, want %d", routedBatch, want)
	}
	// Validate cross-checks the live invariants the counters promise
	// (latched <= probe fails, combined <= drained+queued).
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestStatsNonZeroAfterStress drives a durable sharded store hard enough
// that every subsystem ticks, then asserts the acceptance bar: non-zero
// seqlock, rebalancer, WAL and per-shard counters in one Stats snapshot.
func TestStatsNonZeroAfterStress(t *testing.T) {
	s, err := pmago.OpenSharded(t.TempDir(), pmago.WithShards(2), pmago.WithFsync(pmago.FsyncNone))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := int64(0); i < 40_000; i++ {
		s.Put(i, i)
	}
	for i := int64(0); i < 1_000; i++ {
		s.Get(i)
	}
	s.Flush()
	if err := s.Snapshot(); err != nil {
		t.Fatal(err)
	}

	st := s.Stats()
	if st.Reads.GetOptimistic+st.Reads.GetLatched == 0 {
		t.Error("no gets recorded")
	}
	if st.Rebalance.Local == 0 && st.Rebalance.Global == 0 {
		t.Error("no rebalances recorded under sequential append")
	}
	if st.Rebalance.Resizes == 0 {
		t.Error("no resizes recorded")
	}
	if !st.Durable {
		t.Error("Durable false on a durable store")
	}
	if st.WAL.Appends == 0 {
		t.Error("no WAL appends recorded")
	}
	if st.Checkpoint.Snapshots == 0 || st.Checkpoint.PairsWritten == 0 {
		t.Error("checkpoint counters empty after Snapshot")
	}
	if st.Recovery.Recoveries != 2 {
		t.Errorf("Recoveries = %d, want 2 (one per shard)", st.Recovery.Recoveries)
	}
	for i, sh := range st.Shards {
		if sh.Ops == 0 {
			t.Errorf("shard %d routed no ops", i)
		}
	}
}

// TestHandler exercises both exposition surfaces end to end over HTTP.
func TestHandler(t *testing.T) {
	p, err := pmago.New()
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	for i := int64(0); i < 2_000; i++ {
		p.Put(i, i)
	}
	for i := int64(0); i < 100; i++ {
		p.Get(i)
	}
	p.Flush()
	srv := httptest.NewServer(pmago.Handler(p))
	defer srv.Close()

	rec := httptest.NewRecorder()
	pmago.Handler(p).ServeHTTP(rec, httptest.NewRequest("GET", "/debug/pmago/", nil))
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Fatalf("JSON endpoint Content-Type = %q", ct)
	}
	var st pmago.Stats
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatalf("JSON endpoint did not return a Stats document: %v", err)
	}
	if st.Reads.GetOptimistic+st.Reads.GetLatched == 0 {
		t.Error("JSON snapshot reports zero gets after 100 Gets")
	}

	rec = httptest.NewRecorder()
	pmago.Handler(p).ServeHTTP(rec, httptest.NewRequest("GET", "/debug/pmago/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("Prometheus endpoint Content-Type = %q", ct)
	}
	body := rec.Body.String()
	for _, want := range []string{
		"# TYPE pmago_reads_get_optimistic_total counter",
		"pmago_rebalance_local_total",
		"pmago_updates_drain_size_ops_bucket",
		"pmago_rebalance_stall_window_seconds_count",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("Prometheus exposition missing %q", want)
		}
	}
}
