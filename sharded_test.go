package pmago

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pmago/internal/persist"
	"pmago/internal/placement"
)

// stressOpts is the seqlock stress configuration (tiny segments and chunks,
// no batch delay) from the core stress suite, as public options: rebalances,
// gate hand-offs and resizes fire constantly even in small tests.
func stressOpts(mode Mode) []Option {
	return []Option{
		WithMode(mode),
		WithSegmentCapacity(8),
		withSegmentsPerGate(2),
		WithTDelay(0),
		withWorkers(2),
	}
}

// topology builds an in-memory sharded store holding keys/vals (nil for an
// empty store) under opts.
type topology func(keys, vals []int64, opts ...Option) (*Sharded, error)

// topologies every cross-shard test should pass on: multi-shard straw2
// (scans must k-way merge), skewed weights, range splits (scans walk shards
// in key order), and the single-shard degenerate case. No option asks for
// skewed weights; a manifest can record them, and "weighted" builds that
// placement in memory.
func testTopologies() map[string]topology {
	with := func(topo Option) topology {
		return func(keys, vals []int64, opts ...Option) (*Sharded, error) {
			return BulkLoadSharded(keys, vals, append(opts, topo)...)
		}
	}
	return map[string]topology{
		"straw2-3": with(WithShards(3)),
		"weighted": func(keys, vals []int64, opts ...Option) (*Sharded, error) {
			cfg, err := resolveOptions("weighted", opts, false, true)
			if err != nil {
				return nil, err
			}
			place, err := placement.NewStraw2([]float64{1, 4})
			if err != nil {
				return nil, err
			}
			return loadSharded(place, cfg, keys, vals)
		},
		"range":     with(WithRangeSplits([]int64{-50, 700})),
		"one-shard": with(WithShards(1)),
	}
}

// TestShardedModelEquivalence drives a sharded store and a flat sorted-map
// model through the same random interleaving of Put, Delete, PutBatch,
// DeleteBatch and Scan, for every topology and update mode, checking full
// contents, global scan order, sub-range scans and exact cross-shard
// DeleteBatch counts at every sync point. Under -race the same test doubles
// as the latched-read checker (every read is latched under -race).
func TestShardedModelEquivalence(t *testing.T) {
	for topoName, topo := range testTopologies() {
		for _, mode := range []Mode{ModeSync, ModeOneByOne, ModeBatch} {
			t.Run(fmt.Sprintf("%s/%v", topoName, mode), func(t *testing.T) {
				testShardedModel(t, topo, stressOpts(mode))
			})
		}
	}
}

func testShardedModel(t *testing.T, topo topology, opts []Option) {
	s, err := topo(nil, nil, opts...)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	const domain = 1 << 12
	rng := rand.New(rand.NewSource(11))
	model := map[int64]int64{}
	steps := 3000
	if testing.Short() {
		steps = 800
	}
	for i := 0; i < steps; i++ {
		switch rng.Intn(10) {
		case 0, 1, 2, 3:
			k, v := rng.Int63n(domain), rng.Int63()
			s.Put(k, v)
			model[k] = v
		case 4:
			k := rng.Int63n(domain)
			s.Delete(k)
			delete(model, k)
		case 5, 6:
			n := 1 + rng.Intn(64)
			keys := make([]int64, n)
			vals := make([]int64, n)
			for j := range keys {
				keys[j] = rng.Int63n(domain) // duplicates happen; last wins
				vals[j] = rng.Int63()
			}
			s.PutBatch(keys, vals)
			for j := range keys {
				model[keys[j]] = vals[j]
			}
		case 7:
			// Exact-count check needs no pending deferred updates.
			s.Flush()
			n := 1 + rng.Intn(64)
			keys := make([]int64, n)
			for j := range keys {
				keys[j] = rng.Int63n(domain)
			}
			want := 0
			seen := map[int64]bool{}
			for _, k := range keys {
				if _, ok := model[k]; ok && !seen[k] {
					want++
				}
				seen[k] = true
				delete(model, k)
			}
			if got := s.DeleteBatch(keys); got != want {
				t.Fatalf("step %d: DeleteBatch removed %d, model says %d", i, got, want)
			}
		default:
			lo := rng.Int63n(domain)
			hi := lo + rng.Int63n(domain/4)
			prev := int64(-1)
			s.Scan(lo, hi, func(k, v int64) bool {
				if k < lo || k > hi {
					t.Fatalf("step %d: Scan[%d,%d] visited %d", i, lo, hi, k)
				}
				if k <= prev {
					t.Fatalf("step %d: Scan[%d,%d] not ascending: %d after %d", i, lo, hi, k, prev)
				}
				prev = k
				return true
			})
		}
		if i%500 == 499 || i == steps-1 {
			s.Flush()
			compareShardedToModel(t, s, model)
		}
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
}

// compareShardedToModel checks ScanAll (contents, global order) and Len
// against the model, plus point Gets for a sample of present and absent keys.
func compareShardedToModel(t *testing.T, s *Sharded, model map[int64]int64) {
	t.Helper()
	got := map[int64]int64{}
	prev := int64(0)
	first := true
	s.ScanAll(func(k, v int64) bool {
		if !first && k <= prev {
			t.Fatalf("ScanAll not globally ascending: %d after %d", k, prev)
		}
		first = false
		prev = k
		got[k] = v
		return true
	})
	if !reflect.DeepEqual(got, model) {
		t.Fatalf("contents diverged: store has %d keys, model %d", len(got), len(model))
	}
	if s.Len() != len(model) {
		t.Fatalf("Len() = %d, model has %d", s.Len(), len(model))
	}
	n := 0
	for k, v := range model {
		if gv, ok := s.Get(k); !ok || gv != v {
			t.Fatalf("Get(%d) = %d,%v, want %d", k, gv, ok, v)
		}
		if n++; n > 32 {
			break
		}
	}
}

// TestShardedScanWindows cross-checks merged sub-range scans (including the
// lo == hi and empty cases) against a model on a store with a known layout:
// large enough that every shard's merge cursor refills at scanRefillMax
// several times, with a key next to each sentinel.
func TestShardedScanWindows(t *testing.T) {
	for topoName, topo := range testTopologies() {
		t.Run(topoName, func(t *testing.T) {
			empty, err := topo(nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer empty.Close()
			empty.Scan(5, 1, func(k, v int64) bool { t.Fatalf("Scan[5,1] visited %d", k); return false })
			empty.ScanAll(func(k, v int64) bool { t.Fatalf("empty store visited %d", k); return false })
			if empty.merges.Get() != nil {
				t.Fatal("a scan with nothing to merge took a merge state")
			}

			keys := []int64{KeyMin + 1}
			for k := int64(0); k < 150_000; k += 3 {
				keys = append(keys, k)
			}
			keys = append(keys, KeyMax-1)
			vals := make([]int64, len(keys))
			for i, k := range keys {
				vals[i] = k * 2
			}
			s, err := topo(keys, vals)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			if !s.ordered {
				for i, n := range s.ShardLens() {
					if n < 4*scanRefillMax {
						t.Fatalf("shard %d holds %d keys: too few to refill at the cap", i, n)
					}
				}
			}
			check := func(lo, hi int64) {
				t.Helper()
				var want []int64
				for _, k := range keys {
					if k >= lo && k <= hi {
						want = append(want, k)
					}
				}
				var got []int64
				s.Scan(lo, hi, func(k, v int64) bool {
					if v != k*2 {
						t.Fatalf("Scan[%d,%d]: value %d under key %d", lo, hi, v, k)
					}
					got = append(got, k)
					return true
				})
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("Scan[%d,%d] visited %d keys, want %d", lo, hi, len(got), len(want))
				}
			}
			windows := [][2]int64{
				{KeyMin, KeyMax}, {KeyMin + 1, KeyMax - 1}, {KeyMin, KeyMin}, {KeyMin, KeyMin + 1},
				{KeyMax - 1, KeyMax - 1}, {KeyMax - 1, KeyMax}, {KeyMax, KeyMax}, {149_000, KeyMax}, {10, 5},
			}
			rng := rand.New(rand.NewSource(5))
			for trial := 0; trial < 50; trial++ {
				lo := rng.Int63n(150_200) - 100
				width := int64(600)
				if trial%5 == 0 {
					width = 100_000
				}
				windows = append(windows, [2]int64{lo, lo + rng.Int63n(width)})
			}
			for _, w := range windows {
				check(w[0], w[1])
			}
			// fn may scan the store it is being called from.
			visited := 0
			s.Scan(0, 30_000, func(k, v int64) bool {
				if visited++; visited%1000 == 0 {
					check(k-2000, k+2000)
				}
				return true
			})
			if visited != 10_001 {
				t.Fatalf("outer scan visited %d keys, want 10001", visited)
			}
			// Early termination stops the merge exactly at the request, and
			// neither it nor a panic in fn leaves anything for the next scan.
			var got []int64
			s.Scan(0, 5000, func(k, v int64) bool {
				got = append(got, k)
				return len(got) < 10
			})
			if len(got) != 10 || !sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] }) {
				t.Fatalf("early-stopped scan visited %v", got)
			}
			check(KeyMin, KeyMax)
			func() {
				defer func() { recover() }()
				s.Scan(100_000, KeyMax, func(k, v int64) bool { panic("fn panics") })
			}()
			check(KeyMin, KeyMax)
		})
	}
}

// TestShardedScanRunsOnCaller pins what a merging scan costs besides the
// shards' own scans: no goroutine and, once a merge state is pooled, no
// allocation.
func TestShardedScanRunsOnCaller(t *testing.T) {
	var keys, vals []int64
	for k := int64(0); k < 1<<16; k++ {
		keys, vals = append(keys, k), append(vals, k)
	}
	s, err := BulkLoadSharded(keys, vals, WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	visited, before := 0, runtime.NumGoroutine()
	fn := func(k, v int64) bool {
		if n := runtime.NumGoroutine(); n > before {
			t.Fatalf("%d goroutines inside fn, %d before Scan", n, before)
		}
		visited++
		return true
	}
	if s.ScanAll(fn); visited != len(keys) {
		t.Fatalf("visited %d keys, want %d", visited, len(keys))
	}
	if raceBuild() {
		t.Skip("sync.Pool drops Puts under -race")
	}
	if allocs := testing.AllocsPerRun(100, func() { s.Scan(1000, 1127, fn) }); allocs != 0 {
		t.Fatalf("a 128-pair scan allocates %v times, want 0", allocs)
	}
}

// TestShardedScanCopiesEachChunkOnce pins that a merging scan reads its
// shards at the shards' own cost: a cursor's run ends on a chunk boundary
// and the next run resumes at the next chunk's lower fence, so on a
// quiescent store a merged ScanAll and a long window read exactly the chunks
// the shards' own scans of the same range read. A run that ended inside a
// chunk and resumed after its last key read that chunk again: 3 082 chunks
// against 2 048 for this ScanAll.
func TestShardedScanCopiesEachChunkOnce(t *testing.T) {
	const n = 1 << 20
	keys, vals := make([]int64, n), make([]int64, n)
	for i := range keys {
		keys[i], vals[i] = int64(i), int64(i)*7
	}
	s, err := BulkLoadSharded(keys, vals, WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	chunks := func() uint64 {
		r := s.Stats().Reads
		return r.ScanChunksOptimistic + r.ScanChunksLatched
	}
	for _, w := range [][2]int64{{KeyMin, KeyMax}, {n / 5, n/5 + n/2}} {
		lo, hi := w[0], w[1]
		before := chunks()
		for _, st := range s.stores {
			st.Scan(lo, hi, func(k, v int64) bool { return true })
		}
		own := chunks() - before
		visited, last := 0, int64(KeyMin)
		before = chunks()
		s.Scan(lo, hi, func(k, v int64) bool {
			if k <= last || v != k*7 {
				t.Fatalf("Scan[%d,%d]: pair (%d, %d) after key %d", lo, hi, k, v, last)
			}
			visited, last = visited+1, k
			return true
		})
		merged := chunks() - before
		if want := min(hi, n-1) - max(lo, 0) + 1; int64(visited) != want {
			t.Fatalf("Scan[%d,%d] visited %d pairs, want %d", lo, hi, visited, want)
		}
		if merged != own {
			t.Errorf("Scan[%d,%d] read %d chunks, the shards' own scans %d", lo, hi, merged, own)
		}
	}
}

// TestShardedScanBesideWriter runs long merging scans, each across many
// cursor refills, while one writer overwrites a fixed key set on every shard
// and inserts and deletes odd keys, under the stress geometry (chunks of 16
// slots) so fences move throughout. Each scan must be strictly ascending, see
// every key the writer leaves alone exactly once with its loaded value, and
// read every other key with a value the writer wrote: a run resumed at a
// stale fence would skip or repeat pairs.
func TestShardedScanBesideWriter(t *testing.T) {
	const n, window = 1 << 17, 1 << 16 // even keys below n are loaded
	var keys, vals []int64
	for k := int64(0); k < n; k += 2 {
		keys, vals = append(keys, k), append(vals, k)
	}
	s, err := BulkLoadSharded(keys, vals, append(stressOpts(ModeBatch), WithShards(4))...)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	// Keys divisible by 8 are overwritten, odd keys come and go; a written
	// value carries its key in the low 32 bits and the round above them.
	touched := func(k int64) bool { return k%8 == 0 || k%2 != 0 }
	wrote := func(k, v int64) bool { return v&(1<<32-1) == k && v>>32 > 0 }
	if perShard := window / 2 / len(s.stores); perShard < 4*scanRefillMax {
		t.Fatalf("a window holds ~%d keys per shard: too few for many refills per scan", perShard)
	}

	var stop atomic.Bool
	var rounds atomic.Int64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(9))
		var odd []int64
		for r := int64(1); !stop.Load(); r++ {
			for k := int64(0); k < n; k += 8 << (r % 4) {
				s.Put(k, k|r<<32)
			}
			if len(odd) > 0 && r%2 == 0 {
				s.DeleteBatch(odd)
				s.Delete(odd[0] + 2*int64(len(odd)))
			}
			base := rng.Int63n(n/2) | 1
			odd = odd[:0]
			vs := make([]int64, 0, 512)
			for k := base; k < base+1024; k += 2 {
				odd, vs = append(odd, k), append(vs, k|r<<32)
			}
			s.PutBatch(odd, vs)
			s.Put(base+1024, (base+1024)|r<<32)
			rounds.Store(r)
		}
	}()
	defer func() { stop.Store(true); wg.Wait() }()

	rng := rand.New(rand.NewSource(10))
	// At least 24 scans, and as many as it takes for the writer to go
	// round 50 times beside them.
	for scan := 0; scan < 24 || rounds.Load() < 50; scan++ {
		lo := rng.Int63n(n - window)
		hi := lo + window - 1
		untouched, last := 0, int64(KeyMin)
		s.Scan(lo, hi, func(k, v int64) bool {
			switch {
			case k <= last || k < lo || k > hi:
				t.Fatalf("Scan[%d,%d]: key %d after %d", lo, hi, k, last)
			case !touched(k):
				if v != k {
					t.Fatalf("Scan[%d,%d]: untouched key %d holds %d", lo, hi, k, v)
				}
				untouched++
			case !wrote(k, v) && !(k%2 == 0 && v == k):
				t.Fatalf("Scan[%d,%d]: key %d holds %d, which was never written", lo, hi, k, v)
			}
			last = k
			return true
		})
		want := 0
		for k := lo + lo%2; k <= hi; k += 2 {
			if !touched(k) {
				want++
			}
		}
		if untouched != want {
			t.Fatalf("Scan[%d,%d] saw %d untouched keys, want %d", lo, hi, untouched, want)
		}
	}
	stop.Store(true)
	wg.Wait()
	s.Flush() // a ModeBatch update may still be in flight: Validate wants none
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
}

// raceBuild reports whether the test binary was built with -race, under
// which allocation counts are not what a normal build pays.
func raceBuild() bool {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, set := range bi.Settings {
			if set.Key == "-race" && set.Value == "true" {
				return true
			}
		}
	}
	return false
}

// TestShardedBatchAllocs bounds what a batch costs in allocations besides
// the shards' own batches: the split is a fixed handful of arrays however
// many keys it routes, and the fan-out runs one shard on the caller. The
// first DeleteBatch run removes the keys, so the counted runs price the
// split and fan-out over shards that find nothing to delete.
func TestShardedBatchAllocs(t *testing.T) {
	if raceBuild() {
		t.Skip("the race detector allocates on its own")
	}
	s, err := NewSharded(WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	keys, vals := make([]int64, 1024), make([]int64, 1024)
	for i := range keys {
		keys[i], vals[i] = int64(i)*2654435761, int64(i)
	}
	if allocs := testing.AllocsPerRun(20, func() { s.PutBatch(keys, vals) }); allocs > 24 {
		t.Errorf("a 1024-key PutBatch over 4 shards allocates %v times, want at most 24", allocs)
	}
	if allocs := testing.AllocsPerRun(20, func() { s.DeleteBatch(keys) }); allocs > 32 {
		t.Errorf("a 1024-key DeleteBatch over 4 shards allocates %v times, want at most 32", allocs)
	}
}

// TestShardedScanCallbackMayUpdate pins the PR 3 callback contract across
// the merge: the scan callback runs latch-free and may call update
// operations of the same sharded store — including ones that land on the
// shards currently being scanned — without deadlocking.
func TestShardedScanCallbackMayUpdate(t *testing.T) {
	s, err := NewSharded(WithShards(3))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for k := int64(0); k < 2000; k++ {
		s.Put(k, k)
	}
	s.Flush()
	visited := 0
	s.Scan(0, 1999, func(k, v int64) bool {
		s.Put(k+10_000, v) // different shard, same store, mid-scan
		s.Delete(k + 20_000)
		visited++
		return true
	})
	if visited != 2000 {
		t.Fatalf("visited %d keys, want 2000", visited)
	}
	s.Flush()
	if n := s.Len(); n != 4000 {
		t.Fatalf("Len() = %d after callback Puts, want 4000", n)
	}

	// Updates just ahead of the cursor, on the shard it is draining: the
	// scan may or may not see them, but stays strictly ascending, visits
	// every key that was there throughout and none that never was.
	if s, err = NewSharded(WithShards(3)); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for k := int64(0); k < 8000; k += 2 {
		s.Put(k, k)
	}
	s.Flush()
	seen, inserted, deleted := map[int64]bool{}, map[int64]bool{}, map[int64]bool{}
	prev := int64(-1)
	s.Scan(0, 9000, func(k, v int64) bool {
		if k <= prev {
			t.Fatalf("scan visited %d after %d", k, prev)
		}
		prev, seen[k] = k, true
		var put, del bool
		for x := k + 1; !put || !del; x++ {
			switch {
			case s.place.Shard(x) != s.place.Shard(k):
			case x%2 == 1 && !put:
				s.Put(x, x)
				put, inserted[x] = true, true
			case x%2 == 0 && !del:
				s.Delete(x)
				del, deleted[x] = true, true
			}
		}
		return true
	})
	for k := int64(0); k < 8000; k += 2 {
		if !deleted[k] && !seen[k] {
			t.Fatalf("scan missed %d, which no callback deleted", k)
		}
	}
	for k := range seen {
		if k%2 == 1 && !inserted[k] {
			t.Fatalf("scan visited %d, which nobody put", k)
		}
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestShardedStress is the cross-shard version of the core seqlock stress
// detector: point writers, a batch writer and Get readers hammer all shards
// while a scanner continuously runs merged range scans, checking every
// result against the stressVal model — globally ascending keys, in-range,
// model-consistent values. Torn optimistic reads, merge-order bugs and
// cross-shard routing races all surface as model violations.
func TestShardedStress(t *testing.T) {
	for _, topo := range []struct {
		name string
		opt  Option
	}{
		{"straw2", WithShards(4)},
		{"range", WithRangeSplits([]int64{1 << 12, 2 << 12, 3 << 12})},
	} {
		t.Run(topo.name, func(t *testing.T) {
			stressSharded(t, append(stressOpts(ModeBatch), topo.opt))
		})
	}
}

func stressVal(k int64) int64 { return k*31 + 7 }

func stressSharded(t *testing.T, opts []Option) {
	s, err := NewSharded(opts...)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	const domain = 1 << 14
	var keys, vals []int64
	for k := int64(0); k < domain; k += 2 {
		keys = append(keys, k)
		vals = append(vals, stressVal(k))
	}
	s.PutBatch(keys, vals)
	s.Flush()

	dur := 500 * time.Millisecond
	if testing.Short() {
		dur = 150 * time.Millisecond
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var reads, scans atomic.Int64
	fail := make(chan string, 8)
	report := func(format string, args ...any) {
		select {
		case fail <- fmt.Sprintf(format, args...):
		default:
		}
	}

	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := seed
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				rng = rng*6364136223846793005 + 1442695040888963407
				k := (rng >> 16) & (domain - 1)
				if i%3 == 0 {
					s.Delete(k)
				} else {
					s.Put(k, stressVal(k))
				}
			}
		}(int64(w + 1))
	}

	// Batch writer: cross-shard batches big enough to hit every shard.
	wg.Add(1)
	go func() {
		defer wg.Done()
		const block = 4096
		bk := make([]int64, block)
		bv := make([]int64, block)
		for round := int64(0); ; round++ {
			select {
			case <-stop:
				return
			default:
			}
			base := (round * 7919) % domain
			for i := range bk {
				bk[i] = (base + int64(i)*3) % domain
				bv[i] = stressVal(bk[i])
			}
			if round%2 == 0 {
				s.PutBatch(bk, bv)
			} else {
				s.DeleteBatch(bk[: block/2 : block/2])
			}
		}
	}()

	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := seed
			for {
				select {
				case <-stop:
					return
				default:
				}
				rng = rng*6364136223846793005 + 1442695040888963407
				k := (rng >> 16) & (domain - 1)
				if v, ok := s.Get(k); ok && v != stressVal(k) {
					report("Get(%d) = %d, want %d (torn read)", k, v, stressVal(k))
					return
				}
				reads.Add(1)
			}
		}(int64(100 + r))
	}

	// Merged scanner: the cross-shard stream must be strictly ascending,
	// in range, and model-consistent in the face of concurrent updates on
	// every shard.
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := int64(42)
		for {
			select {
			case <-stop:
				return
			default:
			}
			rng = rng*6364136223846793005 + 1442695040888963407
			lo := (rng >> 16) & (domain - 1)
			hi := lo + 2048
			prev := int64(-1)
			ok := true
			s.Scan(lo, hi, func(k, v int64) bool {
				switch {
				case k < lo || k > hi:
					report("Scan[%d,%d] visited out-of-range key %d", lo, hi, k)
				case k <= prev:
					report("Scan[%d,%d] keys not globally ascending: %d after %d", lo, hi, k, prev)
				case v != stressVal(k):
					report("Scan[%d,%d] value %d for key %d, want %d (torn read)", lo, hi, v, k, stressVal(k))
				default:
					prev = k
					return true
				}
				ok = false
				return false
			})
			if !ok {
				return
			}
			scans.Add(1)
		}
	}()

	time.Sleep(dur)
	close(stop)
	wg.Wait()
	select {
	case msg := <-fail:
		t.Fatal(msg)
	default:
	}
	s.Flush()
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if reads.Load() == 0 || scans.Load() == 0 {
		t.Fatalf("readers made no progress (reads=%d scans=%d)", reads.Load(), scans.Load())
	}
	t.Logf("%d gets, %d merged scans, shard lens %v", reads.Load(), scans.Load(), s.ShardLens())
}

// TestBulkLoadSharded checks the partition-and-load path: unsorted input
// with duplicates must come back sorted, deduplicated last-wins, correctly
// routed (Validate checks residency) — for every topology.
func TestBulkLoadSharded(t *testing.T) {
	for topoName, topo := range testTopologies() {
		t.Run(topoName, func(t *testing.T) {
			rng := rand.New(rand.NewSource(3))
			n := 20_000
			keys := make([]int64, n)
			vals := make([]int64, n)
			model := map[int64]int64{}
			for i := range keys {
				keys[i] = rng.Int63n(8192) - 4096 // negatives and duplicates
				vals[i] = rng.Int63()
				model[keys[i]] = vals[i]
			}
			s, err := topo(keys, vals)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			compareShardedToModel(t, s, model)
			if err := s.Validate(); err != nil {
				t.Fatal(err)
			}
		})
	}
	if _, err := BulkLoadSharded([]int64{1}, nil); err == nil {
		t.Fatal("BulkLoadSharded accepted mismatched slice lengths")
	}
}

// TestShardedPlacementBalance: a manifest that records unequal weights — no
// option writes one, but a store directory can hold it — opens, and routes
// every key by those weights exactly as before: with 1:3 over keys
// 0..39999 the shards hold 9 951 and 30 049 keys, the split straw2 made
// when the weights were an option. A reopen asking for equal weights is
// refused, and the keys survive a bare one.
func TestShardedPlacementBalance(t *testing.T) {
	dir := t.TempDir()
	weights := []float64{1, 3}
	err := persist.SaveManifest(dir, persist.ShardManifest{
		Version: 1, Shards: 2, Placement: persist.PlacementStraw2, Weights: weights,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range weights {
		if err := os.Mkdir(filepath.Join(dir, shardDirName(i)), 0o755); err != nil {
			t.Fatal(err)
		}
	}
	var keys, vals []int64
	for k := int64(0); k < 40_000; k++ {
		keys = append(keys, k)
		vals = append(vals, -k)
	}
	s, err := OpenSharded(dir, WithFsync(FsyncNone), WithCompactRatio(0))
	if err != nil {
		t.Fatal(err)
	}
	s.PutBatch(keys, vals)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenSharded(dir, WithShards(2)); err == nil || !strings.Contains(err.Error(), "topology mismatch") {
		t.Fatalf("reopen of a 1:3 store with equal weights: %v, want a topology mismatch", err)
	}
	if s, err = OpenSharded(dir); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if lens := s.ShardLens(); !reflect.DeepEqual(lens, []int{9951, 30049}) {
		t.Fatalf("weights 1:3 put %v keys on the shards, want [9951 30049]", lens)
	}
	place, err := placement.NewStraw2(weights)
	if err != nil {
		t.Fatal(err)
	}
	for i, st := range s.stores {
		st.ScanAll(func(k, v int64) bool {
			if place.Shard(k) != i || v != -k {
				t.Fatalf("shard %d holds %d/%d", i, k, v)
			}
			return true
		})
	}
}

// TestShardedOptionErrors covers topology option validation.
func TestShardedOptionErrors(t *testing.T) {
	cases := []struct {
		name string
		opts []Option
	}{
		{"negative-count", []Option{WithShards(-2)}},
		{"count-vs-splits", []Option{WithShards(5), WithRangeSplits([]int64{0})}},
		{"bad-splits", []Option{WithRangeSplits([]int64{5, 5})}},
	}
	for _, tc := range cases {
		if _, err := NewSharded(tc.opts...); err == nil {
			t.Errorf("%s: NewSharded accepted invalid topology", tc.name)
		}
	}
	// A count consistent with the splits is fine.
	s, err := NewSharded(WithShards(2), WithRangeSplits([]int64{0}))
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
}

// TestShardedDurableReopen exercises the manifest lifecycle: create with an
// explicit topology, reopen bare (adopts the manifest), reopen with the
// matching topology (accepted), reopen with a different one (refused), and
// a concurrent second open (flock refused).
func TestShardedDurableReopen(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenSharded(dir, WithShards(3))
	if err != nil {
		t.Fatal(err)
	}
	model := map[int64]int64{}
	for k := int64(0); k < 3000; k++ {
		s.Put(k, k*7)
		model[k] = k * 7
	}
	var bk, bv []int64
	for k := int64(5000); k < 6000; k++ {
		bk = append(bk, k)
		bv = append(bv, -k)
		model[k] = -k
	}
	s.PutBatch(bk, bv)
	if n := s.DeleteBatch([]int64{0, 1, 2, 99999}); n != 3 {
		t.Fatalf("DeleteBatch removed %d, want 3", n)
	}
	delete(model, 0)
	delete(model, 1)
	delete(model, 2)

	if _, err := OpenSharded(dir); err == nil {
		t.Fatal("second OpenSharded of a live store succeeded")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Bare reopen adopts the manifest.
	re, err := OpenSharded(dir)
	if err != nil {
		t.Fatal(err)
	}
	if re.NumShards() != 3 {
		t.Fatalf("adopted %d shards, want 3", re.NumShards())
	}
	if got := scanToMap(t, re); !reflect.DeepEqual(got, model) {
		t.Fatalf("recovered %d keys, want %d", len(got), len(model))
	}
	if err := re.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}

	// Matching explicit topology is accepted; conflicting ones are refused.
	if re, err = OpenSharded(dir, WithShards(3)); err != nil {
		t.Fatalf("matching topology refused: %v", err)
	}
	re.Close()
	for name, opt := range map[string]Option{
		"count": WithShards(5),
		"kind":  WithRangeSplits([]int64{100}),
	} {
		if _, err := OpenSharded(dir, opt); err == nil {
			t.Fatalf("reopen with mismatched %s topology succeeded", name)
		} else if !strings.Contains(err.Error(), "topology mismatch") {
			t.Fatalf("mismatched %s: error %v does not name the topology mismatch", name, err)
		}
	}
}

// TestShardedManifestSafety: a store whose manifest or shard directories
// went missing must refuse to open rather than guess a placement or resurrect
// a shard as empty.
func TestShardedManifestSafety(t *testing.T) {
	newStore := func(t *testing.T) string {
		dir := t.TempDir()
		s, err := OpenSharded(dir, WithShards(2))
		if err != nil {
			t.Fatal(err)
		}
		for k := int64(0); k < 100; k++ {
			s.Put(k, k)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		return dir
	}

	t.Run("missing-shard-dir", func(t *testing.T) {
		dir := newStore(t)
		if err := os.RemoveAll(filepath.Join(dir, shardDirName(1))); err != nil {
			t.Fatal(err)
		}
		if _, err := OpenSharded(dir); err == nil {
			t.Fatal("open succeeded with a shard directory missing")
		}
	})
	t.Run("missing-manifest", func(t *testing.T) {
		dir := newStore(t)
		if err := os.Remove(filepath.Join(dir, "MANIFEST.json")); err != nil {
			t.Fatal(err)
		}
		if _, err := OpenSharded(dir); err == nil {
			t.Fatal("open succeeded with shard data but no manifest")
		}
	})
	t.Run("corrupt-manifest", func(t *testing.T) {
		dir := newStore(t)
		if err := os.WriteFile(filepath.Join(dir, "MANIFEST.json"), []byte("{"), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := OpenSharded(dir); err == nil {
			t.Fatal("open succeeded with a corrupt manifest")
		}
	})
}

// TestShardedSnapshotCompacts: Snapshot checkpoints every shard, truncating
// their WALs, and the store recovers from snapshots + empty tails.
func TestShardedSnapshotCompacts(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenSharded(dir, WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	model := map[int64]int64{}
	for k := int64(0); k < 5000; k++ {
		s.Put(k, k*3)
		model[k] = k * 3
	}
	before := s.WALBytes()
	if err := s.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if after := s.WALBytes(); after >= before {
		t.Fatalf("WAL grew across Snapshot: %d -> %d bytes", before, after)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := OpenSharded(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := scanToMap(t, re); !reflect.DeepEqual(got, model) {
		t.Fatalf("recovered %d keys from snapshots, want %d", len(got), len(model))
	}
}

// TestShardedInMemoryDurableOps: the durability surface errors (not panics)
// on an in-memory sharded store.
func TestShardedInMemoryDurableOps(t *testing.T) {
	s, err := NewSharded(WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Sync(); err == nil {
		t.Fatal("Sync on in-memory sharded store succeeded")
	}
	if err := s.Snapshot(); err == nil {
		t.Fatal("Snapshot on in-memory sharded store succeeded")
	}
	if s.WALBytes() != 0 || s.Dir() != "" {
		t.Fatal("in-memory store reports WAL bytes or a directory")
	}
}

// TestShardedEmptyBatches: a batch that changes nothing — no keys, or only
// sentinel keys — removes nothing, does not panic with nothing to fan out,
// and costs no shard a WAL record.
func TestShardedEmptyBatches(t *testing.T) {
	durable, err := OpenSharded(t.TempDir(), WithShards(4), withWALSegmentBytes(1<<20)) // FsyncAlways
	if err != nil {
		t.Fatal(err)
	}
	defer durable.Close()
	loaded, err := BulkLoadSharded(nil, nil, WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	defer loaded.Close()
	for name, s := range map[string]*Sharded{"OpenSharded": durable, "BulkLoadSharded": loaded} {
		s.Put(1, 1)
		logs := func() (l [][2]int64) {
			for _, db := range s.dbs {
				l = append(l, [2]int64{db.WALBytes(), int64(db.Stats().WAL.Appends)})
			}
			return l
		}
		before := logs()
		s.PutBatch(nil, nil)
		s.PutBatch([]int64{}, []int64{})
		if n := s.DeleteBatch(nil) + s.DeleteBatch([]int64{}) + s.DeleteBatch([]int64{KeyMin, KeyMax, KeyMin}); n != 0 {
			t.Fatalf("%s: empty DeleteBatches removed %d keys", name, n)
		}
		if after := logs(); !reflect.DeepEqual(after, before) {
			t.Fatalf("%s: empty batches moved the shards' WALs (bytes, appends): %v -> %v", name, before, after)
		}
		if n := s.Len(); n != 1 {
			t.Fatalf("%s: Len %d after empty batches, want 1", name, n)
		}
	}
}

// TestShardedUseAfterClose: Close is idempotent and everything else panics
// afterwards, like PMA and DB.
func TestShardedUseAfterClose(t *testing.T) {
	s, err := NewSharded(WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	s.Put(1, 2)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal("second Close errored")
	}
	mustPanic(t, "pmago: use after Close", func() { s.Put(3, 4) })
	mustPanic(t, "pmago: use after Close", func() { s.ScanAll(func(k, v int64) bool { return true }) })
	mustPanic(t, "pmago: use after Close", func() { s.Len() })
}

// TestShardedCountsOnlyWhatShardsDo: Stats().Shards counts the point ops
// and batch keys a shard acted on. A sentinel key is refused or ignored
// before any shard sees it, so it counts nowhere.
func TestShardedCountsOnlyWhatShardsDo(t *testing.T) {
	s, err := NewSharded(WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	func() {
		defer func() {
			if r := recover(); r != "core: cannot store sentinel key" {
				t.Fatalf("Put(KeyMax) panicked with %v, want the sentinel error", r)
			}
		}()
		s.Put(KeyMax, 1)
	}()
	if s.Delete(KeyMin) {
		t.Fatal("Delete(KeyMin) removed an element")
	}
	if n := s.DeleteBatch([]int64{KeyMin, KeyMax}); n != 0 {
		t.Fatalf("DeleteBatch of sentinels removed %d elements", n)
	}
	for i, sh := range s.Stats().Shards {
		if sh.Ops != 0 || sh.BatchKeys != 0 {
			t.Fatalf("shard %d counted %d ops and %d batch keys for sentinels", i, sh.Ops, sh.BatchKeys)
		}
	}
	s.Put(5, 5)
	s.DeleteBatch([]int64{KeyMin, 5, 6, KeyMax})
	var ops, batch uint64
	for _, sh := range s.Stats().Shards {
		ops, batch = ops+sh.Ops, batch+sh.BatchKeys
	}
	if ops != 1 || batch != 2 {
		t.Fatalf("shards counted %d ops and %d batch keys, want 1 and 2", ops, batch)
	}
}
