package placement

import (
	"math"
	"testing"
)

func TestStraw2Validation(t *testing.T) {
	for _, bad := range [][]float64{nil, {}, {0}, {1, -1}, {1, math.NaN()}, {math.Inf(1)}} {
		if _, err := NewStraw2(bad); err == nil {
			t.Fatalf("NewStraw2(%v) accepted invalid weights", bad)
		}
	}
	if _, err := NewStraw2([]float64{1, 2, 0.5}); err != nil {
		t.Fatal(err)
	}
}

func TestStraw2DistributionFollowsWeights(t *testing.T) {
	weights := []float64{1, 1, 2, 4}
	p, err := NewStraw2(weights)
	if err != nil {
		t.Fatal(err)
	}
	const n = 200_000
	counts := make([]int, p.Shards())
	for k := int64(0); k < n; k++ {
		counts[p.Shard(k*2654435761)]++ // scattered keys
	}
	var total float64
	for _, w := range weights {
		total += w
	}
	for i, w := range weights {
		want := float64(n) * w / total
		got := float64(counts[i])
		if math.Abs(got-want)/want > 0.05 {
			t.Fatalf("shard %d (weight %v) received %v keys, want ~%v (counts %v)", i, w, got, want, counts)
		}
	}
}

// straw2Golden pins placements generated before equal weights took the
// hash comparison: the manifest records only the weights, so the mapping
// itself must never drift between versions or a reopened store would
// silently re-home keys. The columns are equal weights over 1, 3, 4 and 8
// shards, then weights {1, 2, 3} and {0.5, 1}.
var (
	straw2GoldenWeights = [6][]float64{{1}, {1, 1, 1}, {1, 1, 1, 1}, {1, 1, 1, 1, 1, 1, 1, 1}, {1, 2, 3}, {0.5, 1}}
	straw2Golden        = []struct {
		key    int64
		shards [6]int
	}{
		{0, [6]int{0, 0, 0, 0, 0, 0}},
		{1, [6]int{0, 1, 1, 1, 1, 1}},
		{-1, [6]int{0, 1, 3, 5, 2, 1}},
		{2, [6]int{0, 0, 3, 4, 2, 1}},
		{3, [6]int{0, 2, 2, 6, 2, 1}},
		{42, [6]int{0, 1, 1, 1, 1, 1}},
		{1000, [6]int{0, 0, 3, 7, 2, 1}},
		{-1000, [6]int{0, 0, 3, 3, 1, 1}},
		{1048576, [6]int{0, 1, 3, 5, 2, 1}},
		{1099511627776, [6]int{0, 2, 2, 7, 2, 0}},
		{-1099511627776, [6]int{0, 2, 2, 2, 2, 1}},
		{4611686018427400249, [6]int{0, 2, 3, 7, 2, 1}},
		{-9223372036854775808, [6]int{0, 0, 0, 7, 0, 0}},
		{-9223372036854775807, [6]int{0, 0, 0, 0, 0, 0}},
		{9223372036854775807, [6]int{0, 1, 1, 6, 1, 1}},
		{9223372036854775806, [6]int{0, 1, 1, 7, 1, 1}},
		{9181757771948286951, [6]int{0, 0, 3, 5, 2, 1}},
		{-1985777892596274208, [6]int{0, 1, 1, 1, 1, 1}},
		{3825608052996350135, [6]int{0, 0, 0, 0, 0, 0}},
		{7119663223151467574, [6]int{0, 0, 0, 6, 2, 0}},
		{-1404112441029793906, [6]int{0, 2, 2, 2, 2, 1}},
		{934802809150449857, [6]int{0, 0, 0, 0, 0, 0}},
		{1161751156850810576, [6]int{0, 0, 0, 4, 0, 0}},
		{2294750196660212077, [6]int{0, 1, 1, 1, 1, 1}},
		{-8677226559280051441, [6]int{0, 1, 3, 5, 2, 1}},
		{3947990450751874777, [6]int{0, 2, 2, 2, 2, 0}},
		{3799969826866910932, [6]int{0, 2, 2, 2, 2, 1}},
		{3812374786672744057, [6]int{0, 1, 1, 6, 1, 1}},
		{-7049204438815934059, [6]int{0, 0, 0, 4, 0, 0}},
		{8017678577069896998, [6]int{0, 0, 0, 0, 2, 0}},
		{2218948307566737868, [6]int{0, 1, 1, 1, 1, 1}},
		{-4626918311229179201, [6]int{0, 0, 0, 0, 0, 0}},
		{-7228237068930995446, [6]int{0, 0, 0, 0, 0, 0}},
		{-1137680535578397476, [6]int{0, 0, 3, 7, 2, 1}},
		{4989032037261537717, [6]int{0, 1, 1, 1, 1, 1}},
		{1688510976571651094, [6]int{0, 2, 2, 2, 2, 1}},
		{6408987136779795710, [6]int{0, 0, 0, 5, 1, 1}},
		{-4496559026774745593, [6]int{0, 2, 2, 2, 2, 1}},
		{-2930716777876703109, [6]int{0, 0, 0, 0, 0, 0}},
		{-4138363543908252213, [6]int{0, 0, 3, 7, 2, 1}},
		{-6451207473652052224, [6]int{0, 0, 0, 4, 1, 1}},
		{-6679548257685655394, [6]int{0, 1, 1, 4, 1, 1}},
		{2615991944840607103, [6]int{0, 2, 2, 4, 2, 1}},
		{8049228955550894421, [6]int{0, 1, 1, 1, 1, 1}},
		{4244324703098269831, [6]int{0, 1, 1, 1, 1, 1}},
		{-5478681380602143322, [6]int{0, 1, 1, 1, 1, 1}},
		{-2253252262911580387, [6]int{0, 2, 2, 4, 2, 1}},
		{3252988509367869075, [6]int{0, 0, 0, 6, 0, 0}},
		{1028018298114786158, [6]int{0, 2, 3, 3, 2, 1}},
		{1109066856903585640, [6]int{0, 2, 2, 4, 2, 0}},
		// Two equal-weight shards tie on the top hash: over 3, 4 and 8
		// shards in turn, the lower index wins.
		{-2375110606992811922, [6]int{0, 1, 1, 1, 2, 1}},
		{-3123620402179464708, [6]int{0, 2, 2, 2, 2, 1}},
		{-84895020863322994, [6]int{0, 1, 1, 1, 1, 1}},
	}
)

func TestStraw2Deterministic(t *testing.T) {
	for c, weights := range straw2GoldenWeights {
		p, err := NewStraw2(weights)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range straw2Golden {
			if got := p.Shard(r.key); got != r.shards[c] {
				t.Errorf("weights %v: Shard(%d) = %d, want %d", weights, r.key, got, r.shards[c])
			}
		}
	}
}

// straw2Reference is Shard's weighted form alone: the logarithm draw for
// every shard, whatever the weights.
func straw2Reference(weights []float64, key int64) int {
	best := 0
	bestDraw := math.Inf(-1)
	for i, w := range weights {
		u := float64(straw2hash(uint64(key), uint64(i))&0xffff) + 1
		if draw := math.Log(u/65536.0) / w; draw > bestDraw {
			best, bestDraw = i, draw
		}
	}
	return best
}

// FuzzStraw2EqualWeights: with every weight equal, Shard compares hashes
// where the reference compares logarithm draws; both must pick the same
// shard for any key, shard count and valid weight, subnormal weights (which
// keep the logarithm) included.
func FuzzStraw2EqualWeights(f *testing.F) {
	for _, w := range []float64{1, 0.5, 3, 1e-300, 1e300, math.SmallestNonzeroFloat64, 1e-307, math.MaxFloat64} {
		f.Add(int64(12345), uint8(4), math.Float64bits(w))
	}
	f.Add(int64(math.MinInt64), uint8(63), math.Float64bits(1))
	f.Add(int64(-1), uint8(0), math.Float64bits(7))
	f.Add(int64(-3123620402179464708), uint8(3), math.Float64bits(1)) // shards 2 and 3 tie
	f.Fuzz(func(t *testing.T, key int64, shards uint8, wbits uint64) {
		w := math.Float64frombits(wbits &^ (1 << 63))
		if w == 0 || math.IsInf(w, 0) || math.IsNaN(w) {
			t.Skip()
		}
		weights := make([]float64, 1+int(shards)%64)
		for i := range weights {
			weights[i] = w
		}
		p, err := NewStraw2(weights)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := p.Shard(key), straw2Reference(weights, key); got != want {
			t.Fatalf("%d shards of weight %v: Shard(%d) = %d, reference %d", len(weights), w, key, got, want)
		}
	})
}

// TestStraw2StableUnderGrowth is the straw2 selling point: adding a shard
// moves keys only onto the new shard, never between the old ones.
func TestStraw2StableUnderGrowth(t *testing.T) {
	old, err := NewStraw2([]float64{1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	grown, err := NewStraw2([]float64{1, 1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	const n = 100_000
	moved := 0
	for k := int64(0); k < n; k++ {
		key := k*7919 - n/2
		a, b := old.Shard(key), grown.Shard(key)
		if a != b {
			if b != 3 {
				t.Fatalf("key %d moved between old shards %d -> %d when shard 3 was added", key, a, b)
			}
			moved++
		}
	}
	// Expect ~1/4 of keys to move to the new equal-weight shard.
	if f := float64(moved) / n; f < 0.20 || f > 0.30 {
		t.Fatalf("adding a 4th equal shard moved %.1f%% of keys, want ~25%%", f*100)
	}
}

func TestRangeValidationAndLookup(t *testing.T) {
	if _, err := NewRange([]int64{10, 10}); err == nil {
		t.Fatal("NewRange accepted non-increasing splits")
	}
	if _, err := NewRange([]int64{10, 5}); err == nil {
		t.Fatal("NewRange accepted decreasing splits")
	}
	r, err := NewRange([]int64{-100, 0, 100})
	if err != nil {
		t.Fatal(err)
	}
	if r.Shards() != 4 {
		t.Fatalf("Shards() = %d, want 4", r.Shards())
	}
	cases := map[int64]int{
		math.MinInt64: 0, -101: 0,
		-100: 1, -1: 1,
		0: 2, 99: 2,
		100: 3, math.MaxInt64: 3,
	}
	for k, want := range cases {
		if got := r.Shard(k); got != want {
			t.Fatalf("Shard(%d) = %d, want %d", k, got, want)
		}
	}
	single, err := NewRange(nil)
	if err != nil {
		t.Fatal(err)
	}
	if single.Shards() != 1 || single.Shard(42) != 0 {
		t.Fatal("empty split list must be a single all-owning shard")
	}
}

// TestRangeShardOrderIsKeyOrder pins the property the sharded scan relies on
// to skip the k-way merge: lower shard index means strictly lower keys.
func TestRangeShardOrderIsKeyOrder(t *testing.T) {
	r, err := NewRange([]int64{0, 1000})
	if err != nil {
		t.Fatal(err)
	}
	prev := -1
	for k := int64(-2000); k < 3000; k += 17 {
		s := r.Shard(k)
		if s < prev {
			t.Fatalf("shard index decreased with ascending keys at key %d", k)
		}
		prev = s
	}
}

// BenchmarkStraw2Shard prices one placement over scattered keys: equal
// weights compare hashes, unequal ones take a logarithm per shard.
func BenchmarkStraw2Shard(b *testing.B) {
	keys := make([]int64, 1<<12)
	x := uint64(0x9e3779b97f4a7c15)
	for i := range keys {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		keys[i] = int64(x)
	}
	for _, c := range []struct {
		name    string
		weights []float64
	}{
		{"equal-4", []float64{1, 1, 1, 1}},
		{"equal-8", []float64{1, 1, 1, 1, 1, 1, 1, 1}},
		{"weighted-4", []float64{1, 2, 3, 4}},
	} {
		p, err := NewStraw2(c.weights)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(c.name, func(b *testing.B) {
			sum := 0
			for i := 0; i < b.N; i++ {
				sum += p.Shard(keys[i&(len(keys)-1)])
			}
			sink = sum
		})
	}
}

var sink int
