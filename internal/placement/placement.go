// Package placement maps keys to shards for the sharded store front
// (pmago.Sharded). Two strategies are provided:
//
//   - Straw2 is CRUSH-style weighted placement: every shard draws a
//     pseudo-random "straw" for the key, scaled by the shard's weight, and
//     the longest straw wins. Placement is stateless (no directory to keep
//     consistent), spreads any key distribution uniformly in proportion to
//     the weights, and is stable under reconfiguration: adding a shard or
//     raising one weight only moves keys *onto* the changed shard — draws
//     for the untouched shards are unchanged, so no key migrates between
//     two old shards.
//   - Range partitions the key space along explicit split points, so each
//     shard owns one contiguous key range. Cross-shard scans then need no
//     merge (shard order is key order) at the price of manual split
//     placement and exposure to skewed key distributions.
//
// Both are deterministic pure functions of (key, configuration); the
// sharded store records the configuration in its manifest and refuses to
// reopen under a different one, since that would silently re-home keys.
//
// Straw2 over equal weights skips the logarithm: it returns the shard with
// the largest 16-bit hash u, ties going to the lower index. That is exactly
// the weighted argmax. For a fixed weight w > 0 the draw ln(u/65536)/w is
// strictly increasing in u, so equal u give equal draws (the lower index
// wins both ways) and distinct u give distinct, identically ordered draws:
// u/65536 is exact, neighbouring logarithms differ by more than 1e-5, far
// above an ulp, and dividing by w keeps them apart. The one exception is a
// weight so small that the lowest draw, ln(2^-16)/w, overflows to -Inf and
// many draws tie there; such weights keep the logarithm.
package placement

import (
	"fmt"
	"math"
	"sort"
)

// Placement deterministically assigns every key to a shard in [0, Shards()).
// Implementations are immutable and safe for concurrent use.
type Placement interface {
	// Shard returns the owning shard of key.
	Shard(key int64) int
	// Shards returns the number of shards.
	Shards() int
	// Ordered reports whether shard order equals key order — every key on
	// shard i sorts before every key on shard i+1 — which lets a cross-shard
	// scan walk the shards sequentially instead of merging their streams.
	Ordered() bool
}

// Straw2 is weighted pseudo-random placement (see the package comment).
type Straw2 struct {
	weights []float64
	// equal is set when every weight is the same and no draw overflows:
	// Shard then compares hashes instead of draws (see the package comment).
	equal bool
}

// NewStraw2 builds a straw2 placement over len(weights) shards; weights must
// be positive and are relative (a shard with weight 2 receives about twice
// the keys of a shard with weight 1).
func NewStraw2(weights []float64) (*Straw2, error) {
	if len(weights) < 1 {
		return nil, fmt.Errorf("placement: straw2 needs at least one shard")
	}
	for i, w := range weights {
		if !(w > 0) || math.IsInf(w, 1) {
			return nil, fmt.Errorf("placement: straw2 weight[%d] = %v must be a positive finite number", i, w)
		}
	}
	ws := make([]float64, len(weights))
	copy(ws, weights)
	equal := !math.IsInf(math.Log(1/65536.0)/ws[0], -1)
	for _, w := range ws {
		equal = equal && w == ws[0]
	}
	return &Straw2{weights: ws, equal: equal}, nil
}

// Weights returns a copy of the shard weights.
func (s *Straw2) Weights() []float64 {
	ws := make([]float64, len(s.weights))
	copy(ws, s.weights)
	return ws
}

// Shards implements Placement.
func (s *Straw2) Shards() int { return len(s.weights) }

// Ordered implements Placement: straw2 scatters keys, so shard order says
// nothing about key order.
func (s *Straw2) Ordered() bool { return false }

// Shard implements Placement: every shard draws
//
//	ln(u/65536) / weight,  u = 16-bit hash of (key, shard) in (0, 65536]
//
// and the largest draw wins — the straw2 form, which makes the win
// probability of shard i exactly weight_i / Σ weights and keeps each
// shard's draw independent of every other shard's existence (the stability
// property). The 16-bit mantissa mirrors CRUSH; ties at equal draws break
// toward the lower shard index, deterministically. Equal weights compare
// the hashes themselves, which picks the same shard.
func (s *Straw2) Shard(key int64) int {
	if s.equal {
		best, bestU := 0, straw2hash(uint64(key), 0)&0xffff
		for i := 1; i < len(s.weights); i++ {
			if u := straw2hash(uint64(key), uint64(i)) & 0xffff; u > bestU {
				best, bestU = i, u
			}
		}
		return best
	}
	best := 0
	bestDraw := math.Inf(-1)
	for i, w := range s.weights {
		u := float64(straw2hash(uint64(key), uint64(i))&0xffff) + 1
		draw := math.Log(u/65536.0) / w // <= 0; heavier weight pulls toward 0
		if draw > bestDraw {
			best, bestDraw = i, draw
		}
	}
	return best
}

// straw2hash mixes key and shard id into a 64-bit hash (splitmix64 finisher
// over a Weyl-sequence offset per shard). Only the low 16 bits feed the
// draw; the full-width mix keeps adjacent keys and shard ids uncorrelated.
func straw2hash(key, shard uint64) uint64 {
	x := key + (shard+1)*0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Range is contiguous range partitioning (see the package comment).
type Range struct {
	splits []int64
}

// NewRange builds a range placement over len(splits)+1 shards: shard i owns
// keys below splits[i] (and at or above splits[i-1]); the last shard owns
// everything from the final split up. Splits must be strictly increasing.
// An empty split list is a single shard owning the whole key space.
func NewRange(splits []int64) (*Range, error) {
	for i := 1; i < len(splits); i++ {
		if splits[i] <= splits[i-1] {
			return nil, fmt.Errorf("placement: range splits must be strictly increasing: splits[%d] = %d after %d",
				i, splits[i], splits[i-1])
		}
	}
	sp := make([]int64, len(splits))
	copy(sp, splits)
	return &Range{splits: sp}, nil
}

// Splits returns a copy of the split points.
func (r *Range) Splits() []int64 {
	sp := make([]int64, len(r.splits))
	copy(sp, r.splits)
	return sp
}

// Shards implements Placement.
func (r *Range) Shards() int { return len(r.splits) + 1 }

// Ordered implements Placement: shard i's keys all sort before shard i+1's.
func (r *Range) Ordered() bool { return true }

// Shard implements Placement by binary search over the split points.
func (r *Range) Shard(key int64) int {
	return sort.Search(len(r.splits), func(i int) bool { return key < r.splits[i] })
}
