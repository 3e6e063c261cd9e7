package core

import (
	"math"
	"sort"
)

// What the concurrent PMA keeps of the sequential Rewired Memory Array
// [De Leo & Boncz, ICDE 2019] it grew out of: the sentinel keys, and the two
// policies that decide how a rebalance spreads a window's elements over its
// segments — the traditional even spread and the adaptive one driven by a
// predictor of recent insert positions. The calibrator-tree thresholds that
// decide when to rebalance are in core.go.

// KeyMin and KeyMax are reserved sentinel keys (the -inf / +inf fence keys);
// they cannot be stored in a PMA.
const (
	KeyMin = math.MinInt64
	KeyMax = math.MaxInt64
)

// predictor remembers the keys of the most recent insertions in a ring
// buffer. During an adaptive rebalance the recorded keys are projected onto
// the window's sorted elements to estimate which target segments will receive
// future insertions; those segments are then given more gaps. This is a
// practical rendition of the APMA predictor of Bender & Hu [TODS 2007], in
// the same spirit as the Rewired Memory Array implementation the paper
// extends. ModeOneByOne attaches one per gate.
//
// A predictor is not safe for concurrent use; it is used under the gate's
// exclusive latch.
type predictor struct {
	keys   []int64
	pos    int
	filled bool
}

// newPredictor returns a predictor remembering the last size insertions;
// size must be positive.
func newPredictor(size int) *predictor {
	return &predictor{keys: make([]int64, size)}
}

// record notes the key of a fresh insertion.
func (pr *predictor) record(k int64) {
	pr.keys[pr.pos] = k
	pr.pos++
	if pr.pos == len(pr.keys) {
		pr.pos = 0
		pr.filled = true
	}
}

// size returns how many recorded entries are valid.
func (pr *predictor) size() int {
	if pr.filled {
		return len(pr.keys)
	}
	return pr.pos
}

// histogram buckets the recorded keys that fall inside the key range of the
// sorted slice ks into m equal-rank buckets and returns the per-bucket hit
// counts. Buckets correspond to the m target segments of the rebalance.
func (pr *predictor) histogram(ks []int64, m int) []int {
	hist := make([]int, m)
	if len(ks) == 0 {
		return hist
	}
	lo, hi := ks[0], ks[len(ks)-1]
	n := pr.size()
	for i := 0; i < n; i++ {
		q := pr.keys[i]
		if q < lo || q > hi {
			continue
		}
		// Rank of q among the window's elements determines which
		// target segment the next insert of a nearby key would hit.
		r := sort.Search(len(ks), func(j int) bool { return ks[j] >= q })
		b := r * m / (len(ks) + 1)
		if b >= m {
			b = m - 1
		}
		hist[b]++
	}
	return hist
}

// adaptiveCounts decides how many of n sorted elements (ks) each of m target
// segments of capacity b receives under the adaptive policy: segments whose
// key range saw more recent insertions receive more gaps (fewer elements).
// Counts are clamped to [0, b-1] so every segment keeps a free slot, and
// rounding drift is corrected round-robin. The caller guarantees
// n <= m*(b-1).
func (pr *predictor) adaptiveCounts(ks []int64, m, b int) []int {
	n := len(ks)
	hist := pr.histogram(ks, m)
	gaps := m*b - n

	// Share the gaps proportionally to (1 + hits): hot regions get more
	// slack. Then counts = b - gapShare, clamped.
	total := 0
	for _, h := range hist {
		total += 1 + h
	}
	counts := make([]int, m)
	assigned := 0
	for i := range counts {
		g := gaps * (1 + hist[i]) / total
		c := b - g
		if c < 0 {
			c = 0
		}
		if c > b-1 {
			c = b - 1
		}
		counts[i] = c
		assigned += c
	}
	// Fix the total: drop or add elements round-robin within the clamp.
	for assigned > n {
		for i := 0; i < m && assigned > n; i++ {
			if counts[i] > 0 {
				counts[i]--
				assigned--
			}
		}
	}
	for assigned < n {
		for i := 0; i < m && assigned < n; i++ {
			if counts[i] < b-1 {
				counts[i]++
				assigned++
			}
		}
	}
	return counts
}

// evenCounts is the traditional policy: an even spread of n elements over m
// segments (Figure 1b).
func evenCounts(n, m int) []int {
	counts := make([]int, m)
	base, rem := n/m, n%m
	for i := range counts {
		counts[i] = base
		if i < rem {
			counts[i]++
		}
	}
	return counts
}
