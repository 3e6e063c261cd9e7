// Package rma holds the sequential Packed Memory Array building blocks, in
// the style of the Rewired Memory Array [De Leo & Boncz, ICDE 2019], that the
// concurrent PMA of internal/core is assembled from: the sentinel keys, the
// calibrator-tree configuration with its per-level density thresholds
// (Section 2), and the two policies that decide how a rebalance spreads a
// window's elements over its segments — the traditional even spread and the
// adaptive one driven by a predictor of recent insert positions.
//
// A PMA stores sorted key/value pairs in an array interleaved with gaps. The
// array is divided into fixed-size segments; each segment packs its elements
// at the front and keeps its gaps at the tail. An implicit binary "calibrator
// tree" over the segments defines density thresholds per level; inserts and
// deletes that push a window outside its thresholds trigger a rebalance that
// spreads elements across the smallest window back within threshold, or a
// resize of the whole array when no window qualifies.
package rma

import (
	"fmt"
	"math"
)

// KeyMin and KeyMax are reserved sentinel keys (used as -inf / +inf fence
// keys by the concurrent layer); they cannot be stored in a PMA.
const (
	KeyMin = math.MinInt64
	KeyMax = math.MaxInt64
)

// Default parameters mirror the paper's evaluation setup (Section 4).
const (
	// DefaultSegmentCapacity is the number of element slots per segment
	// (the paper's B = 128).
	DefaultSegmentCapacity = 128

	// DefaultPredictorSize is the number of recent insert positions the
	// adaptive-rebalancing predictor remembers.
	DefaultPredictorSize = 256
)

// Config holds the tunable parameters of a PMA. The zero value is not valid;
// use DefaultConfig as a starting point.
type Config struct {
	// SegmentCapacity is the number of slots per segment (B). Must be a
	// power of two and at least 4.
	SegmentCapacity int

	// Density thresholds of the calibrator tree: 0 <= RhoLeaf < RhoRoot <=
	// TauRoot < TauLeaf <= 1. The paper sets RhoLeaf=0.5, TauLeaf=1,
	// RhoRoot=TauRoot=0.75, and in the evaluation relaxes RhoLeaf to 0,
	// downsizing instead when the PMA is less than half full.
	RhoLeaf, RhoRoot, TauRoot, TauLeaf float64

	// Adaptive enables adaptive rebalancing: the PMA observes recent
	// insert positions and leaves more gaps where more insertions are
	// predicted (Bender & Hu's APMA policy).
	Adaptive bool

	// PredictorSize bounds the adaptive predictor's memory. Ignored unless
	// Adaptive is set.
	PredictorSize int

	// DownsizeAtHalf enables the evaluation policy of shrinking the array
	// when fewer than 50% of its slots are occupied (used together with
	// RhoLeaf = 0).
	DownsizeAtHalf bool
}

// DefaultConfig returns the configuration used throughout the paper's
// evaluation: B=128, rho1=0 (relaxed), tau1=1, rho_h=tau_h=0.75, downsizing at
// 50% occupancy, adaptive rebalancing off (the concurrent one-by-one mode
// turns it on).
func DefaultConfig() Config {
	return Config{
		SegmentCapacity: DefaultSegmentCapacity,
		RhoLeaf:         0,
		RhoRoot:         0.75,
		TauRoot:         0.75,
		TauLeaf:         1.0,
		PredictorSize:   DefaultPredictorSize,
		DownsizeAtHalf:  true,
	}
}

// TheoreticalConfig returns the textbook thresholds of Section 2
// (rho1=0.5, tau1=1, rho_h=tau_h=0.75), which guarantee the array is always
// less than 50% empty without the explicit downsize rule.
func TheoreticalConfig() Config {
	return Config{
		SegmentCapacity: DefaultSegmentCapacity,
		RhoLeaf:         0.5,
		RhoRoot:         0.75,
		TauRoot:         0.75,
		TauLeaf:         1.0,
		PredictorSize:   DefaultPredictorSize,
	}
}

// Validate reports whether the configuration is self-consistent.
func (c Config) Validate() error {
	if c.SegmentCapacity < 4 || c.SegmentCapacity&(c.SegmentCapacity-1) != 0 {
		return fmt.Errorf("rma: segment capacity %d must be a power of two >= 4", c.SegmentCapacity)
	}
	if !(0 <= c.RhoLeaf && c.RhoLeaf < c.RhoRoot && c.RhoRoot <= c.TauRoot && c.TauRoot < c.TauLeaf && c.TauLeaf <= 1) {
		return fmt.Errorf("rma: thresholds must satisfy 0 <= rho1 < rho_h <= tau_h < tau1 <= 1, got rho1=%v rho_h=%v tau_h=%v tau1=%v",
			c.RhoLeaf, c.RhoRoot, c.TauRoot, c.TauLeaf)
	}
	if c.Adaptive && c.PredictorSize <= 0 {
		return fmt.Errorf("rma: adaptive rebalancing requires a positive predictor size")
	}
	return nil
}

// thresholds computes the lower and upper density thresholds for a calibrator
// tree node at the given height k (leaves are k=1) in a tree of total height
// h, following Section 2:
//
//	tau_k = tau_h + (tau_1 - tau_h) * (h-k)/(h-1)
//	rho_k = rho_h - (rho_h - rho_1) * (h-k)/(h-1)
//
// For a tree of height 1 (a single segment) the root thresholds apply.
func (c Config) thresholds(k, h int) (rho, tau float64) {
	if h <= 1 {
		return c.RhoRoot, c.TauRoot
	}
	f := float64(h-k) / float64(h-1)
	tau = c.TauRoot + (c.TauLeaf-c.TauRoot)*f
	rho = c.RhoRoot - (c.RhoRoot-c.RhoLeaf)*f
	return rho, tau
}
