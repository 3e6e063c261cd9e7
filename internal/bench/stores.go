// Package bench is the experiment harness that regenerates the paper's
// evaluation (Section 4 and the Section 6 graph): the thread-partitioned
// update/scan driver, the store adapters for the four competitors, and the
// per-figure drivers used by cmd/pmabench and the root benchmark suite.
// README.md in this directory maps each driver to its paper figure. The
// system's own layers are measured by the benchmark in benchmark/.
package bench

import (
	"time"

	"pmago/internal/abtree"
	"pmago/internal/bwtree"
	"pmago/internal/core"
	"pmago/internal/masstree"
)

// Store is the operation surface shared by the PMA and the three tree
// baselines: 8-byte integer keys and values, upsert semantics, ordered
// scans.
type Store interface {
	Put(k, v int64)
	Get(k int64) (int64, bool)
	Delete(k int64) bool
	Scan(lo, hi int64, fn func(k, v int64) bool)
	ScanAll(fn func(k, v int64) bool)
	Len() int
}

// Flusher is implemented by stores with asynchronous updates (the PMA's
// combining queues); the harness flushes before verifying final state.
type Flusher interface{ Flush() }

// Closer is implemented by stores with service goroutines.
type Closer interface{ Close() }

// Factory names and builds a store configuration under test.
type Factory struct {
	Name string
	New  func() Store
}

// PMAFactory builds the concurrent PMA with the given configuration.
func PMAFactory(name string, cfg core.Config) Factory {
	return Factory{Name: name, New: func() Store {
		return core.MustNew(cfg)
	}}
}

// PaperPMAConfig is the evaluation configuration of Section 4: segments of
// 128 elements, 8 segments per gate, batch processing with tdelay = 100ms.
func PaperPMAConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.Mode = core.ModeBatch
	cfg.TDelay = 100 * time.Millisecond
	return cfg
}

// MasstreeFactory builds the Masstree-style baseline.
func MasstreeFactory() Factory {
	return Factory{Name: "MassTree", New: func() Store { return masstree.New() }}
}

// BwTreeFactory builds the Bw-Tree baseline.
func BwTreeFactory() Factory {
	return Factory{Name: "BwTree", New: func() Store {
		return bwtree.New(bwtree.Config{})
	}}
}

// ABTreeFactory builds the ART + B+-tree baseline with the given leaf
// capacity in pairs (256 = the paper's 4 KiB default, 512 = the 8 KiB
// ablation).
func ABTreeFactory(name string, leafCapacity int) Factory {
	return Factory{Name: name, New: func() Store {
		return abtree.New(abtree.Config{LeafCapacity: leafCapacity})
	}}
}

// PaperFactories returns the four structures of Figure 3, PMA last as in the
// plots.
func PaperFactories() []Factory {
	return []Factory{
		MasstreeFactory(),
		BwTreeFactory(),
		ABTreeFactory("ART", abtree.DefaultLeafCapacity),
		PMAFactory("PMA", PaperPMAConfig()),
	}
}
