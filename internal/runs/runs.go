// Package runs is the seam through which pmago/server reads a store a run
// of whole chunks at a time. The run read is unexported in pmago, so that
// the public surface stays the Store interface; pmago registers its lookup
// here once, from an init, and the server asks for a store's reader when
// it is built.
package runs

// Reader appends the pairs with lo <= key <= hi to ks and vs in ascending
// key order, whole chunks at a time, stopping after the chunk that brings
// ks to at least n pairs. It returns the extended slices, the key the range
// resumes at (no chunk is copied twice by a caller that continues there)
// and whether pairs in [resume, hi] may remain; when they may, the run
// holds at least one pair. This is core.PMA.AppendRun's contract.
type Reader func(lo, hi int64, n int, ks, vs []int64) (_, _ []int64, resume int64, more bool)

var lookup func(store any) Reader

// Register installs the lookup For consults. It is called once, from the
// pmago package's init.
func Register(f func(store any) Reader) { lookup = f }

// For returns store's run reader, or nil when store has none (a Sharded
// store, or any wrapper around a store).
func For(store any) Reader {
	if lookup == nil {
		return nil
	}
	return lookup(store)
}
