// Package core implements the paper's contribution: a Packed Memory Array
// supporting concurrent reads and updates (Sections 3.1-3.5).
//
// The sparse array is split into equal chunks protected by gates (read-write
// latches plus fence keys and per-segment minima). A static B+-tree index
// (index.go) routes operations to gates in O(log_B N) without
// synchronisation; fence-key verification absorbs racy index reads. That
// protocol (Section 3.2) is written once, in enter (enter.go): look the key
// up, latch the gate the index names, check under the latch that a resize
// has not retired it and that its fences cover the key, step to the
// neighbour or reload the state otherwise. Every writer that latches a gate
// arrives through it. Readers make one read per gate and judge it
// themselves: each gate carries a seqlock version counter (gate.go) that is
// odd while an exclusive holder may be mutating the chunk, and Get/Scan
// validate an unsynchronised chunk read against it, making the same read
// under the shared latch only on sustained contention (read.go).
//
// Inside its chunk every writer inserts one way, mergeLocal (gate.go): a
// point Put is a run of one, a combining queue's drain or a batch run a
// longer one. A lone op goes into its segment when the segment has room or
// holds the key, a longer run that fits its target segments is merged into
// each of them, and otherwise the smallest in-chunk calibrator window that
// fits is rebalanced with the run merged in (Section 3.3's local rebalance). Rebalances that span multiple
// gates are executed by a centralised rebalancer service: one master
// goroutine, which fans a window out over up to Config.Workers goroutines
// (Fan). A writer whose inserts overflow its chunk
// hands them off in one way (handOff, async.go): it releases its latch with the gate's combining queue open and
// submits a batch request. A writer releases its latch before it submits,
// and only the master ever holds more than one latch — the deadlock-freedom
// argument of Section 3.3. A rebalance spreads its window evenly or, in
// ModeOneByOne, by the adaptive policy (spread.go); a multi-gate one merges
// the window with its inserts into scratch and fills fresh chunk buffers
// from it, which one pointer store each swaps in (Section 3.1's rewiring;
// install in cgate.go). Resizes rebuild array, gates and index behind an
// atomic state pointer (Section 3.4). The paper's epochs, which keep a
// retired state's memory from being reused under a reader still routing
// through it, have no counterpart: nothing reuses a retired chunk buffer —
// it is never written again, and Go's GC frees it with the rest of the
// state once no reader holds it — and a racing reader's version validation
// sees the gate invalid and discards the read (rebalancer.go, resize).
// Skewed writers are decoupled through per-gate combining queues with
// one-by-one or batch processing and a tdelay rate limit on global
// rebalances (Section 3.5): an uncontended writer updates in place; the
// queue is for writers that arrive while the latch is held.
//
// Beyond the paper, batch.go adds a client-facing batch subsystem
// (PutBatch, DeleteBatch, BulkLoad): sorted batches are partitioned along
// the gate fences so each affected gate is latched once and its run merged
// in a single pass, reusing the Section 3.5 machinery only when a run
// overflows its chunk.
package core

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"pmago/internal/obs"
)

// Mode selects the update-processing scheme of Section 3.5.
type Mode int

const (
	// ModeSync is the baseline: every writer latches its gate exclusively
	// and blocks until its update is applied.
	ModeSync Mode = iota
	// ModeOneByOne combines blocked writers' updates into the active
	// writer's queue and processes them in arrival order, preserving the
	// benefit of adaptive rebalancing.
	ModeOneByOne
	// ModeBatch combines blocked writers' updates and applies them in two
	// passes (deletions first, then insertions merged into one rebalance),
	// deferring global rebalances by TDelay per gate.
	ModeBatch
)

func (m Mode) String() string {
	switch m {
	case ModeSync:
		return "sync"
	case ModeOneByOne:
		return "1by1"
	case ModeBatch:
		return "batch"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Config holds the tunable parameters of the concurrent PMA.
type Config struct {
	// SegmentCapacity is the number of slots per segment (the paper's
	// B = 128). Power of two, >= 4.
	SegmentCapacity int
	// SegmentsPerGate is the chunk granularity (the paper uses 8).
	// Power of two, 1 to 8: a gate keeps its segments' minima and
	// cardinalities inline, sized for the paper's 8.
	SegmentsPerGate int
	// Mode selects synchronous or asynchronous update processing.
	Mode Mode
	// TDelay is the minimum time between global rebalances of the same
	// gate in ModeBatch (the paper evaluates 0-800ms, default 100ms).
	TDelay time.Duration
	// Workers bounds the goroutines, the caller's included, that a
	// rebalance or resize fans its window out over and that a batch is
	// applied by (the paper's 8 workers, matching its cores). Defaults to
	// GOMAXPROCS capped at 8.
	Workers int
	// CompressedChunks stores each segment delta-encoded (cgate.go) instead
	// of as fixed 16-byte slots: ~2-4x less memory for dense key runs, at
	// the cost of a bounded per-segment decode on reads and a re-encode on
	// writes. All semantics, the seqlock read protocol and the rebalance
	// machinery are unchanged; the representation is fixed at construction.
	CompressedChunks bool
}

// DefaultConfig mirrors the evaluation setup of Section 4.
func DefaultConfig() Config {
	return Config{
		SegmentCapacity: 128,
		SegmentsPerGate: 8,
		Mode:            ModeBatch,
		TDelay:          100 * time.Millisecond,
	}
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.SegmentCapacity < 4 || c.SegmentCapacity&(c.SegmentCapacity-1) != 0 {
		return fmt.Errorf("core: segment capacity %d must be a power of two >= 4", c.SegmentCapacity)
	}
	if c.SegmentsPerGate < 1 || c.SegmentsPerGate > maxSegmentsPerGate || c.SegmentsPerGate&(c.SegmentsPerGate-1) != 0 {
		return fmt.Errorf("core: segments per gate %d must be a power of two in [1, %d]", c.SegmentsPerGate, maxSegmentsPerGate)
	}
	if c.Mode < ModeSync || c.Mode > ModeBatch {
		return fmt.Errorf("core: unknown mode %d", int(c.Mode))
	}
	if c.TDelay < 0 {
		return fmt.Errorf("core: negative tdelay")
	}
	return nil
}

// Stats is the typed metrics snapshot returned by PMA.Stats: the obs-layer
// core section (read path, combining queues, rebalancer).
type Stats = obs.CoreSnapshot

// Calibrator-tree density thresholds (Section 2) at the paper's evaluation
// values: the root's lower and upper bounds rhoRoot <= tauRoot and the leaf
// upper bound tauLeaf, with state.thresholds interpolating the levels
// between. The leaf lower threshold is fixed at 0, with downsizing below 50%
// occupancy. predictorSize bounds the per-gate adaptive predictor.
const (
	rhoRoot       = 0.75
	tauRoot       = 0.75
	tauLeaf       = 1.0
	predictorSize = 64
)

// state is one immutable-geometry generation of the sparse array. A resize
// builds a fresh state and publishes it through PMA.state.
type state struct {
	p       *PMA
	gates   []*gate
	index   *staticIndex
	spg     int
	b       int
	numSegs int // len(gates) * spg
	height  int // calibrator tree height over all segments
	// fenceGen counts the global rebalances that moved fences in this state.
	// It stands in for the fence check where a writer acts on an index
	// lookup without the latch: appending to an open queue (lockOrCombine).
	fenceGen atomic.Uint64

	// card is added to by every insert and delete, while every Get and
	// scanned chunk reads the header above: the padding keeps it off the
	// header's cache lines (and off the next object's), so a writer's add
	// does not invalidate the line readers route through.
	_    [128]byte
	card atomic.Int64
	_    [120]byte
}

func (st *state) slots() int { return st.numSegs * st.b }

// thresholds interpolates the calibrator-tree density thresholds for level k
// of a tree of height h (Section 2), with the evaluation's relaxed rho1 = 0.
func (st *state) thresholds(k, h int) (rho, tau float64) {
	if h <= 1 {
		return rhoRoot, tauRoot
	}
	f := float64(h-k) / float64(h-1)
	tau = tauRoot + (tauLeaf-tauRoot)*f
	rho = rhoRoot * (1 - f) // rho1 = 0
	return rho, tau
}

// PMA is the concurrent packed memory array. All methods are safe for
// concurrent use by any number of goroutines.
type PMA struct {
	cfg Config
	// attempts is the seqlock budget of a read before it takes the shared
	// latch (read.go): optimisticAttempts, or 0 — every read latched — in
	// race builds. Tests set it to 0 after New, before the PMA is shared,
	// to run the latched read in normal builds.
	attempts int

	state atomic.Pointer[state]

	reb *rebalancer

	// cctx is non-nil exactly when Config.CompressedChunks is set: the
	// store's segments are delta blocks instead of slots (cgate.go).
	cctx *cctx

	// scanBufs recycles the per-Scan chunk copies of the copy-out read
	// protocol (read.go); geometry is fixed, so every buffer fits every
	// gate.
	scanBufs sync.Pool

	shrinkPending atomic.Bool
	closed        atomic.Bool

	// metrics is always set: the store always counts, in striped counters
	// off the contended cache lines.
	metrics *obs.CoreMetrics

	// onReload, when set, runs each time enter gives up on a retired gate
	// and loads the state again; tests synchronise on it.
	onReload func()
}

// New creates an empty concurrent PMA and starts its service goroutines
// (rebalancer master, worker pool). Callers must Close it.
func New(cfg Config) (*PMA, error) {
	p, err := newShell(cfg)
	if err != nil {
		return nil, err
	}
	p.state.Store(p.buildLoadedState(nil, nil)) // one gate, empty chunk
	p.startServices()
	return p, nil
}

// newShell normalises and validates the configuration and allocates the PMA
// without a state or running services. New and BulkLoad install their state
// (empty, or pre-filled at target density) before calling startServices.
func newShell(cfg Config) (*PMA, error) {
	if cfg.SegmentCapacity == 0 { // fill zero fields from the default
		def := DefaultConfig()
		def.Mode = cfg.Mode
		def.CompressedChunks = cfg.CompressedChunks
		cfg = def
	}
	if cfg.Workers <= 0 {
		cfg.Workers = min(runtime.GOMAXPROCS(0), 8)
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	p := &PMA{
		cfg:      cfg,
		attempts: optimisticAttempts,
		metrics:  &obs.CoreMetrics{},
	}
	if raceEnabled {
		p.attempts = 0
	}
	if cfg.CompressedChunks {
		p.cctx = newCctx(cfg.SegmentsPerGate, cfg.SegmentCapacity, p.metrics)
	}
	return p, nil
}

// startServices launches the rebalancer. The state must be installed first:
// the rebalancer dereferences it on its first request.
func (p *PMA) startServices() {
	p.reb = newRebalancer(p)
}

// MustNew is New for configurations known statically valid.
func MustNew(cfg Config) *PMA {
	p, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return p
}

// newState builds an empty state with the given number of gates and no
// chunk storage: its builder (resize, buildLoadedState) installs a built
// chunk in every gate before publishing it (installState).
func (p *PMA) newState(numGates int) *state {
	st := &state{
		p:       p,
		spg:     p.cfg.SegmentsPerGate,
		b:       p.cfg.SegmentCapacity,
		numSegs: numGates * p.cfg.SegmentsPerGate,
	}
	st.height = log2(st.numSegs) + 1
	st.gates = make([]*gate, numGates)
	st.index = newStaticIndex(numGates)
	for i := range st.gates {
		var pred *predictor
		if p.cfg.Mode == ModeOneByOne {
			pred = newPredictor(predictorSize)
		}
		st.gates[i] = newGate(i, st.spg, st.b, pred)
		st.gates[i].cc = p.cctx
	}
	// Degenerate fences for an all-empty array: gate 0 owns everything.
	st.gates[0].fenceLo = KeyMin
	st.gates[len(st.gates)-1].fenceHi = KeyMax
	for i := 1; i < len(st.gates); i++ {
		st.gates[i].fenceLo = KeyMax
		st.gates[i-1].fenceHi = KeyMax - 1
		st.index.set(i, KeyMax)
	}
	st.index.set(0, KeyMin)
	return st
}

// Close shuts down the service goroutines. Pending delayed batches are
// applied first so no accepted update is lost. Concurrent operations must
// have completed before Close is called. Close is idempotent; any other
// operation on a closed PMA panics with a "use after Close" message.
func (p *PMA) Close() {
	if p.closed.Swap(true) {
		return
	}
	p.reb.close()
}

// checkOpen guards every client operation against use after Close: without
// it a closed store fails obscurely (a Put can hang forever on the stopped
// rebalancer). The message carries the public package name — it is what the
// user sees.
func (p *PMA) checkOpen() {
	if p.closed.Load() {
		panic("pmago: use after Close")
	}
}

// Len returns the number of elements applied to the array. Updates still
// sitting in combining queues are not counted; call Flush first for an exact
// answer after asynchronous updates.
func (p *PMA) Len() int {
	return int(p.state.Load().card.Load())
}

// Capacity returns the current number of slots.
func (p *PMA) Capacity() int {
	return p.state.Load().slots()
}

// NumGates returns the current number of gates (test/diagnostic helper).
func (p *PMA) NumGates() int {
	return len(p.state.Load().gates)
}

// Stats returns a snapshot of the metrics. A compressed store also fills in
// its gauges, which are read off the live array.
func (p *PMA) Stats() Stats {
	s := p.metrics.Snapshot()
	p.compressionStats(&s)
	return s
}
