package persist

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pmago/internal/codec"
	"pmago/internal/obs"
)

// Log is the segmented write-ahead log. Appends go to the active segment,
// created at Options.SegmentBytes: on Linux it is preallocated and mapped,
// so an append is a copy into the page cache (segment_linux.go); elsewhere
// each append is one write(2) (segment_other.go). When a record does not fit
// in the space left, the segment is sealed — cut to the bytes appended,
// fsynced, closed — before the next one is created, so a torn write can only
// ever sit at the tail of the newest segment. All methods are safe for
// concurrent use.
//
// Durability bookkeeping is two monotonic byte counters: written (bytes in
// the page cache, where a process crash cannot lose them) and synced (bytes
// known to be on stable storage). Under FsyncAlways each append waits for
// synced to cover its own end offset; the group-commit fast path is that
// one writer's fsync advances synced past many waiters at once, and
// rotation — which always fsyncs the outgoing segment — does the same.
type Log struct {
	dir     string
	o       Options
	metrics *obs.WALMetrics // the log's counters and latency histograms

	mu      sync.Mutex       // guards the fields below (append/rotate path)
	seg     *segment         // active segment; nil once sealed for good
	seq     uint64           // active segment number
	segSize int64            // bytes appended to the active segment
	segCap  int64            // size the active segment was opened with
	live    map[uint64]int64 // sizes of the sealed live segments
	scratch []byte           // reusable encode buffer
	written uint64           // total bytes appended this session
	recs    uint64           // total records appended this session
	err     error            // sticky write error: the log is dead once set

	synced atomic.Uint64
	syncMu sync.Mutex // serialises group-commit fsyncs

	// recsSynced mirrors synced in record units, purely for metrics: the
	// amount each fsync advances it is that fsync's group-commit batch
	// size.
	recsSynced atomic.Uint64

	stop chan struct{} // interval-fsync loop, nil unless FsyncInterval
	done sync.WaitGroup
}

const (
	segPrefix = "wal-"
	segSuffix = ".log"
)

func segName(seq uint64) string { return fmt.Sprintf("%s%020d%s", segPrefix, seq, segSuffix) }

func parseSegName(name string) (uint64, bool) {
	if !strings.HasPrefix(name, segPrefix) || !strings.HasSuffix(name, segSuffix) {
		return 0, false
	}
	seq, err := strconv.ParseUint(name[len(segPrefix):len(name)-len(segSuffix)], 10, 64)
	return seq, err == nil
}

// listSegments returns the WAL segment numbers present in dir, ascending.
func listSegments(dir string) ([]uint64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var seqs []uint64
	for _, e := range ents {
		if seq, ok := parseSegName(e.Name()); ok {
			seqs = append(seqs, seq)
		}
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	return seqs, nil
}

// OpenLog starts a fresh active segment with the given number (which must
// not exist yet — recovery always rotates past replayed segments) and
// adopts any older segments still in dir into the live-size accounting.
func OpenLog(dir string, seq uint64, o Options) (*Log, error) {
	o = o.normalize()
	w := &Log{dir: dir, o: o, metrics: &obs.WALMetrics{}, seq: seq, live: map[uint64]int64{}}
	seqs, err := listSegments(dir)
	if err != nil {
		return nil, err
	}
	for _, s := range seqs {
		if s >= seq {
			return nil, fmt.Errorf("persist: segment %d already exists at or past new active %d", s, seq)
		}
		if fi, err := os.Stat(filepath.Join(dir, segName(s))); err == nil {
			w.live[s] = fi.Size()
		}
	}
	if w.seg, err = openSegment(filepath.Join(dir, segName(seq)), o.SegmentBytes); err != nil {
		return nil, err
	}
	w.segCap = o.SegmentBytes
	syncDir(dir)
	if o.Fsync == FsyncInterval {
		w.stop = make(chan struct{})
		w.done.Add(1)
		go w.syncLoop()
	}
	return w, nil
}

func (w *Log) syncLoop() {
	defer w.done.Done()
	t := time.NewTicker(w.o.FsyncEvery)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			_ = w.Sync()
		case <-w.stop:
			return
		}
	}
}

// AppendPut logs a point upsert. Under FsyncAlways it returns only once the
// record is on stable storage.
func (w *Log) AppendPut(k, v int64) error {
	return w.append(func(b []byte) []byte { return encodePut(b, k, v) })
}

// AppendDelete logs a point delete.
func (w *Log) AppendDelete(k int64) error {
	return w.append(func(b []byte) []byte { return encodeDelete(b, k) })
}

// maxBatchPairs caps the pairs per batch record so no record can approach
// maxRecordBytes (worst case ~10 bytes per varint pair → ~80 MiB). Larger
// client batches are logged as consecutive chunk records; recovery restores
// each chunk whole or not at all, which is exactly the guarantee the
// in-memory batch gives anyway (a batch is applied gate by gate, not
// atomically). A var,
// not a const, so tests can exercise the chunking cheaply.
var maxBatchPairs = 1 << 22

// AppendPutBatch logs a PutBatch, splitting oversized batches into chunk
// records.
func (w *Log) AppendPutBatch(keys, vals []int64) error {
	for len(keys) > maxBatchPairs {
		if err := w.append(func(b []byte) []byte {
			return encodeBatch(b, KindPutBatch, keys[:maxBatchPairs], vals[:maxBatchPairs])
		}); err != nil {
			return err
		}
		keys, vals = keys[maxBatchPairs:], vals[maxBatchPairs:]
	}
	return w.append(func(b []byte) []byte { return encodeBatch(b, KindPutBatch, keys, vals) })
}

// AppendDeleteBatch logs a DeleteBatch, splitting oversized batches into
// chunk records.
func (w *Log) AppendDeleteBatch(keys []int64) error {
	for len(keys) > maxBatchPairs {
		if err := w.append(func(b []byte) []byte {
			return encodeBatch(b, KindDeleteBatch, keys[:maxBatchPairs], nil)
		}); err != nil {
			return err
		}
		keys = keys[maxBatchPairs:]
	}
	return w.append(func(b []byte) []byte { return encodeBatch(b, KindDeleteBatch, keys, nil) })
}

func (w *Log) append(encode func([]byte) []byte) error {
	w.lockAppend()
	if w.err != nil {
		err := w.err
		w.mu.Unlock()
		return err
	}
	w.scratch = encode(w.scratch[:0])
	rec := w.scratch
	if len(rec)-codec.FrameHeader > maxRecordBytes {
		// Never write a record replay would reject as corrupt: that
		// would acknowledge an update and then silently truncate it
		// (and everything after it) on the next recovery.
		w.mu.Unlock()
		return fmt.Errorf("persist: record payload %d bytes exceeds the %d limit", len(rec)-codec.FrameHeader, maxRecordBytes)
	}
	if n := int64(len(rec)); w.segSize+n > w.segCap {
		// A record larger than SegmentBytes gets a segment of its own
		// size. An empty active segment is sealed empty, as Rotate on an
		// idle log leaves one.
		if err := w.rotateLocked(max(w.o.SegmentBytes, n)); err != nil {
			w.mu.Unlock()
			return err
		}
	}
	if err := w.seg.write(w.segSize, rec); err != nil {
		w.err = fmt.Errorf("persist: wal append: %w", err)
		err = w.err
		w.mu.Unlock()
		return err
	}
	w.segSize += int64(len(rec))
	w.written += uint64(len(rec))
	w.recs++
	// Counted under mu, before any fsync can cover the record, so
	// GroupCommit.Sum <= Appends holds even against a concurrent Stats.
	w.metrics.Appends.Inc()
	w.metrics.AppendBytes.Add(uint64(len(rec)))
	target := w.written
	w.mu.Unlock()

	if w.o.Fsync == FsyncAlways {
		return w.syncTo(target)
	}
	return nil
}

// lockAppend takes mu for an append. The clock is read only when mu is
// already held: the wait is what AppendWindow records, and an uncontended
// append — the common case, whose encode and copy cost tens of nanoseconds —
// pays no clock read at all.
func (w *Log) lockAppend() {
	if w.mu.TryLock() {
		return
	}
	t0 := time.Now()
	w.mu.Lock()
	t1 := time.Now()
	w.metrics.AppendWindow.ObserveAt(t1.UnixNano(), uint64(t1.Sub(t0)))
}

// rotateLocked seals the active segment and opens the next one, of size
// bytes. Called with mu held. The next segment is created only once the
// outgoing one is cut to its records and fsynced: replay refuses damage in
// any segment but the last, so no segment may be left holding preallocated
// space once a newer one exists.
func (w *Log) rotateLocked(size int64) error {
	if err := w.sealLocked(); err != nil {
		w.err = fmt.Errorf("persist: wal rotate: %w", err)
		return w.err
	}
	w.metrics.Rotations.Inc()
	w.live[w.seq] = w.segSize
	w.seq++
	seg, err := openSegment(filepath.Join(w.dir, segName(w.seq)), size)
	if err != nil {
		w.err = fmt.Errorf("persist: wal rotate open: %w", err)
		return w.err
	}
	w.seg, w.segSize, w.segCap = seg, 0, size
	syncDir(w.dir)
	return nil
}

// sealLocked seals the active segment (see segment.seal) and drops it.
// Called with mu held. Because the sealed segment is fsynced, synced can
// jump to everything written so far.
func (w *Log) sealLocked() error {
	t0 := time.Now()
	err := w.seg.seal(w.segSize)
	w.seg = nil
	if err != nil {
		return err
	}
	advanceMax(&w.synced, w.written)
	// Every appended record is in this or an older (already fsynced)
	// segment, so this fsync covers all w.recs records. The observe runs
	// with mu held — acceptable, because the metrics update is fast.
	w.observeFsync(t0, w.recs)
	return nil
}

// Rotate forces a segment boundary and returns the new active segment
// number. A snapshot cuts here: it covers everything before the returned
// segment, so recovery replays from it and older segments become garbage.
func (w *Log) Rotate() (uint64, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return 0, w.err
	}
	if err := w.rotateLocked(w.o.SegmentBytes); err != nil {
		return 0, err
	}
	return w.seq, nil
}

// Sync forces everything appended so far to stable storage.
func (w *Log) Sync() error {
	w.mu.Lock()
	target := w.written
	err := w.err
	w.mu.Unlock()
	if err != nil {
		return err
	}
	return w.syncTo(target)
}

// syncTo blocks until synced covers target. The caller that wins syncMu
// fsyncs on behalf of everyone queued behind it (group commit); waiters
// whose target was covered meanwhile return without touching the disk.
func (w *Log) syncTo(target uint64) error {
	if w.synced.Load() >= target {
		return nil
	}
	w.syncMu.Lock()
	defer w.syncMu.Unlock()
	if w.synced.Load() >= target {
		return nil
	}
	w.mu.Lock()
	seg, written, recs, err := w.seg, w.written, w.recs, w.err
	w.mu.Unlock()
	if err != nil {
		return err
	}
	t0 := time.Now()
	// On Linux fsync also writes back the pages appends dirtied through
	// the segment's mapping: they are the file's page cache.
	if err := seg.sync(); err != nil {
		w.mu.Lock()
		defer w.mu.Unlock()
		// The segment may have been sealed under us, closing its file.
		// The seal runs under mu and advances synced before releasing it,
		// so if synced now covers the target that fsync was ours in spirit.
		if w.synced.Load() >= target {
			return nil
		}
		w.err = fmt.Errorf("persist: wal fsync: %w", err)
		return err
	}
	advanceMax(&w.synced, written)
	w.observeFsync(t0, recs)
	return nil
}

// observeFsync records one File.Sync begun at t0 and completed now: its
// latency and the records it newly made durable (the group-commit batch
// size). Called from syncTo (no locks held) and from rotateLocked (mu held).
// A stalled fsync shows as the max of FsyncNanos and FsyncWindow.
func (w *Log) observeFsync(t0 time.Time, recsAtSync uint64) {
	now := time.Now()
	d := now.Sub(t0)
	w.metrics.FsyncNanos.ObserveDuration(d)
	w.metrics.FsyncWindow.ObserveAt(now.UnixNano(), uint64(d))
	if delta := advanceMaxDelta(&w.recsSynced, recsAtSync); delta > 0 {
		w.metrics.GroupCommit.Observe(delta)
	}
}

func advanceMax(a *atomic.Uint64, v uint64) {
	for {
		cur := a.Load()
		if cur >= v || a.CompareAndSwap(cur, v) {
			return
		}
	}
}

// advanceMaxDelta is advanceMax returning how far it moved the value (0 when
// v was already covered). Concurrent callers see disjoint deltas, so the
// deltas sum to the high-water mark.
func advanceMaxDelta(a *atomic.Uint64, v uint64) uint64 {
	for {
		cur := a.Load()
		if cur >= v {
			return 0
		}
		if a.CompareAndSwap(cur, v) {
			return v - cur
		}
	}
}

// Metrics returns the log's live counters and latency histograms; the
// owning store snapshots them for Stats.
func (w *Log) Metrics() *obs.WALMetrics { return w.metrics }

// LiveBytes returns the bytes appended to all live segments — the replay
// work a crash would cost right now, and the input to the compaction
// trigger. The active segment counts with its appended bytes, not its
// preallocated size.
func (w *Log) LiveBytes() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	n := w.segSize
	for _, sz := range w.live {
		n += sz
	}
	return n
}

// TruncateBefore removes all segments numbered below seq — called after a
// snapshot covering them has been durably written. Removal failures are
// ignored: a leftover segment is re-deleted after the next snapshot, and
// replay skips segments below the snapshot's cut anyway.
func (w *Log) TruncateBefore(seq uint64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	for s := range w.live {
		if s < seq {
			_ = os.Remove(filepath.Join(w.dir, segName(s)))
			delete(w.live, s)
		}
	}
	syncDir(w.dir)
}

// errClosed is the sticky error of a cleanly closed log: appends fail with
// it, but it is no failure, and Err does not report it.
var errClosed = errors.New("persist: log closed")

// Err returns the failure that stopped the log — a failed append, rotation
// or fsync — or nil while it is healthy and after a clean Close. Once set it
// stays set: no later record can be made durable, and every append, Sync and
// Rotate returns it.
func (w *Log) Err() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err == errClosed {
		return nil
	}
	return w.err
}

// Close seals the active segment: it is cut to the bytes appended, fsynced
// and closed. A failure latched earlier is returned in preference to the
// seal's own, which is latched too. The log must not be used afterwards;
// Close is idempotent only through its owner (pmago.DB guards).
func (w *Log) Close() error {
	if w.stop != nil {
		close(w.stop)
		w.done.Wait()
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.seg != nil {
		if err := w.sealLocked(); err != nil && w.err == nil {
			w.err = fmt.Errorf("persist: wal close: %w", err)
		}
	}
	err := w.err
	if err == nil {
		w.err = errClosed
	}
	return err
}

// Replay feeds every complete record in segments >= fromSeq, in log order,
// to fn. A torn or corrupt record in the final segment ends replay and is
// truncated off the file together with everything after it — the signature
// of a crash mid-append; the same damage in any earlier segment is returned
// as an error, because closed segments were fsynced and should never tear.
// It returns the highest segment number seen (fromSeq-1 when none exist),
// so the caller can open the log past it.
func Replay(dir string, fromSeq uint64, fn func(*Record) error) (lastSeq uint64, err error) {
	seqs, err := listSegments(dir)
	if err != nil {
		return 0, err
	}
	lastSeq = fromSeq - 1
	var replay []uint64
	for _, s := range seqs {
		if s >= fromSeq {
			replay = append(replay, s)
		}
	}
	for i, s := range replay {
		if i > 0 && s != replay[i-1]+1 {
			return 0, fmt.Errorf("persist: wal gap: segment %d follows %d", s, replay[i-1])
		}
	}
	// The cut segment itself must be the first one replayed: a snapshot's
	// rotation always creates segment fromSeq, so starting anywhere later
	// means records between the checkpoint and the surviving tail are
	// gone (e.g. a fallback to an older snapshot whose segments were
	// already truncated). An empty tail is fine — a snapshot-only restore.
	if len(replay) > 0 && replay[0] != fromSeq {
		return 0, fmt.Errorf("persist: wal history incomplete: replay must start at segment %d but oldest surviving segment is %d", fromSeq, replay[0])
	}
	var rec Record
	for i, s := range replay {
		path := filepath.Join(dir, segName(s))
		data, err := os.ReadFile(path)
		if err != nil {
			return 0, err
		}
		off := 0
		for off < len(data) {
			n, ok := decodeRecord(data[off:], &rec)
			if !ok {
				if i != len(replay)-1 {
					return 0, fmt.Errorf("persist: corrupt record at %s offset %d (closed segment)", segName(s), off)
				}
				// A crash can only tear the very last append: nothing is
				// ever written after a torn record. If checksum-valid
				// records exist past the damage, this is bit rot eating
				// acknowledged writes — refuse, like for closed segments,
				// rather than silently truncating the valid suffix.
				if hasValidRecordAfter(data, off) {
					return 0, fmt.Errorf("persist: corrupt record at %s offset %d followed by valid records (bit rot, not a torn tail)", segName(s), off)
				}
				if err := os.Truncate(path, int64(off)); err != nil {
					return 0, fmt.Errorf("persist: truncating torn tail of %s: %w", segName(s), err)
				}
				syncDir(dir)
				break
			}
			if err := fn(&rec); err != nil {
				return 0, err
			}
			off += n
		}
		lastSeq = s
	}
	return lastSeq, nil
}
