package persist

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"time"

	"pmago/internal/codec"
	"pmago/internal/core"
)

// Snapshot wire format. A snapshot is one consistent full scan of the
// store, framed so every byte is covered by a checksum:
//
//	magic   "PMASNAP1"
//	u64     walSeq — recovery replays WAL segments >= this
//	frames  { u8 frameBlock, u32 payloadLen, u32 CRC32-C, payload }*
//	trailer { u8 frameTrailer, u64 pair count, u32 CRC32-C of the count }
//
// After its kind byte a block frame is a codec frame, as a WAL record is.
// Block payloads are delta-encoded by the shared internal/codec package
// (pair count, the block's first key as a zigzag varint, then successive
// key gaps as plain uvarints, then the values as zigzag varints — see the
// codec docs), the same encoding the core uses for compressed in-memory
// chunks. A sorted int64 store snapshots at a few bytes per pair instead
// of 16. Every store, whatever its chunk layout, is written the same way:
// its pairs are scanned and re-cut into blocks of SnapshotBlockEntries
// pairs, so the same content gives the same file.
//
// The file is written as snap-<seq>.pma.tmp, fsynced, then renamed: a
// crash mid-snapshot leaves only a .tmp that recovery ignores. A snapshot
// is valid only if the magic, every block CRC, the trailer CRC and the
// total count all check out; otherwise recovery falls back to the previous
// snapshot, whose WAL segments are only deleted after a newer snapshot
// lands durably.
const (
	snapMagic    = "PMASNAP1"
	frameBlock   = 1
	frameTrailer = 2
	snapPrefix   = "snap-"
	snapSuffix   = ".pma"
)

func snapName(seq uint64) string { return fmt.Sprintf("%s%020d%s", snapPrefix, seq, snapSuffix) }

func parseSnapName(name string) (uint64, bool) {
	if len(name) < len(snapPrefix)+len(snapSuffix) ||
		name[:len(snapPrefix)] != snapPrefix || name[len(name)-len(snapSuffix):] != snapSuffix {
		return 0, false
	}
	var seq uint64
	_, err := fmt.Sscanf(name[len(snapPrefix):len(name)-len(snapSuffix)], "%d", &seq)
	return seq, err == nil
}

// listSnapshots returns snapshot sequence numbers in dir, descending
// (newest first).
func listSnapshots(dir string) ([]uint64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var seqs []uint64
	for _, e := range ents {
		if seq, ok := parseSnapName(e.Name()); ok {
			seqs = append(seqs, seq)
		}
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] > seqs[j] })
	return seqs, nil
}

// WriteSnapshot streams the pairs produced by iter (which must yield
// strictly increasing keys — a PMA scan does) into a durable snapshot file
// covering WAL segments below walSeq: it writes the header, the block frames
// and the trailer through writeDurable (snap-<walSeq>.pma.tmp, fsync,
// rename, directory sync). A non-nil error from iter — raised after the
// scan, e.g. when the caller fails to sync the WAL records the scan may have
// observed — aborts before the trailer and rename: the temp file is removed
// and no checkpoint is published. It reports the pair count and the file
// size, the latter feeding the compaction trigger.
func WriteSnapshot(dir string, walSeq uint64, iter func(yield func(k, v int64) bool) error, o Options) (count, size int64, err error) {
	o = o.normalize()
	size, err = writeDurable(filepath.Join(dir, snapName(walSeq)), func(f *os.File) error {
		bw := bufio.NewWriterSize(f, 1<<20)
		header := binary.LittleEndian.AppendUint64([]byte(snapMagic), walSeq)
		if _, err := bw.Write(header); err != nil {
			return err
		}
		var (
			blockK  = make([]int64, 0, o.SnapshotBlockEntries)
			blockV  = make([]int64, 0, o.SnapshotBlockEntries)
			scratch []byte
			prev    int64
			werr    error
		)
		flush := func() error {
			if len(blockK) == 0 {
				return nil
			}
			scratch = encodeSnapBlock(scratch[:0], blockK, blockV)
			blockK, blockV = blockK[:0], blockV[:0]
			_, err := bw.Write(scratch)
			return err
		}
		cbErr := iter(func(k, v int64) bool {
			if count > 0 && k <= prev {
				werr = fmt.Errorf("persist: snapshot iterator not strictly increasing at key %d", k)
				return false
			}
			prev = k
			count++
			blockK = append(blockK, k)
			blockV = append(blockV, v)
			if len(blockK) >= o.SnapshotBlockEntries {
				werr = flush()
			}
			return werr == nil
		})
		if werr != nil {
			return werr
		}
		if cbErr != nil {
			return cbErr
		}
		if err := flush(); err != nil {
			return err
		}
		trailer := make([]byte, 0, 13)
		trailer = append(trailer, frameTrailer)
		trailer = binary.LittleEndian.AppendUint64(trailer, uint64(count))
		trailer = binary.LittleEndian.AppendUint32(trailer, crc32.Checksum(trailer[1:9], codec.CRC32C))
		if _, err := bw.Write(trailer); err != nil {
			return err
		}
		return bw.Flush()
	})
	if err != nil {
		return 0, 0, err
	}
	return count, size, nil
}

// encodeSnapBlock appends one framed, delta-encoded block to b.
func encodeSnapBlock(b []byte, keys, vals []int64) []byte {
	return codec.AppendFrame(append(b, frameBlock), func(p []byte) []byte { return codec.AppendBlock(p, keys, vals) })
}

// LoadSnapshot reads and fully validates a snapshot file, returning its
// sorted pairs and the WAL segment recovery must replay from. Any checksum,
// framing, ordering or count mismatch invalidates the whole file; the fault
// reported is the first in file order.
//
// One serial walk reads each frame's kind and length and each block's
// leading pair count, whose prefix sums give every block its place in one
// output allocation. The blocks' checksums and decodes then run in parallel
// (core.Fan over GOMAXPROCS), and the key order across block boundaries and
// the trailer's count are checked after.
func LoadSnapshot(path string) (keys, vals []int64, walSeq uint64, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, 0, err
	}
	name := filepath.Base(path)
	if len(data) < len(snapMagic)+8 || string(data[:len(snapMagic)]) != snapMagic {
		return nil, nil, 0, fmt.Errorf("persist: %s: bad snapshot magic", name)
	}
	walSeq = binary.LittleEndian.Uint64(data[len(snapMagic):])
	type block struct {
		frame  []byte // the codec frame after the kind byte
		lo, hi int    // its pairs' place in the output
	}
	var (
		blocks  []block
		total   int
		trailer uint64
		walkErr error // the framing fault that ended the walk, if any
	)
walk:
	for p := data[len(snapMagic)+8:]; ; {
		switch {
		case len(p) == 0:
			walkErr = fmt.Errorf("persist: %s: missing trailer", name)
			break walk
		case p[0] == frameBlock:
			var n uint32 // NextFrame's bounds, without the checksum
			if len(p) >= 1+codec.FrameHeader {
				n, _ = codec.ParseFrameHeader(p[1:])
			}
			if n == 0 || int64(n) > int64(min(maxRecordBytes, len(p)-1-codec.FrameHeader)) {
				walkErr = fmt.Errorf("persist: %s: bad block frame", name)
				break walk
			}
			frame := p[1 : 1+codec.FrameHeader+int(n)]
			// A count the decoder refuses places nothing: that block's
			// task reports it, or the bad checksum that hides it.
			c, cn := codec.Uvarint(frame[codec.FrameHeader:], 0)
			if cn == 0 || c > uint64(maxSnapBlockPairs(int(n))) {
				c = 0
			}
			blocks = append(blocks, block{frame, total, total + int(c)})
			total += int(c)
			p = p[len(frame)+1:]
		case p[0] == frameTrailer:
			if len(p) == 13 && crc32.Checksum(p[1:9], codec.CRC32C) == binary.LittleEndian.Uint32(p[9:]) {
				trailer = binary.LittleEndian.Uint64(p[1:])
			} else {
				walkErr = fmt.Errorf("persist: %s: bad trailer", name)
			}
			break walk
		default:
			walkErr = fmt.Errorf("persist: %s: unknown frame %d", name, p[0])
			break walk
		}
	}
	keys, vals = make([]int64, total), make([]int64, total)
	errs := make([]error, len(blocks))
	core.Fan(len(blocks), runtime.GOMAXPROCS(0), func(i int) error {
		b := blocks[i]
		if payload, ok := codec.NextFrame(b.frame, maxRecordBytes); !ok {
			errs[i] = fmt.Errorf("persist: %s: bad block frame", name)
		} else if _, _, err := decodeSnapBlock(payload, keys[b.lo:b.lo:b.hi], vals[b.lo:b.lo:b.hi]); err != nil {
			errs[i] = fmt.Errorf("persist: %s: %w", name, err)
		}
		return nil
	})
	for i, b := range blocks {
		if errs[i] != nil {
			return nil, nil, 0, errs[i]
		}
		if b.lo > 0 && keys[b.lo] <= keys[b.lo-1] {
			return nil, nil, 0, fmt.Errorf("persist: %s: block keys out of order", name)
		}
	}
	if walkErr != nil {
		return nil, nil, 0, walkErr
	}
	if trailer != uint64(total) {
		return nil, nil, 0, fmt.Errorf("persist: %s: count mismatch: trailer %d, blocks %d", name, trailer, total)
	}
	return keys, vals, walSeq, nil
}

// decodeSnapBlock delegates to the shared hardened decoder; the key-delta
// overflow check and all other consistency rules live in internal/codec
// (this used to be a duplicated copy of the core's decoder). A decode error
// invalidates the whole snapshot, so the partially-appended pairs codec may
// leave behind are discarded by the caller.
func decodeSnapBlock(p []byte, keys, vals []int64) ([]int64, []int64, error) {
	return codec.DecodeBlock(p, keys, vals, maxSnapBlockPairs(len(p)))
}

// maxSnapBlockPairs bounds the pair count of an n-byte block payload. A pair
// takes two bytes at least, so the block's own length bounds its count: the
// decoder, and LoadSnapshot's placement, size the output by the count before
// reading the pairs, and a few bytes claiming 2^29 pairs would otherwise
// cost a 4 GiB allocation.
func maxSnapBlockPairs(n int) int { return min(maxRecordBytes, n) / 2 }

// RemoveSnapshotsBefore deletes snapshots older than seq; called after the
// snapshot at seq is durable. Best-effort, like WAL truncation.
func RemoveSnapshotsBefore(dir string, seq uint64) {
	seqs, err := listSnapshots(dir)
	if err != nil {
		return
	}
	for _, s := range seqs {
		if s < seq {
			_ = os.Remove(filepath.Join(dir, snapName(s)))
		}
	}
	syncDir(dir)
	// Abandoned .tmp files from crashed snapshot attempts are garbage too.
	ents, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	for _, e := range ents {
		if n := e.Name(); filepath.Ext(n) == ".tmp" {
			if _, ok := parseSnapName(n[:len(n)-len(".tmp")]); ok {
				_ = os.Remove(filepath.Join(dir, n))
			}
		}
	}
}

// Recovered is the store's state as its files hold it, and what reading it
// cost.
type Recovered struct {
	// Keys and Vals are the snapshot's pairs with the WAL tail folded in,
	// in strictly ascending key order.
	Keys, Vals []int64
	// SnapshotBytes is the snapshot's file size, which seeds the
	// compaction trigger (0 without a snapshot).
	SnapshotPairs int
	SnapshotBytes int64
	WALRecords    int64 // tail records folded in
	// SnapshotLoad times reading the snapshot, WALReplay reading the tail
	// and folding it in.
	SnapshotLoad, WALReplay time.Duration
	// NextSeq is the segment number the log must be opened at: one past
	// everything replayed.
	NextSeq uint64
}

// Recover performs the read side of crash recovery, as a pure function of
// the files: it loads the newest snapshot that validates (none, when no
// usable snapshot exists), reads the WAL tail after it in log order, and
// folds the tail into the snapshot's pairs (foldTail). Building the store
// from Keys and Vals is one bulk load.
func Recover(dir string) (Recovered, error) {
	var rec Recovered
	start := time.Now()
	snaps, err := listSnapshots(dir)
	if err != nil {
		return rec, err
	}
	var keys, vals []int64
	fromSeq := uint64(0)
	for _, s := range snaps {
		path := filepath.Join(dir, snapName(s))
		k, v, walSeq, err := LoadSnapshot(path)
		if err != nil {
			continue // damaged snapshot: fall back to an older one
		}
		if fi, statErr := os.Stat(path); statErr == nil {
			rec.SnapshotBytes = fi.Size()
		}
		keys, vals = k, v
		fromSeq = walSeq
		break
	}
	if fromSeq == 0 {
		// No usable snapshot. That is only safe when the WAL still goes
		// back to the very beginning: if snapshot files exist but none
		// validates, the segments they covered are already truncated and
		// recovering from the WAL tail alone would silently drop
		// everything checkpointed — refuse instead of losing data.
		if len(snaps) > 0 {
			return rec, fmt.Errorf("persist: %d snapshot file(s) present but none valid; the WAL no longer covers their contents", len(snaps))
		}
		segs, err := listSegments(dir)
		if err != nil {
			return rec, err
		}
		if len(segs) > 0 {
			if segs[0] != 1 {
				return rec, fmt.Errorf("persist: wal history incomplete: oldest segment is %d and no snapshot covers the gap", segs[0])
			}
			fromSeq = segs[0]
		} else {
			fromSeq = 1
		}
	}
	rec.SnapshotPairs = len(keys)
	rec.SnapshotLoad = time.Since(start)
	var tail []tailOp
	lastSeq, err := Replay(dir, fromSeq, func(r *Record) error {
		rec.WALRecords++
		del := r.Kind == KindDelete || r.Kind == KindDeleteBatch
		if len(tail)+len(r.Keys) > cap(tail) {
			// Double: append grows a large slice by a quarter at a time.
			tail = slices.Grow(tail, max(len(tail), len(r.Keys)))
		}
		for i, k := range r.Keys {
			o := tailOp{key: k, del: del}
			if !del {
				o.val = r.Vals[i]
			}
			tail = append(tail, o)
		}
		return nil
	})
	if err != nil {
		return rec, err
	}
	rec.Keys, rec.Vals = foldTail(keys, vals, tail)
	rec.WALReplay = time.Since(start) - rec.SnapshotLoad
	rec.NextSeq = lastSeq + 1
	return rec, nil
}

// tailOp is one key's update read from the WAL tail.
type tailOp struct {
	key, val int64
	del      bool
}

// foldTail merges the tail into the snapshot's sorted pairs. Records carry
// absolute values and a batch keeps the last of its duplicates, so each key
// ends as its last update in log order says: that update replaces or adds
// the key, or, for a delete, drops it (if present: a DeleteBatch may name
// absent keys and sentinels). An empty tail returns keys and vals as given.
func foldTail(keys, vals []int64, tail []tailOp) ([]int64, []int64) {
	if len(tail) == 0 {
		return keys, vals
	}
	tail = sortTail(tail)
	outK := make([]int64, 0, len(keys)+len(tail))
	outV := make([]int64, 0, len(keys)+len(tail))
	i := 0
	for j, o := range tail {
		if j+1 < len(tail) && tail[j+1].key == o.key {
			continue // a later update of the key wins
		}
		for ; i < len(keys) && keys[i] < o.key; i++ {
			outK = append(outK, keys[i])
			outV = append(outV, vals[i])
		}
		if i < len(keys) && keys[i] == o.key {
			i++
		}
		if !o.del {
			outK = append(outK, o.key)
			outV = append(outV, o.val)
		}
	}
	return append(outK, keys[i:]...), append(outV, vals[i:]...)
}

// sortTail sorts a non-empty tail by key, keeping log order among a key's
// updates: a least-significant-digit radix sort, one stable counting pass
// per key byte, skipping the bytes every key shares. A tail can hold tens
// of millions of updates to a few hot key ranges; a comparison sort's
// n log n compares then dominate recovery, where this costs one pass per
// key byte that varies.
func sortTail(tail []tailOp) []tailOp {
	digit := func(k int64, b int) byte { return byte((uint64(k) ^ 1<<63) >> (8 * b)) } // sign flipped: negative keys first
	var counts [8][256]int
	for _, o := range tail {
		for b := range counts {
			counts[b][digit(o.key, b)]++
		}
	}
	buf := make([]tailOp, len(tail))
	for b := range counts {
		if counts[b][digit(tail[0].key, b)] == len(tail) {
			continue
		}
		sum := 0
		for d, c := range counts[b] {
			counts[b][d], sum = sum, sum+c
		}
		for _, o := range tail {
			d := digit(o.key, b)
			buf[counts[b][d]] = o
			counts[b][d]++
		}
		tail, buf = buf, tail
	}
	return tail
}
