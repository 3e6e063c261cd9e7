package persist

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"

	"pmago/internal/codec"
)

// Snapshot wire format. A snapshot is one consistent full scan of the
// store, framed so every byte is covered by a checksum:
//
//	magic   "PMASNAP1"
//	u64     walSeq — recovery replays WAL segments >= this
//	frames  { u8 frameBlock, u32 payloadLen, u32 CRC32-C, payload }*
//	trailer { u8 frameTrailer, u64 pair count, u32 CRC32-C of the count }
//
// Block payloads are delta-encoded by the shared internal/codec package
// (pair count, the block's first key as a zigzag varint, then successive
// key gaps as plain uvarints, then the values as zigzag varints — see the
// codec docs), the same encoding the core uses for compressed in-memory
// chunks. A sorted int64 store snapshots at a few bytes per pair instead
// of 16, and a compressed store can stream its segments into snapshot
// blocks without ever decoding (WriteSnapshotBlocks).
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
// covering WAL segments below walSeq. A non-nil error from iter — raised
// after the scan, e.g. when the caller fails to sync the WAL records the
// scan may have observed — aborts the snapshot before it is published.
// It reports the pair count and the file size, the latter feeding the
// compaction trigger.
func WriteSnapshot(dir string, walSeq uint64, iter func(yield func(k, v int64) bool) error, o Options) (count, size int64, err error) {
	o = o.normalize()
	return writeSnapshotFile(dir, walSeq, func(bw *bufio.Writer) (int64, error) {
		var (
			blockK  = make([]int64, 0, o.SnapshotBlockEntries)
			blockV  = make([]int64, 0, o.SnapshotBlockEntries)
			scratch []byte
			count   int64
			prev    int64
			iterErr error
		)
		flush := func() error {
			if len(blockK) == 0 {
				return nil
			}
			scratch = encodeSnapBlock(scratch[:0], blockK, blockV)
			blockK, blockV = blockK[:0], blockV[:0]
			_, werr := bw.Write(scratch)
			return werr
		}
		cbErr := iter(func(k, v int64) bool {
			if count > 0 && k <= prev {
				iterErr = fmt.Errorf("persist: snapshot iterator not strictly increasing at key %d", k)
				return false
			}
			prev = k
			count++
			blockK = append(blockK, k)
			blockV = append(blockV, v)
			if len(blockK) >= o.SnapshotBlockEntries {
				if werr := flush(); werr != nil {
					iterErr = werr
					return false
				}
			}
			return true
		})
		if iterErr != nil {
			return 0, iterErr
		}
		if cbErr != nil {
			return 0, cbErr
		}
		return count, flush()
	})
}

// writeSnapshotFile is the one snapshot file writer: it creates the temp
// file, writes the header, lets body write the block frames and report the
// pair count, then writes the trailer, flushes, fsyncs, closes and renames
// the file into place and syncs the directory. An error from body — an
// iterator failure, e.g. the caller could not make the scanned state
// durable — aborts before the trailer and rename: the temp file is removed
// and no checkpoint is published.
func writeSnapshotFile(dir string, walSeq uint64, body func(bw *bufio.Writer) (int64, error)) (count, size int64, err error) {
	tmp := filepath.Join(dir, snapName(walSeq)+".tmp")
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return 0, 0, err
	}
	defer func() {
		if err != nil {
			f.Close()
			os.Remove(tmp)
		}
	}()
	bw := bufio.NewWriterSize(f, 1<<20)
	header := binary.LittleEndian.AppendUint64([]byte(snapMagic), walSeq)
	if _, err = bw.Write(header); err != nil {
		return 0, 0, err
	}
	if count, err = body(bw); err != nil {
		return 0, 0, err
	}
	trailer := make([]byte, 0, 13)
	trailer = append(trailer, frameTrailer)
	trailer = binary.LittleEndian.AppendUint64(trailer, uint64(count))
	trailer = binary.LittleEndian.AppendUint32(trailer, crc32.Checksum(trailer[1:9], crcTable))
	if _, err = bw.Write(trailer); err != nil {
		return 0, 0, err
	}
	if err = bw.Flush(); err != nil {
		return 0, 0, err
	}
	if err = f.Sync(); err != nil {
		return 0, 0, err
	}
	fi, err := f.Stat()
	if err != nil {
		return 0, 0, err
	}
	if err = f.Close(); err != nil {
		return 0, 0, err
	}
	if err = os.Rename(tmp, filepath.Join(dir, snapName(walSeq))); err != nil {
		return 0, 0, err
	}
	syncDir(dir)
	return count, fi.Size(), nil
}

// encodeSnapBlock appends one framed, delta-encoded block to b.
func encodeSnapBlock(b []byte, keys, vals []int64) []byte {
	start := len(b)
	b = append(b, frameBlock, 0, 0, 0, 0, 0, 0, 0, 0)
	b = codec.AppendBlock(b, keys, vals)
	payload := b[start+9:]
	binary.LittleEndian.PutUint32(b[start+1:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(b[start+5:], crc32.Checksum(payload, crcTable))
	return b
}

// appendRawBlock frames an already-encoded codec block payload — the
// compressed store's snapshot fast path, which never decodes its segments.
func appendRawBlock(b, payload []byte) []byte {
	b = append(b, frameBlock, 0, 0, 0, 0, 0, 0, 0, 0)
	binary.LittleEndian.PutUint32(b[len(b)-8:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(b[len(b)-4:], crc32.Checksum(payload, crcTable))
	return append(b, payload...)
}

// WriteSnapshotBlocks is WriteSnapshot for a store whose chunks are already
// codec-encoded: iter yields whole block payloads (with their pair counts)
// instead of pairs, and each payload is framed and checksummed as-is — the
// pairs are never decoded on the way to disk. Payloads must be valid codec
// blocks in ascending key order; each block's header is re-parsed here so a
// corrupt count or out-of-order first key aborts the snapshot rather than
// publishing a checkpoint recovery would then reject wholesale.
func WriteSnapshotBlocks(dir string, walSeq uint64, iter func(yield func(payload []byte, pairs int) bool) error) (count, size int64, err error) {
	return writeSnapshotFile(dir, walSeq, func(bw *bufio.Writer) (int64, error) {
		var (
			scratch   []byte
			count     int64
			prevFirst int64
			iterErr   error
		)
		cbErr := iter(func(payload []byte, pairs int) bool {
			c, cerr := codec.BlockCount(payload, maxRecordBytes/2)
			if cerr != nil || c != pairs {
				iterErr = fmt.Errorf("persist: snapshot block header disagrees with caller: %d pairs claimed", pairs)
				return false
			}
			first, ok := blockFirstKey(payload)
			if !ok || (count > 0 && first <= prevFirst) {
				iterErr = fmt.Errorf("persist: snapshot blocks not in ascending key order")
				return false
			}
			prevFirst = first
			count += int64(pairs)
			scratch = appendRawBlock(scratch[:0], payload)
			if _, werr := bw.Write(scratch); werr != nil {
				iterErr = werr
				return false
			}
			return true
		})
		if iterErr != nil {
			return 0, iterErr
		}
		return count, cbErr
	})
}

// blockFirstKey peeks a codec block's first key without decoding the pairs:
// the cheap cross-block ordering check WriteSnapshotBlocks runs per block.
func blockFirstKey(p []byte) (int64, bool) {
	_, un := binary.Uvarint(p)
	if un <= 0 {
		return 0, false
	}
	k, vn := binary.Varint(p[un:])
	return k, vn > 0
}

// LoadSnapshot reads and fully validates a snapshot file, returning its
// sorted pairs and the WAL segment recovery must replay from. Any checksum,
// framing or count mismatch invalidates the whole file.
func LoadSnapshot(path string) (keys, vals []int64, walSeq uint64, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, 0, err
	}
	if len(data) < len(snapMagic)+8 || string(data[:len(snapMagic)]) != snapMagic {
		return nil, nil, 0, fmt.Errorf("persist: %s: bad snapshot magic", filepath.Base(path))
	}
	walSeq = binary.LittleEndian.Uint64(data[len(snapMagic):])
	p := data[len(snapMagic)+8:]
	for {
		if len(p) == 0 {
			return nil, nil, 0, fmt.Errorf("persist: %s: missing trailer", filepath.Base(path))
		}
		switch p[0] {
		case frameBlock:
			if len(p) < 9 {
				return nil, nil, 0, fmt.Errorf("persist: %s: truncated block frame", filepath.Base(path))
			}
			n := binary.LittleEndian.Uint32(p[1:])
			if n == 0 || n > maxRecordBytes || int(n) > len(p)-9 {
				return nil, nil, 0, fmt.Errorf("persist: %s: bad block length", filepath.Base(path))
			}
			payload := p[9 : 9+int(n)]
			if crc32.Checksum(payload, crcTable) != binary.LittleEndian.Uint32(p[5:]) {
				return nil, nil, 0, fmt.Errorf("persist: %s: block checksum mismatch", filepath.Base(path))
			}
			keys, vals, err = decodeSnapBlock(payload, keys, vals)
			if err != nil {
				return nil, nil, 0, fmt.Errorf("persist: %s: %w", filepath.Base(path), err)
			}
			p = p[9+int(n):]
		case frameTrailer:
			if len(p) != 13 {
				return nil, nil, 0, fmt.Errorf("persist: %s: bad trailer", filepath.Base(path))
			}
			if crc32.Checksum(p[1:9], crcTable) != binary.LittleEndian.Uint32(p[9:]) {
				return nil, nil, 0, fmt.Errorf("persist: %s: trailer checksum mismatch", filepath.Base(path))
			}
			if want := binary.LittleEndian.Uint64(p[1:]); want != uint64(len(keys)) {
				return nil, nil, 0, fmt.Errorf("persist: %s: count mismatch: trailer %d, blocks %d",
					filepath.Base(path), want, len(keys))
			}
			return keys, vals, walSeq, nil
		default:
			return nil, nil, 0, fmt.Errorf("persist: %s: unknown frame %d", filepath.Base(path), p[0])
		}
	}
}

// decodeSnapBlock delegates to the shared hardened decoder; the key-delta
// overflow check and all other consistency rules live in internal/codec
// (this used to be a duplicated copy of the core's decoder). A decode error
// invalidates the whole snapshot, so the partially-appended pairs codec may
// leave behind are discarded by the caller.
func decodeSnapBlock(p []byte, keys, vals []int64) ([]int64, []int64, error) {
	return codec.DecodeBlock(p, keys, vals, maxRecordBytes/2)
}

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

// Recovered is what Recover hands back to the store layer.
type Recovered struct {
	// SnapshotBytes is the restored snapshot's file size (0 without
	// one), seeding the compaction trigger.
	SnapshotBytes int64
	// NextSeq is the segment number the log must be opened at: one past
	// everything replayed.
	NextSeq uint64
}

// Recover performs the read side of crash recovery: it picks the newest
// snapshot that validates and hands its sorted pairs to load exactly once
// (with empty slices when no usable snapshot exists), then replays the WAL
// tail through replay, in log order. The two callbacks rebuild the store:
// load bulk-constructs the base state, replay applies the tail on top.
func Recover(dir string, load func(keys, vals []int64) error, replay func(*Record) error) (Recovered, error) {
	var rec Recovered
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
	if err := load(keys, vals); err != nil {
		return rec, err
	}
	lastSeq, err := Replay(dir, fromSeq, replay)
	if err != nil {
		return rec, err
	}
	rec.NextSeq = lastSeq + 1
	return rec, nil
}
