package persist

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"

	"pmago/internal/codec"
)

// Fuzz targets for the two decode surfaces that parse bytes a crash (or bit
// rot) may have mangled: the WAL record decoder and the snapshot block
// decoder / loader. Each is seeded from valid encodings and asserts the
// decoder's contract — never panic, never allocate unboundedly, and accept
// only inputs whose decoded form is internally consistent. CI runs each
// target for a short -fuzztime as a smoke test; the seed corpus alone also
// runs under plain `go test`.

func FuzzDecodeRecord(f *testing.F) {
	f.Add(encodePut(nil, 42, -1))
	f.Add(encodeDelete(nil, 1<<40))
	f.Add(encodeBatch(nil, KindPutBatch, []int64{1, 2, 3}, []int64{-1, -2, -3}))
	f.Add(encodeBatch(nil, KindDeleteBatch, []int64{5, 5, 9}, nil))
	f.Add(encodeBatch(nil, KindPutBatch, nil, nil))
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0x7f, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		var rec Record
		n, ok := decodeRecord(data, &rec)
		if !ok {
			return
		}
		if n < codec.FrameHeader || n > len(data) {
			t.Fatalf("decodeRecord consumed %d of %d bytes", n, len(data))
		}
		switch rec.Kind {
		case KindPut:
			if len(rec.Keys) != 1 || len(rec.Vals) != 1 {
				t.Fatalf("KindPut decoded %d keys / %d vals", len(rec.Keys), len(rec.Vals))
			}
		case KindDelete:
			if len(rec.Keys) != 1 || len(rec.Vals) != 0 {
				t.Fatalf("KindDelete decoded %d keys / %d vals", len(rec.Keys), len(rec.Vals))
			}
		case KindPutBatch:
			if len(rec.Keys) != len(rec.Vals) {
				t.Fatalf("KindPutBatch decoded %d keys but %d vals", len(rec.Keys), len(rec.Vals))
			}
		case KindDeleteBatch:
			if len(rec.Vals) != 0 {
				t.Fatalf("KindDeleteBatch decoded %d vals", len(rec.Vals))
			}
		default:
			t.Fatalf("decodeRecord accepted unknown kind %d", rec.Kind)
		}
	})
}

func FuzzDecodeSnapBlock(f *testing.F) {
	seed := func(keys, vals []int64) []byte {
		b := encodeSnapBlock(nil, keys, vals)
		return b[9:] // payload only: frame byte, length and CRC are stripped by the caller
	}
	f.Add(seed([]int64{1}, []int64{-1}))
	f.Add(seed([]int64{-100, 0, 7, 1 << 50}, []int64{1, 2, 3, 4}))
	f.Add([]byte{})
	f.Add([]byte{1, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		keys, vals, err := decodeSnapBlock(data, nil, nil)
		if err != nil {
			return
		}
		if len(keys) != len(vals) || len(keys) == 0 {
			t.Fatalf("accepted block with %d keys / %d vals", len(keys), len(vals))
		}
		for i := 1; i < len(keys); i++ {
			if keys[i] <= keys[i-1] {
				t.Fatalf("accepted block with non-ascending keys: %d after %d", keys[i], keys[i-1])
			}
		}
	})
}

// TestDecodeSnapBlockShortBlockClaimsMany: seven bytes claiming 2^29-1
// pairs must be refused without sizing the output for the claimed count
// (FuzzDecodeSnapBlock's corpus holds the same bytes).
func TestDecodeSnapBlockShortBlockClaimsMany(t *testing.T) {
	p := []byte{0xff, 0xff, 0xff, 0xff, 0x01, 0x02, 0x04}
	keys, vals, err := decodeSnapBlock(p, nil, nil)
	if err == nil {
		t.Fatal("accepted a block too short for its count")
	}
	if cap(keys) > len(p) || cap(vals) > len(p) {
		t.Fatalf("output sized %d/%d pairs for a %d-byte block", cap(keys), cap(vals), len(p))
	}
}

func FuzzLoadSnapshot(f *testing.F) {
	valid := func(pairs int) []byte {
		dir := f.TempDir()
		keys := make([]int64, pairs)
		vals := make([]int64, pairs)
		for i := range keys {
			keys[i] = int64(i) * 3
			vals[i] = int64(i) - 7
		}
		_, _, err := WriteSnapshot(dir, 5, func(yield func(k, v int64) bool) error {
			for i := range keys {
				if !yield(keys[i], vals[i]) {
					break
				}
			}
			return nil
		}, Options{SnapshotBlockEntries: 4})
		if err != nil {
			f.Fatal(err)
		}
		data, err := os.ReadFile(filepath.Join(dir, snapName(5)))
		if err != nil {
			f.Fatal(err)
		}
		return data
	}
	f.Add(valid(0))
	f.Add(valid(1))
	f.Add(valid(10))
	f.Add([]byte(snapMagic))
	f.Add([]byte{})
	f.Add(snapOf(5, [][]int64{{1, 2}, {3}, {4, 5}, {6}, {7}, {8}, {9}, {10, 11}}, 11))
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), snapName(1))
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		keys, vals, seq, err := LoadSnapshot(path)
		rk, rv, rseq, rerr := loadSnapshotSerial(data, snapName(1))
		if fmt.Sprint(err) != fmt.Sprint(rerr) {
			t.Fatalf("LoadSnapshot: %v; serial reference: %v", err, rerr)
		}
		if err != nil {
			return
		}
		if seq != rseq || !slices.Equal(keys, rk) || !slices.Equal(vals, rv) {
			t.Fatalf("LoadSnapshot read %d pairs at seq %d, the serial reference %d at %d", len(keys), seq, len(rk), rseq)
		}
		if len(keys) != len(vals) {
			t.Fatalf("accepted snapshot with %d keys / %d vals", len(keys), len(vals))
		}
		for i := 1; i < len(keys); i++ {
			if keys[i] <= keys[i-1] {
				t.Fatalf("accepted snapshot with non-ascending keys: %d after %d", keys[i], keys[i-1])
			}
		}
	})
}

// loadSnapshotSerial is the specification LoadSnapshot's parallel decode is
// held to: one walk over the frames in file order, each block checksummed,
// decoded and checked against the previous block's last key as it is
// reached, the first fault ending the walk.
func loadSnapshotSerial(data []byte, name string) (keys, vals []int64, walSeq uint64, err error) {
	if len(data) < len(snapMagic)+8 || string(data[:len(snapMagic)]) != snapMagic {
		return nil, nil, 0, fmt.Errorf("persist: %s: bad snapshot magic", name)
	}
	walSeq = binary.LittleEndian.Uint64(data[len(snapMagic):])
	t := data[len(data)-13:]
	trailerOK := t[0] == frameTrailer && crc32.Checksum(t[1:9], codec.CRC32C) == binary.LittleEndian.Uint32(t[9:])
	for p := data[len(snapMagic)+8:]; ; {
		if len(p) == 0 {
			return nil, nil, 0, fmt.Errorf("persist: %s: missing trailer", name)
		}
		switch p[0] {
		case frameBlock:
			payload, ok := codec.NextFrame(p[1:], maxRecordBytes)
			if !ok {
				return nil, nil, 0, fmt.Errorf("persist: %s: bad block frame", name)
			}
			before := len(keys)
			keys, vals, err = decodeSnapBlock(payload, keys, vals)
			if err != nil {
				return nil, nil, 0, fmt.Errorf("persist: %s: %w", name, err)
			}
			if before > 0 && keys[before] <= keys[before-1] {
				return nil, nil, 0, fmt.Errorf("persist: %s: block keys out of order", name)
			}
			p = p[1+codec.FrameHeader+len(payload):]
		case frameTrailer:
			if len(p) != 13 || !trailerOK {
				return nil, nil, 0, fmt.Errorf("persist: %s: bad trailer", name)
			}
			if want := binary.LittleEndian.Uint64(p[1:]); want != uint64(len(keys)) {
				return nil, nil, 0, fmt.Errorf("persist: %s: count mismatch: trailer %d, blocks %d", name, want, len(keys))
			}
			return keys, vals, walSeq, nil
		default:
			return nil, nil, 0, fmt.Errorf("persist: %s: unknown frame %d", name, p[0])
		}
	}
}

// snapOf builds a snapshot file from the given blocks (values are the
// negated keys) with count in its trailer.
func snapOf(walSeq uint64, blocks [][]int64, count uint64) []byte {
	b := binary.LittleEndian.AppendUint64([]byte(snapMagic), walSeq)
	for _, ks := range blocks {
		vs := make([]int64, len(ks))
		for i, k := range ks {
			vs[i] = -k
		}
		b = encodeSnapBlock(b, ks, vs)
	}
	b = binary.LittleEndian.AppendUint64(append(b, frameTrailer), count)
	return binary.LittleEndian.AppendUint32(b, crc32.Checksum(b[len(b)-8:], codec.CRC32C))
}

// TestLoadSnapshotFaults holds LoadSnapshot to its serial reference on
// files of ten blocks with one fault each, where the fault decides which
// frame a parallel decode must blame.
func TestLoadSnapshotFaults(t *testing.T) {
	blocks := make([][]int64, 10)
	for i := range blocks {
		blocks[i] = []int64{int64(10 * i), int64(10*i + 3), int64(10*i + 7)}
	}
	good := snapOf(9, blocks, 30)
	// frames[i] is the offset of block i's kind byte.
	var frames []int
	for off := len(snapMagic) + 8; good[off] == frameBlock; {
		frames = append(frames, off)
		n, _ := codec.ParseFrameHeader(good[off+1:])
		off += 1 + codec.FrameHeader + int(n)
	}
	flipPayload := func(i int) []byte {
		b := slices.Clone(good)
		b[frames[i]+1+codec.FrameHeader+1] ^= 0x40
		return b
	}
	disordered := slices.Clone(blocks)
	disordered[5] = []int64{47, 48} // block 4 ends at 47
	forged := slices.Clone(good)
	// Block 3 claims 2^28 pairs in a five-byte uvarint: a frame with a valid
	// checksum whose count no placement may trust.
	{
		var p []byte
		p = codec.AppendUvarint(p, 1<<28)
		p = append(p, 0x10, 0x06, 0x08, 0x06, 0x05, 0x07)
		head := good[:frames[3]]
		tail := good[frames[4]:]
		forged = append(slices.Clone(head), frameBlock)
		forged = codec.AppendFrame(forged, func(b []byte) []byte { return append(b, p...) })
		forged = append(forged, tail...)
	}
	cases := []struct {
		name string
		data []byte
		want string // in the error; "" = loads
	}{
		{"valid", good, ""},
		{"crc first", flipPayload(0), "bad block frame"},
		{"crc middle", flipPayload(5), "bad block frame"},
		{"crc last", flipPayload(9), "bad block frame"},
		{"crc middle and last", flipPayload(5)[:len(good)-3], "bad block frame"},
		{"disordered", snapOf(9, disordered, 29), "block keys out of order"},
		{"count above", snapOf(9, blocks, 31), "count mismatch: trailer 31, blocks 30"},
		{"count below", snapOf(9, blocks, 29), "count mismatch: trailer 29, blocks 30"},
		{"forged count", forged, codec.ErrCount.Error()},
		{"truncated", good[:frames[7]+5], "bad block frame"},
		{"no trailer", good[:frames[9]], "missing trailer"},
		{"trailer kind alone", good[:len(good)-12], "bad trailer"},
	}
	dir := t.TempDir()
	for _, c := range cases {
		path := filepath.Join(dir, snapName(1))
		if err := os.WriteFile(path, c.data, 0o644); err != nil {
			t.Fatal(err)
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		keys, _, seq, err := LoadSnapshot(path)
		runtime.ReadMemStats(&m1)
		if alloc := m1.TotalAlloc - m0.TotalAlloc; alloc > 1<<20 {
			t.Errorf("%s: allocated %d bytes for a %d-byte file", c.name, alloc, len(c.data))
		}
		_, _, _, rerr := loadSnapshotSerial(c.data, snapName(1))
		if fmt.Sprint(err) != fmt.Sprint(rerr) {
			t.Errorf("%s: LoadSnapshot: %v; serial reference: %v", c.name, err, rerr)
		}
		switch {
		case c.want == "" && (err != nil || seq != 9 || len(keys) != 30):
			t.Errorf("%s: %d pairs at seq %d, err %v; want 30 at 9", c.name, len(keys), seq, err)
		case c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)):
			t.Errorf("%s: err %v, want %q", c.name, err, c.want)
		}
	}
}
