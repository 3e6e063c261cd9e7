package persist

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash/crc32"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"pmago/internal/codec"
)

// refRecord frames a record payload written with encoding/binary alone: the
// bytes every WAL record must keep.
func refRecord(kind byte, keys, vals []int64) []byte {
	p := []byte{kind}
	if kind == KindPutBatch || kind == KindDeleteBatch {
		p = binary.AppendUvarint(p, uint64(len(keys)))
	}
	for _, k := range keys {
		p = binary.AppendVarint(p, k)
	}
	for _, v := range vals {
		p = binary.AppendVarint(p, v)
	}
	b := binary.LittleEndian.AppendUint32(nil, uint32(len(p)))
	b = binary.LittleEndian.AppendUint32(b, crc32.Checksum(p, codec.CRC32C))
	return append(b, p...)
}

// mixedWidths returns n values whose varints take every length from one to
// ten bytes, the extremes included.
func mixedWidths(rng *rand.Rand, n int) []int64 {
	vs := make([]int64, n)
	for i := range vs {
		vs[i] = int64(rng.Uint64() >> rng.Intn(64))
		if i%3 == 0 {
			vs[i] = -vs[i]
		}
	}
	if n > 2 {
		vs[0], vs[1], vs[2] = math.MinInt64, math.MaxInt64, 0
	}
	return vs
}

func TestRecordBytesMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	prefix := []byte{0xde, 0xad, 0xbe, 0xef}
	for iter := 0; iter < 500; iter++ {
		n := rng.Intn(40)
		keys, vals := mixedWidths(rng, n), mixedWidths(rng, n)
		k, v := mixedWidths(rng, 1)[0], mixedWidths(rng, 1)[0]
		for _, c := range []struct{ got, want []byte }{
			{encodePut(bytes.Clone(prefix), k, v), refRecord(KindPut, []int64{k}, []int64{v})},
			{encodeDelete(bytes.Clone(prefix), k), refRecord(KindDelete, []int64{k}, nil)},
			{encodeBatch(bytes.Clone(prefix), KindPutBatch, keys, vals), refRecord(KindPutBatch, keys, vals)},
			{encodeBatch(bytes.Clone(prefix), KindDeleteBatch, keys, nil), refRecord(KindDeleteBatch, keys, nil)},
		} {
			if !bytes.Equal(c.got, append(bytes.Clone(prefix), c.want...)) {
				t.Fatalf("record bytes\n got %x\nwant %x%x", c.got, prefix, c.want)
			}
		}
	}
}

// TestEncodeRecordDoesNotAllocate pins the WAL's encode into its reused
// scratch: once the scratch has held a record as large, a point or batch
// record is written without allocating.
func TestEncodeRecordDoesNotAllocate(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	keys, vals := mixedWidths(rng, 512), mixedWidths(rng, 512)
	scratch := encodeBatch(nil, KindPutBatch, keys, vals)
	if avg := testing.AllocsPerRun(100, func() {
		scratch = encodePut(scratch[:0], keys[1], vals[0])
		scratch = encodeDelete(scratch[:0], keys[0])
		scratch = encodeBatch(scratch[:0], KindPutBatch, keys, vals)
		scratch = encodeBatch(scratch[:0], KindDeleteBatch, keys, nil)
	}); avg != 0 {
		t.Fatalf("record encode allocates %.1f objects", avg)
	}
}

// TestSnapshotBytesPinned holds snapshot files to the bytes they had before
// the varints were written a word at a time: the digest below is of the
// file the byte-loop encoder wrote for these pairs. Pairs span every varint
// length, in blocks of the default size and a short last one.
func TestSnapshotBytesPinned(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const n = 5000
	keys, vals := make([]int64, 0, n), mixedWidths(rng, n)
	k := int64(math.MinInt64)
	for len(keys) < n {
		keys = append(keys, k)
		d := 1 + int64(rng.Uint64()>>(1+rng.Intn(63))>>(rng.Intn(2)*50))
		if k > math.MaxInt64-d-int64(n) {
			d = 1
		}
		k += d
	}
	dir := t.TempDir()
	if _, _, err := WriteSnapshot(dir, 3, func(yield func(k, v int64) bool) error {
		for i := range keys {
			if !yield(keys[i], vals[i]) {
				break
			}
		}
		return nil
	}, DefaultOptions()); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, snapName(3)))
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(data)
	const want = "b8889afd029f5de09f13230ecbed9d66c2983740b0563824f84f89698f762896"
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Fatalf("snapshot of %d pairs (%d bytes) has digest %s, want %s", n, len(data), got, want)
	}
}
