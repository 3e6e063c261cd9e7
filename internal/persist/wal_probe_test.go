package persist

import (
	"encoding/binary"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"

	"pmago/internal/codec"
)

// TestCRCOfWindowMatchesDirect pins the combine identity the probe is built
// on: the window checksum derived from two prefix checksums must equal the
// directly computed one, for windows of every alignment and size.
func TestCRCOfWindowMatchesDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	data := make([]byte, 1<<16)
	rng.Read(data)
	base := 13 // arbitrary common base
	for trial := 0; trial < 2000; trial++ {
		s := base + rng.Intn(len(data)-base-1)
		j := s + rng.Intn(len(data)-s)
		rs := crc32.Checksum(data[base:s], codec.CRC32C)
		rj := crc32.Checksum(data[base:j], codec.CRC32C)
		want := crc32.Checksum(data[s:j], codec.CRC32C)
		if got := crcOfWindow(rs, rj, j-s); got != want {
			t.Fatalf("crcOfWindow(data[%d:%d]) = %08x, want %08x", s, j, got, want)
		}
	}
	// Degenerate windows: empty, whole buffer.
	if got := crcOfWindow(0, crc32.Checksum(data, codec.CRC32C), len(data)); got != crc32.Checksum(data, codec.CRC32C) {
		t.Fatal("whole-buffer window mismatch")
	}
	if got := crcOfWindow(crc32.Checksum(data[:99], codec.CRC32C), crc32.Checksum(data[:99], codec.CRC32C), 0); got != 0 {
		t.Fatalf("empty window = %08x, want 0 (CRC of no bytes)", got)
	}
}

// tornGarbage returns a pseudo-random torn span: a frame header declaring
// more payload than the file holds, followed by garbage — what a crash
// leaves after tearing a large batch append.
func tornGarbage(n int, seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	buf := make([]byte, n)
	rng.Read(buf)
	binary.LittleEndian.PutUint32(buf, uint32(n+1<<20)) // length past EOF: torn
	return buf
}

func TestProbeFindsBuriedValidRecord(t *testing.T) {
	garbage := tornGarbage(1<<16, 3)
	rec := encodePut(nil, 123456, -7)
	data := append(append(append([]byte{}, garbage...), rec...), tornGarbage(1<<12, 4)...)
	if !hasValidRecordAfter(data, 0) {
		t.Fatal("probe missed a checksum-valid record between garbage spans")
	}
	if hasValidRecordAfter(garbage, 0) {
		t.Fatal("probe hallucinated a valid record in pure garbage")
	}
}

// TestProbeMultiChunk forces the chunked candidate evaluation path and
// checks both outcomes across chunk boundaries.
func TestProbeMultiChunk(t *testing.T) {
	defer func(old int) { probeChunkSize = old }(probeChunkSize)
	probeChunkSize = 64

	garbage := tornGarbage(1<<15, 9)
	if hasValidRecordAfter(garbage, 0) {
		t.Fatal("multi-chunk probe hallucinated a record")
	}
	rec := encodeBatch(nil, KindPutBatch, []int64{1, 2, 3}, []int64{4, 5, 6})
	data := append(append([]byte{}, garbage...), rec...)
	if !hasValidRecordAfter(data, 0) {
		t.Fatal("multi-chunk probe missed the trailing valid record")
	}
}

// TestLargeTornTailTruncatesFast is the complexity regression test for the
// ROADMAP item "torn-tail probe is quadratic in the torn span": replaying a
// segment whose tail is a large torn record must truncate it in linear-ish
// time. The quadratic probe re-hashed megabytes at every header-plausible
// garbage offset (~1% of bytes), which takes minutes at this size; the
// combine-based probe does one streaming pass, so a generous wall-clock
// bound separates the two implementations by orders of magnitude without
// being flaky on slow CI.
func TestLargeTornTailTruncatesFast(t *testing.T) {
	span := 16 << 20
	if testing.Short() {
		span = 4 << 20
	}
	// A valid prefix of records, then the torn span.
	var file []byte
	file = encodePut(file, 1, 10)
	file = encodePut(file, 2, 20)
	file = encodeBatch(file, KindDeleteBatch, []int64{9, 9, 9}, nil)
	validLen := len(file)
	file = append(file, tornGarbage(span, 42)...)

	dir := t.TempDir()
	path := filepath.Join(dir, segName(1))
	if err := os.WriteFile(path, file, 0o644); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	var got []Record
	last, err := Replay(dir, 1, func(r *Record) error {
		got = append(got, Record{Kind: r.Kind, Keys: append([]int64(nil), r.Keys...)})
		return nil
	})
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if last != 1 || len(got) != 3 {
		t.Fatalf("replayed %d records from segment %d, want 3 from 1", len(got), last)
	}
	if fi, err := os.Stat(path); err != nil || fi.Size() != int64(validLen) {
		t.Fatalf("torn tail not truncated to %d bytes (got %v, %v)", validLen, fi.Size(), err)
	}
	if elapsed > 20*time.Second {
		t.Fatalf("torn-tail probe over a %d MiB span took %v — quadratic probe regression", span>>20, elapsed)
	}
	t.Logf("replayed past a %d MiB torn tail in %v", span>>20, elapsed)
}

// TestProbeStillRefusesBitRot: the linear probe must preserve the safety
// semantics — damage followed by intact records is bit rot and Replay
// refuses rather than truncating acknowledged writes.
func TestProbeStillRefusesBitRot(t *testing.T) {
	var file []byte
	for i := int64(0); i < 50; i++ {
		file = encodePut(file, i, i*3)
	}
	file[len(file)/2] ^= 0x40 // mid-file damage; valid records follow

	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, segName(1)), file, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Replay(dir, 1, func(*Record) error { return nil }); err == nil {
		t.Fatal("Replay truncated past mid-file bit rot with valid records after it")
	}
}
