package codec

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// refAppendBlock is the encoder AppendBlock replaced, one binary.Append*varint
// per varint: the bytes every block, snapshot and compressed segment must
// keep.
func refAppendBlock(dst []byte, keys, vals []int64) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(keys)))
	dst = binary.AppendVarint(dst, keys[0])
	for i := 1; i < len(keys); i++ {
		dst = binary.AppendUvarint(dst, uint64(keys[i]-keys[i-1]))
	}
	for _, v := range vals {
		dst = binary.AppendVarint(dst, v)
	}
	return dst
}

// FuzzAppendVarint holds the word-at-a-time writers to encoding/binary's
// bytes: for any value, any prefix and 0-16 spare bytes, AppendUvarint and
// AppendVarint append what binary.AppendUvarint and binary.AppendVarint
// append and leave the prefix alone; on buffers of 1-10 bytes PutUvarint
// writes what binary.PutUvarint writes, panics where it panics, and below
// MaxVarintLen64 bytes touches nothing past the varint.
func FuzzAppendVarint(f *testing.F) {
	for _, x := range []uint64{0, 1, 0x7f, 0x80, 1<<56 - 1, 1 << 56, 1<<63 - 1, 1 << 63, math.MaxUint64} {
		f.Add(x, []byte{}, uint8(0))
		f.Add(x, []byte{0xaa, 0xbb}, uint8(9))
	}
	f.Fuzz(func(t *testing.T, x uint64, prefix []byte, spare uint8) {
		s := x
		for _, tc := range []struct {
			name      string
			got, want func([]byte) []byte
		}{
			{"uvarint", func(b []byte) []byte { return AppendUvarint(b, s) }, func(b []byte) []byte { return binary.AppendUvarint(b, s) }},
			{"varint", func(b []byte) []byte { return AppendVarint(b, int64(s)) }, func(b []byte) []byte { return binary.AppendVarint(b, int64(s)) }},
		} {
			dst := make([]byte, len(prefix), len(prefix)+int(spare%17))
			copy(dst, prefix)
			got, want := tc.got(dst), tc.want(bytes.Clone(prefix))
			if !bytes.Equal(got, want) {
				t.Fatalf("Append%s(%x, %d) with %d spare = %x, want %x", tc.name, prefix, x, spare%17, got, want)
			}
			if !bytes.Equal(dst, prefix) {
				t.Fatalf("Append%s(%d) rewrote the prefix %x to %x", tc.name, x, prefix, dst)
			}
		}
		for size := 1; size <= binary.MaxVarintLen64; size++ {
			putMatches(t, size, x)
		}
	})
}

// putMatches checks PutUvarint of x into a buffer of size bytes against
// binary.AppendUvarint: it panics when the varint does not fit, and
// otherwise writes it and, on a buffer shorter than MaxVarintLen64, nothing
// else.
func putMatches(t *testing.T, size int, x uint64) {
	t.Helper()
	const fill = 0xee
	want := binary.AppendUvarint(nil, x)
	p := bytes.Repeat([]byte{fill}, size)
	n, panicked := func() (n int, panicked bool) {
		defer func() { panicked = recover() != nil }()
		return PutUvarint(p, x), false
	}()
	if size < len(want) {
		if !panicked {
			t.Fatalf("PutUvarint of %x into %d bytes did not panic", want, size)
		}
		return
	}
	if panicked || n != len(want) || !bytes.Equal(p[:n], want) {
		t.Fatalf("PutUvarint into %d bytes = %x (panic %v), want %x", size, p[:n], panicked, want)
	}
	if size < binary.MaxVarintLen64 && bytes.Count(p[n:], []byte{fill}) != size-n {
		t.Fatalf("PutUvarint into %d bytes wrote past the varint: %x", size, p)
	}
}

func TestAppendBlockMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	widths := []uint{1, 7, 8, 14, 28, 55, 56, 57, 63, 64}
	for iter := 0; iter < 2000; iter++ {
		n := 1 + rng.Intn(300)
		keys, vals := make([]int64, n), make([]int64, n)
		k := int64(rng.Uint64())
		kw, vw := widths[rng.Intn(len(widths))], widths[rng.Intn(len(widths))]
		for i := range keys {
			keys[i] = k
			vals[i] = int64(rng.Uint64() >> (64 - vw))
			d := 1 + int64(rng.Uint64()>>(64-kw)>>1)
			if k > math.MaxInt64-d {
				keys, vals = keys[:i+1], vals[:i+1]
				break
			}
			k += d
		}
		prefix := []byte{0xde, 0xad}[:rng.Intn(3)]
		for _, spare := range []int{0, MaxEncodedLen(len(keys)) + rng.Intn(8)} {
			dst := append(make([]byte, 0, len(prefix)+spare), prefix...)
			got := AppendBlock(dst, keys, vals)
			if want := refAppendBlock(bytes.Clone(prefix), keys, vals); !bytes.Equal(got, want) {
				t.Fatalf("AppendBlock of %d pairs (key gaps %d bits, values %d) with %d spare:\n got %x\nwant %x", len(keys), kw, vw, spare, got, want)
			}
		}
	}
}

// TestAppendBlockDoesNotAllocate pins AppendBlock's one capacity check: into
// a buffer with MaxEncodedLen spare bytes, the bound the compressed store's
// scratch is sized by, a block of random values allocates nothing.
func TestAppendBlockDoesNotAllocate(t *testing.T) {
	const per = 128
	rng := rand.New(rand.NewSource(4))
	keys, vals := make([]int64, per), make([]int64, per)
	for i := range keys {
		keys[i] = 16*int64(i) + rng.Int63n(8)
		vals[i] = int64(rng.Uint64())
	}
	keys[per-1], vals[per-1] = math.MaxInt64, math.MinInt64 // the longest varints
	buf := make([]byte, 0, MaxEncodedLen(per))
	if avg := testing.AllocsPerRun(100, func() {
		buf = AppendBlock(buf[:0], keys, vals)
	}); avg != 0 {
		t.Fatalf("AppendBlock allocates %.1f objects", avg)
	}
}

// BenchmarkAppendBlockRandomValues encodes blocks shaped like the
// benchmark's compressed segments, cycling over 4 096 of them so that the
// branch predictor cannot learn one block's nine-or-ten-byte value pattern
// (BenchmarkAppendBlock re-encodes one block of small values).
func BenchmarkAppendBlockRandomValues(b *testing.B) {
	const per = 128
	blocks := benchBlocks(4096, per, 0)
	keys, vals := make([][]int64, len(blocks)), make([][]int64, len(blocks))
	for i, blk := range blocks {
		var err error
		if keys[i], vals[i], err = DecodeBlock(blk, nil, nil, per); err != nil {
			b.Fatal(err)
		}
	}
	buf := make([]byte, 0, MaxEncodedLen(per))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i % len(blocks)
		buf = AppendBlock(buf[:0], keys[j], vals[j])
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*per), "ns/pair")
}
