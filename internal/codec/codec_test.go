package codec

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

func roundTrip(t *testing.T, keys, vals []int64) {
	t.Helper()
	enc := AppendBlock(nil, keys, vals)
	if len(enc) > MaxEncodedLen(len(keys)) {
		t.Fatalf("encoded %d pairs to %d bytes, above the MaxEncodedLen bound %d",
			len(keys), len(enc), MaxEncodedLen(len(keys)))
	}
	gotK, gotV, err := DecodeBlock(enc, nil, nil, len(keys))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(gotK) != len(keys) || len(gotV) != len(vals) {
		t.Fatalf("decoded %d/%d pairs, want %d", len(gotK), len(gotV), len(keys))
	}
	for i := range keys {
		if gotK[i] != keys[i] || gotV[i] != vals[i] {
			t.Fatalf("pair %d: got %d/%d want %d/%d", i, gotK[i], gotV[i], keys[i], vals[i])
		}
	}
}

func TestRoundTrip(t *testing.T) {
	roundTrip(t, []int64{0}, []int64{0})
	roundTrip(t, []int64{-5}, []int64{math.MinInt64})
	roundTrip(t, []int64{math.MinInt64 + 1, 0, math.MaxInt64 - 1}, []int64{1, -1, 0})
	roundTrip(t, []int64{1, 2, 3, 4, 5}, []int64{-1, -2, -3, -4, -5})

	rng := rand.New(rand.NewSource(1))
	keys := make([]int64, 0, 4096)
	vals := make([]int64, 0, 4096)
	k := int64(-1 << 40)
	for len(keys) < cap(keys) {
		k += 1 + rng.Int63n(1<<20)
		keys = append(keys, k)
		vals = append(vals, rng.Int63()-rng.Int63())
	}
	roundTrip(t, keys, vals)
}

// TestDenseRunSize pins the codec's reason to exist: a dense ascending run
// must encode far below the 16 raw bytes a pair costs in memory.
func TestDenseRunSize(t *testing.T) {
	n := 1024
	keys := make([]int64, n)
	vals := make([]int64, n)
	for i := range keys {
		keys[i] = int64(i) * 3 // gaps of 3: one byte per delta
		vals[i] = int64(i % 100)
	}
	enc := AppendBlock(nil, keys, vals)
	if got := float64(len(enc)) / float64(n); got > 4 {
		t.Fatalf("dense run encoded at %.2f B/pair, want <= 4", got)
	}
}

func TestAppendToExisting(t *testing.T) {
	enc := AppendBlock(nil, []int64{10, 20}, []int64{1, 2})
	keys := []int64{-99}
	vals := []int64{-98}
	keys, vals, err := DecodeBlock(enc, keys, vals, 2)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	want := [][2]int64{{-99, -98}, {10, 1}, {20, 2}}
	if len(keys) != 3 {
		t.Fatalf("got %d keys, want 3", len(keys))
	}
	for i, w := range want {
		if keys[i] != w[0] || vals[i] != w[1] {
			t.Fatalf("pair %d: got %d/%d want %d/%d", i, keys[i], vals[i], w[0], w[1])
		}
	}
}

func TestDecodeErrors(t *testing.T) {
	valid := AppendBlock(nil, []int64{5, 6, 7}, []int64{1, 2, 3})
	cases := []struct {
		name string
		p    []byte
		want error
	}{
		{"empty", nil, ErrCount},
		{"zero count", []byte{0}, ErrCount},
		{"huge count", binary.AppendUvarint(nil, 1<<40), ErrCount},
		{"count above maxPairs", AppendBlock(nil, []int64{1, 2, 3, 4}, []int64{0, 0, 0, 0}), ErrCount},
		{"count only", []byte{3}, ErrFirstKey},
		{"truncated deltas", valid[:3], ErrDelta},
		{"zero delta", append(binary.AppendVarint([]byte{2}, 9), 0, 2, 2), ErrDelta},
		{"truncated values", valid[:len(valid)-1], ErrValue},
		{"trailing bytes", append(append([]byte{}, valid...), 0), ErrTrailing},
		{"delta overflow", func() []byte {
			b := binary.AppendVarint([]byte{2}, math.MaxInt64-1)
			b = binary.AppendUvarint(b, 2) // wraps past MaxInt64
			return append(b, 0, 0)
		}(), ErrOverflow},
	}
	for _, c := range cases {
		maxPairs := 3
		if c.name == "huge count" {
			maxPairs = 1 << 20
		}
		if _, _, err := DecodeBlock(c.p, nil, nil, maxPairs); err != c.want {
			t.Errorf("%s: got %v, want %v", c.name, err, c.want)
		}
	}
}

// TestMaxPairsBound pins the fixed-scratch contract: however large the
// claimed count, at most maxPairs pairs are appended before the error.
func TestMaxPairsBound(t *testing.T) {
	keys := make([]int64, 100)
	vals := make([]int64, 100)
	for i := range keys {
		keys[i] = int64(i)
		vals[i] = int64(i)
	}
	enc := AppendBlock(nil, keys, vals)
	gotK, gotV, err := DecodeBlock(enc, nil, nil, 8)
	if err != ErrCount {
		t.Fatalf("got %v, want ErrCount", err)
	}
	if len(gotK) != 0 || len(gotV) != 0 {
		t.Fatalf("appended %d/%d pairs despite rejected count", len(gotK), len(gotV))
	}
}

func BenchmarkDecodeBlock(b *testing.B) {
	n := 1024
	keys := make([]int64, n)
	vals := make([]int64, n)
	for i := range keys {
		keys[i] = int64(i) * 3
		vals[i] = int64(i % 128)
	}
	enc := AppendBlock(nil, keys, vals)
	dk := make([]int64, 0, n)
	dv := make([]int64, 0, n)
	b.SetBytes(int64(n * 16))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		dk, dv, err = DecodeBlock(enc, dk[:0], dv[:0], n)
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAppendBlock(b *testing.B) {
	n := 1024
	keys := make([]int64, n)
	vals := make([]int64, n)
	for i := range keys {
		keys[i] = int64(i) * 3
		vals[i] = int64(i % 128)
	}
	var enc []byte
	b.SetBytes(int64(n * 16))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		enc = AppendBlock(enc[:0], keys, vals)
	}
}
