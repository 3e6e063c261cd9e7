package main

import (
	"math/rand"
	"testing"
)

func TestZRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 10_000; i++ {
		x, y := rng.Uint32(), rng.Uint32()
		gx, gy := zDecode(zEncode(x, y))
		if gx != x || gy != y {
			t.Fatalf("roundtrip (%d,%d) -> (%d,%d)", x, y, gx, gy)
		}
	}
}

func TestZKnownValues(t *testing.T) {
	if zEncode(0, 0) != 0 {
		t.Fatal("origin")
	}
	if zEncode(1, 0) != 1 {
		t.Fatalf("x bit: %d", zEncode(1, 0))
	}
	if zEncode(0, 1) != 2 {
		t.Fatalf("y bit: %d", zEncode(0, 1))
	}
	if zEncode(3, 3) != 15 {
		t.Fatalf("(3,3): %d", zEncode(3, 3))
	}
}

func TestHilbertRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, order := range []uint{1, 4, 8, 16, 31} {
		mask := uint32(1)<<order - 1
		for i := 0; i < 2_000; i++ {
			x, y := rng.Uint32()&mask, rng.Uint32()&mask
			gx, gy := hilbertDecode(order, hilbertEncode(order, x, y))
			if gx != x || gy != y {
				t.Fatalf("order %d: roundtrip (%d,%d) -> (%d,%d)", order, x, y, gx, gy)
			}
		}
	}
}

func TestHilbertIsBijectionOrder3(t *testing.T) {
	seen := map[uint64]bool{}
	for x := uint32(0); x < 8; x++ {
		for y := uint32(0); y < 8; y++ {
			d := hilbertEncode(3, x, y)
			if d >= 64 {
				t.Fatalf("d(%d,%d) = %d out of range", x, y, d)
			}
			if seen[d] {
				t.Fatalf("duplicate distance %d", d)
			}
			seen[d] = true
		}
	}
}

func TestHilbertAdjacency(t *testing.T) {
	// Consecutive Hilbert distances differ by exactly one grid step —
	// the locality property that motivates the encoding.
	const order = 5
	var px, py uint32
	for d := uint64(0); d < 1<<(2*order); d++ {
		x, y := hilbertDecode(order, d)
		if d > 0 {
			dx := int64(x) - int64(px)
			dy := int64(y) - int64(py)
			if dx*dx+dy*dy != 1 {
				t.Fatalf("jump at d=%d: (%d,%d) -> (%d,%d)", d, px, py, x, y)
			}
		}
		px, py = x, y
	}
}
