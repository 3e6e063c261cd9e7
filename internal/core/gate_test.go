package core

import (
	"encoding/binary"
	"math/rand"
	"slices"
	"testing"
	"unsafe"
)

// TestGateReaderLine pins the gate layout the seqlock Get is tuned for. The
// fields a Get loads share one 64-byte line, and neither that line nor the
// inline minima and cardinalities hold a field that a latch trip or a
// combining writer stores to. The size must stay a multiple of 64: a gate
// of 392 bytes lands in the 416-byte size class, and then a gate's reader
// fields share a line with the next gate's latch, so every writer on one
// gate slows the readers and scans of its neighbour.
func TestGateReaderLine(t *testing.T) {
	var g gate
	type field struct {
		name      string
		off, size uintptr
	}
	lines := func(f field) (first, last uintptr) { return f.off / 64, (f.off + f.size - 1) / 64 }
	readers := []field{
		{"version", unsafe.Offsetof(g.version), unsafe.Sizeof(g.version)},
		{"invalid", unsafe.Offsetof(g.invalid), unsafe.Sizeof(g.invalid)},
		{"fenceLo", unsafe.Offsetof(g.fenceLo), unsafe.Sizeof(g.fenceLo)},
		{"fenceHi", unsafe.Offsetof(g.fenceHi), unsafe.Sizeof(g.fenceHi)},
		{"buf", unsafe.Offsetof(g.buf), unsafe.Sizeof(g.buf)},
		{"cc", unsafe.Offsetof(g.cc), unsafe.Sizeof(g.cc)},
		{"spg", unsafe.Offsetof(g.spg), unsafe.Sizeof(g.spg)},
		{"b", unsafe.Offsetof(g.b), unsafe.Sizeof(g.b)},
	}
	writers := []field{
		{"mu", unsafe.Offsetof(g.mu), unsafe.Sizeof(g.mu)},
		{"cond", unsafe.Offsetof(g.cond), unsafe.Sizeof(g.cond)},
		{"lstate", unsafe.Offsetof(g.lstate), unsafe.Sizeof(g.lstate)},
		{"wWaiting", unsafe.Offsetof(g.wWaiting), unsafe.Sizeof(g.wWaiting)},
		{"qOpen", unsafe.Offsetof(g.qOpen), unsafe.Sizeof(g.qOpen)},
		{"qOps", unsafe.Offsetof(g.qOps), unsafe.Sizeof(g.qOps)},
	}
	line, _ := lines(readers[0])
	read := map[uintptr]string{line: "reader line"}
	for _, f := range readers {
		if first, last := lines(f); first != line || last != line {
			t.Errorf("%s at bytes [%d, %d) leaves the reader line %d", f.name, f.off, f.off+f.size, line)
		}
	}
	for _, f := range []field{
		{"smin", unsafe.Offsetof(g.smin), unsafe.Sizeof(g.smin)},
		{"segCard", unsafe.Offsetof(g.segCard), unsafe.Sizeof(g.segCard)},
	} {
		first, last := lines(f)
		for l := first; l <= last; l++ {
			read[l] = f.name
		}
	}
	for _, f := range writers {
		first, last := lines(f)
		for l := first; l <= last; l++ {
			if what, ok := read[l]; ok {
				t.Errorf("%s shares line %d with %s", f.name, l, what)
			}
		}
	}
	if size := unsafe.Sizeof(g); size%64 != 0 {
		t.Errorf("gate is %d bytes, not a multiple of 64", size)
	}
	// The allocator then hands out gates on line boundaries.
	for i := range 16 {
		if a := uintptr(unsafe.Pointer(newGate(i, 8, 128, nil))); a%64 != 0 {
			t.Errorf("gate %d allocated at %#x, not on a 64-byte boundary", i, a)
		}
	}
}

// FuzzSeekSegment checks seekSeg against the binary search it replaces. On a
// sorted segment the two agree whatever the bounds: true ones, lying ones,
// equal, reversed, or the KeyMin/KeyMax sentinels. On unsorted input — what
// a torn racy read hands the kernel — it returns an index in [0, n] and does
// not panic. With tight set, the bounds are the segment's own extremes and
// k lands on or beside a stored key, the shape real lookups have.
func FuzzSeekSegment(f *testing.F) {
	seg := func(keys ...int64) []byte {
		b := make([]byte, 0, 8*len(keys))
		for _, k := range keys {
			b = binary.LittleEndian.AppendUint64(b, uint64(k))
		}
		return b
	}
	even := seg(0, 16, 34, 48, 66, 80, 96, 112, 130, 144, 160, 178, 192, 210, 224, 240)
	clustered := seg(1, 2, 3, 4, 5, 6, 7, 8, 1e9, 1e9+1, 1e9+2, 1e9+3)
	for _, c := range []struct {
		data       []byte
		k, lo, hi  int64
		sorted, ti bool
	}{
		{even, 96, 0, 256, true, false},
		{even, 97, 0, 256, true, false},
		{even, 300, 0, 256, true, false},
		{even, -5, 0, 256, true, false},
		{even, 112, 200, 10, true, false},
		{even, 112, 50, 50, true, false},
		{even, 112, KeyMin, 256, true, false},
		{even, 112, 0, KeyMax, true, false},
		{even, 112, KeyMin + 1, KeyMax - 1, true, false},
		{even, 3, 0, 0, false, true},
		{clustered, 1e9 + 1, 1, 1e9 + 4, true, false},
		{clustered, 500, 1, 1e9 + 4, true, false},
		{clustered, 0, 0, 0, true, true},
		{seg(-1<<63+1, 0, 1<<63-2), 0, -1 << 62, 1 << 62, true, false},
		{seg(9, 3, 7, 1, 5), 5, 1, 10, false, false},
		{nil, 5, 0, 10, true, false},
	} {
		f.Add(c.data, c.k, c.lo, c.hi, c.sorted, c.ti)
	}
	f.Fuzz(func(t *testing.T, data []byte, k, lo, hi int64, sorted, tight bool) {
		ks := make([]int64, 0, min(len(data)/8, 512))
		for len(data) >= 8 && len(ks) < cap(ks) {
			ks = append(ks, int64(binary.LittleEndian.Uint64(data)))
			data = data[8:]
		}
		if sorted {
			slices.Sort(ks)
		}
		if n := len(ks); tight && n > 0 {
			lo, hi = ks[0], ks[n-1]
			k = ks[uint64(k)%uint64(n)] + k%3
		}
		got := seekSeg(ks, k, lo, hi)
		if got < 0 || got > len(ks) {
			t.Fatalf("seekSeg(%v, %d, %d, %d) = %d, outside [0, %d]", ks, k, lo, hi, got, len(ks))
		}
		if want := searchKeys(ks, k); sorted && got != want {
			t.Fatalf("seekSeg(%v, %d, %d, %d) = %d, searchKeys says %d", ks, k, lo, hi, got, want)
		}
	})
}

// TestSeekSegmentBounds runs seekSeg over random segments of every length up
// to 128 under true, loose, lying and sentinel bounds, for keys stored,
// absent and out of range: every answer must be the binary search's.
func TestSeekSegmentBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for n := 0; n <= 128; n++ {
		ks := make([]int64, n)
		next := rng.Int63n(1000) - 500
		for i := range ks {
			next += 1 + rng.Int63n(40)
			if rng.Intn(10) == 0 {
				next += 1e9 // a gap, as between clustered runs
			}
			ks[i] = next
		}
		var first, last int64
		if n > 0 {
			first, last = ks[0], ks[n-1]
		}
		bounds := [][2]int64{
			{first, last + 1}, {first - 100, last + 100}, {last, first},
			{first, first}, {last + 5, last + 10}, {first - 10, first - 5},
			{KeyMin, last}, {first, KeyMax}, {KeyMin + 1, KeyMax - 1},
		}
		for trial := 0; trial < 64; trial++ {
			k := first - 3 + rng.Int63n(last-first+7)
			if n > 0 && trial%2 == 0 {
				k = ks[rng.Intn(n)]
			}
			want := searchKeys(ks, k)
			for _, bd := range bounds {
				if got := seekSeg(ks, k, bd[0], bd[1]); got != want {
					t.Fatalf("n=%d k=%d bounds %v: seekSeg %d, searchKeys %d", n, k, bd, got, want)
				}
			}
		}
	}
}
