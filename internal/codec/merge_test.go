package codec

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// refMerge is MergeBlock's oracle: decode p, upsert the run into a map,
// re-encode. full reports that the result would exceed maxPairs.
func refMerge(p []byte, keys, vals []int64, maxPairs int) (out []byte, fresh int, full bool, err error) {
	var pk, pv []int64
	if len(p) > 0 {
		if pk, pv, err = DecodeBlock(p, nil, nil, maxPairs); err != nil {
			return nil, 0, false, err
		}
	}
	m := make(map[int64]int64, len(pk)+len(keys))
	for i, k := range pk {
		m[k] = pv[i]
	}
	for i, k := range keys {
		if _, ok := m[k]; !ok {
			fresh++
		}
		m[k] = vals[i]
	}
	if len(m) > maxPairs {
		return nil, 0, true, nil
	}
	ks := make([]int64, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	slices.Sort(ks)
	vs := make([]int64, len(ks))
	for i, k := range ks {
		vs[i] = m[k]
	}
	return AppendBlock(nil, ks, vs), fresh, false, nil
}

// checkMerge runs MergeBlock on canonical block p behind a prefix in dst and
// compares it with the oracle: the same bytes and fresh count, or ErrFull
// with dst as it was.
func checkMerge(t *testing.T, p []byte, keys, vals []int64, maxPairs int) {
	t.Helper()
	want, wantFresh, full, err := refMerge(p, keys, vals, maxPairs)
	if err != nil {
		t.Fatalf("oracle rejects the block: %v", err)
	}
	prefix := []byte{0xa5, 0x5a}
	dst := append(make([]byte, 0, 2+MaxEncodedLen(maxPairs+len(keys))), prefix...)
	got, fresh, err := MergeBlock(dst, p, keys, vals, maxPairs)
	if full {
		if !errors.Is(err, ErrFull) || len(got) != len(prefix) || !bytes.Equal(got, prefix) {
			t.Fatalf("merge of %v into %x past %d pairs: %d bytes, %v; want ErrFull", keys, p, maxPairs, len(got), err)
		}
		return
	}
	if err != nil || !bytes.Equal(got[:2], prefix) || !bytes.Equal(got[2:], want) || fresh != wantFresh {
		t.Fatalf("merge of %v / %v into %x:\n got  %x fresh %d (%v)\n want %x fresh %d", keys, vals, p, got, fresh, err, want, wantFresh)
	}
}

// TestMergeBlockMatchesReference merges random runs into random canonical
// blocks: keys negative and positive with gaps of every width, down to the
// int64 extremes, values of one to ten bytes, blocks from empty to full, runs
// from one key to more than the block can take, landing below, between,
// on and above the block's keys.
func TestMergeBlockMatchesReference(t *testing.T) {
	const maxPairs = 160
	rng := rand.New(rand.NewSource(5))
	val := func() int64 {
		switch rng.Intn(3) {
		case 0:
			return int64(rng.Intn(64)) - 32
		case 1:
			return math.MinInt64 + rng.Int63n(1<<20)
		}
		return rng.Int63() - rng.Int63()
	}
	gap := func() int64 {
		if rng.Intn(4) == 0 {
			return 1 + rng.Int63()>>uint(rng.Intn(63))
		}
		return 1 + int64(rng.Intn(20))
	}
	cases := 20_000
	if testing.Short() {
		cases = 2_000
	}
	var fulls, empties int
	for c := 0; c < cases; c++ {
		n := rng.Intn(maxPairs + 1)
		if rng.Intn(3) == 0 {
			n = rng.Intn(8)
		}
		var bk, bv []int64
		k := int64(rng.Intn(1000)) - 500
		switch rng.Intn(8) {
		case 0:
			k = math.MinInt64 + int64(rng.Intn(4))
		case 1:
			k = math.MaxInt64 - int64(maxPairs*21)
		}
		for i := 0; i < n; i++ {
			bk, bv = append(bk, k), append(bv, val())
			if g := gap(); k+g > k {
				k += g
			} else {
				break
			}
		}
		var p []byte
		if len(bk) > 0 {
			p = AppendBlock(nil, bk, bv)
		} else {
			empties++
		}
		// The run: existing keys, their neighbours and far-off keys.
		set := map[int64]int64{}
		for i, m := 0, 1+rng.Intn(1+rng.Intn(maxPairs)); i < m; i++ {
			var x int64
			switch r := rng.Intn(6); {
			case r < 2 && len(bk) > 0:
				x = bk[rng.Intn(len(bk))]
			case r < 4 && len(bk) > 0:
				x = bk[rng.Intn(len(bk))] + int64(rng.Intn(5)) - 2
			case r == 4:
				x = rng.Int63() - rng.Int63()
			default:
				x = int64(rng.Intn(2000)) - 1000
			}
			set[x] = val()
		}
		keys := make([]int64, 0, len(set))
		for x := range set {
			keys = append(keys, x)
		}
		slices.Sort(keys)
		vals := make([]int64, len(keys))
		for i, x := range keys {
			vals[i] = set[x]
		}
		if _, _, full, _ := refMerge(p, keys, vals, maxPairs); full {
			fulls++
		}
		checkMerge(t, p, keys, vals, maxPairs)
	}
	if fulls < cases/20 || empties < cases/100 {
		t.Fatalf("cases too tame: %d refused as full, %d into empty blocks", fulls, empties)
	}
}

// TestMergeBlockEdges pins the corners: the run before, after and around the
// whole block, a replaced first or last key, the count crossing from one
// byte to two, and a run that is not ascending.
func TestMergeBlockEdges(t *testing.T) {
	seq := func(lo, n, step int64) []int64 {
		s := make([]int64, n)
		for i := range s {
			s[i] = lo + int64(i)*step
		}
		return s
	}
	p := AppendBlock(nil, seq(100, 10, 3), seq(-5, 10, 1))
	for _, keys := range [][]int64{
		{1}, {1, 2, 3}, {200}, {200, 1 << 40}, {1, 200},
		{100}, {127}, {100, 127}, {99, 100, 101}, {126, 127, 128},
		seq(100, 10, 3), seq(99, 40, 1), {math.MinInt64, math.MaxInt64},
	} {
		checkMerge(t, p, keys, seq(7, int64(len(keys)), -1<<50), 64)
	}
	// 127 pairs plus one: the count takes a second byte.
	big := AppendBlock(nil, seq(0, 127, 2), seq(0, 127, 1))
	checkMerge(t, big, []int64{3}, []int64{9}, 128)
	checkMerge(t, big, []int64{3, 5}, []int64{9, 9}, 128)
	checkMerge(t, big, []int64{4}, []int64{9}, 128)
	for _, keys := range [][]int64{{5, 5}, {7, 3}, {1, 2, 2}} {
		if _, _, err := MergeBlock(nil, p, keys, make([]int64, len(keys)), 64); !errors.Is(err, ErrRun) {
			t.Fatalf("run %v: err %v, want ErrRun", keys, err)
		}
		if _, _, err := MergeBlock(nil, nil, keys, make([]int64, len(keys)), 64); !errors.Is(err, ErrRun) {
			t.Fatalf("run %v into nothing: err %v, want ErrRun", keys, err)
		}
	}
	if _, _, err := MergeBlock(nil, nil, nil, nil, 64); err == nil {
		t.Fatal("merging nothing into nothing made a block")
	}
}

// TestMergeBlockRejectsPadding: a gap or value varint longer than it need be
// would be copied into the result as it is, so the merge refuses the block.
func TestMergeBlockRejectsPadding(t *testing.T) {
	for _, p := range [][]byte{
		{2, 0, 0x81, 0x00, 0, 0},                                           // padded gap
		{2, 0, 1, 0x80, 0x00, 0},                                           // padded value
		{1, 0, 0x80, 0x80, 0x80, 0x80, 0x00},                               // padded value at the end
		{1, 0, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02}, // value overflows
		{1, 0, 0, 0}, // trailing byte
	} {
		if out, _, err := MergeBlock(nil, p, []int64{100}, []int64{1}, 8); err == nil {
			t.Fatalf("merge into %x accepted, made %x", p, out)
		}
	}
}

// skipCanonRef is skipCanon one varint at a time.
func skipCanonRef(b []byte, i, cnt int) int {
	for ; cnt > 0; cnt-- {
		if i >= len(b) {
			return -1
		}
		_, n := binary.Uvarint(b[i:])
		if n <= 0 || n > 1 && b[i+n-1] == 0 {
			return -1
		}
		i += n
	}
	return i
}

// TestSkipCanon compares the word-at-a-time skip with skipCanonRef on byte
// strings drawn mostly from the bytes its rules turn on — canonical varints,
// padded ones, continuation runs of every length up to twelve — from every
// start and for every count up to one past the varints there are.
func TestSkipCanon(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	var b []byte
	var ok, bad int
	for c := 0; c < 20_000; c++ {
		b = b[:0]
		for n := rng.Intn(40); len(b) < n; {
			switch rng.Intn(4) {
			case 0, 1: // a canonical varint
				b = binary.AppendUvarint(b, rng.Uint64()>>uint(rng.Intn(64)))
			default: // continuation bytes, then maybe a terminator
				for r := rng.Intn(12); r > 0; r-- {
					b = append(b, 0x80|byte(rng.Intn(128)))
				}
				if rng.Intn(8) > 0 {
					b = append(b, []byte{0x00, 0x01, 0x02, 0x7f}[rng.Intn(4)])
				}
			}
		}
		for i := 0; i < len(b); i++ {
			for cnt := 0; cnt <= len(b)-i+1; cnt++ {
				got, want := skipCanon(b, i, cnt), skipCanonRef(b, i, cnt)
				if got != want {
					t.Fatalf("skipCanon(%x, %d, %d) = %d, want %d", b, i, cnt, got, want)
				}
				if want < 0 {
					bad++
				} else {
					ok++
				}
			}
		}
	}
	if ok < 100_000 || bad < 100_000 {
		t.Fatalf("%d skips succeed, %d fail: too one-sided", ok, bad)
	}
}

// TestMergeBlockDoesNotAllocate: with MaxEncodedLen(n+m) spare bytes in dst
// the merge writes in place.
func TestMergeBlockDoesNotAllocate(t *testing.T) {
	blocks := benchBlocks(1, 64, 0)
	keys, vals := make([]int64, 16), make([]int64, 16)
	for i := range keys {
		keys[i], vals[i] = 64*int64(i)+1, -int64(i)<<40
	}
	dst := make([]byte, 0, MaxEncodedLen(64+16))
	if avg := testing.AllocsPerRun(200, func() {
		if _, _, err := MergeBlock(dst, blocks[0], keys, vals, 128); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Fatalf("MergeBlock allocates %.1f objects", avg)
	}
}
