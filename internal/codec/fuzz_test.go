package codec

import (
	"bytes"
	"encoding/binary"
	"errors"
	"slices"
	"testing"
)

// FuzzDecodeBlock asserts the decoder's contract on arbitrary bytes: it
// must decode or error — never panic, never over-read, never append more
// than maxPairs pairs — and anything it accepts must be a strictly
// ascending run with matching value count. This is the contract the racy
// in-memory read path depends on: a torn re-encode hands the decoder
// garbage, and the seqlock version check only discards the *result*; the
// decode itself has to survive. On every input it must also agree with the
// binary.Uvarint reference decoder (splice_test.go) — same error, same
// pairs, same partial prefix. CI's fuzz-smoke job runs this target alongside
// the persist/wire decoders.
func FuzzDecodeBlock(f *testing.F) {
	f.Add(AppendBlock(nil, []int64{1}, []int64{-1}), 16)
	f.Add(AppendBlock(nil, []int64{-100, 0, 7, 1 << 50}, []int64{1, 2, 3, 4}), 16)
	f.Add(AppendBlock(nil, []int64{0, 1, 2, 3, 4, 5, 6, 7}, make([]int64, 8)), 8)
	f.Add([]byte{}, 16)
	f.Add([]byte{1, 0}, 16)
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f}, 16)
	f.Fuzz(func(t *testing.T, data []byte, maxPairs int) {
		if maxPairs < 1 || maxPairs > 1<<16 {
			maxPairs = 1 << 10
		}
		sameAsReference(t, data, maxPairs)
		keys, vals, err := DecodeBlock(data, nil, nil, maxPairs)
		if len(keys) > maxPairs || len(vals) > maxPairs {
			t.Fatalf("appended %d/%d pairs, above maxPairs %d", len(keys), len(vals), maxPairs)
		}
		if err != nil {
			return
		}
		if len(keys) != len(vals) || len(keys) == 0 {
			t.Fatalf("accepted block with %d keys / %d vals", len(keys), len(vals))
		}
		for i := 1; i < len(keys); i++ {
			if keys[i] <= keys[i-1] {
				t.Fatalf("accepted non-ascending keys: %d after %d", keys[i], keys[i-1])
			}
		}
		// Any accepted content must survive a re-encode/decode round
		// trip: what the decoder accepts, the encoder can represent.
		re := AppendBlock(nil, keys, vals)
		k2, v2, err := DecodeBlock(re, nil, nil, maxPairs)
		if err != nil {
			t.Fatalf("re-encode of accepted block failed to decode: %v", err)
		}
		if len(k2) != len(keys) {
			t.Fatalf("re-encode changed pair count: %d -> %d", len(keys), len(k2))
		}
		for i := range keys {
			if k2[i] != keys[i] || v2[i] != vals[i] {
				t.Fatalf("re-encode changed pair %d", i)
			}
		}
	})
}

// FuzzSeekSplice holds Seek, Upsert and Remove to their contract on arbitrary
// bytes, target, value and spare room: they never panic and never write past
// len(buf) (the buffer's capacity is its length, so a stray write would
// panic), a refused edit — malformed, full, missing, no fit — leaves every
// byte as it was, and whenever DecodeBlock accepts the input, Seek agrees
// with the decoded pairs and an applied edit decodes to the edited pairs, byte
// for byte AppendBlock's output when the input was.
func FuzzSeekSplice(f *testing.F) {
	dense := AppendBlock(nil, []int64{0, 1, 2, 3, 4, 5, 6, 7}, make([]int64, 8))
	wide := AppendBlock(nil, []int64{-100, 0, 7, 1 << 50}, []int64{1, -1 << 62, 3, 1 << 62})
	f.Add(dense, int64(3), int64(9), 0)
	f.Add(dense, int64(8), int64(-1<<63), 16)
	f.Add(wide, int64(-101), int64(5), 32)
	f.Add(wide, int64(3), int64(5), 3)
	f.Add(wide, int64(1<<50), int64(0), 0)
	f.Add(AppendBlock(nil, []int64{1}, []int64{-1}), int64(1), int64(2), 1)
	// Padded varints (count, gap, value): DecodeBlock accepts them, and an
	// edit that writes them back canonically moves some bytes down and
	// others up.
	f.Add([]byte{0x82, 0x00, 2, 0x85, 0x80, 0x00, 0x81, 0x00, 0x80, 0x80, 0x00}, int64(3), int64(1<<40), 8)
	f.Add([]byte{0x83, 0x80, 0x00, 2, 0x81, 0x00, 0x85, 0x00, 1, 0x82, 0x80, 0x00, 3}, int64(2), int64(0), 0)
	f.Add([]byte{}, int64(0), int64(0), 4)
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f}, int64(0), int64(0), 4)
	f.Fuzz(func(t *testing.T, data []byte, k, v int64, spare int) {
		const maxPairs = 16
		if spare < 0 || spare > 64 {
			spare = 8
		}
		n := len(data)
		keys, vals, derr := DecodeBlock(data, nil, nil, maxPairs)
		valid := derr == nil
		canonical := valid && bytes.Equal(data, AppendBlock(nil, keys, vals))
		rank, found := slices.BinarySearch(keys, k)

		c, err := Seek(data, k, maxPairs)
		if valid && (err != nil || c.N != len(keys) || c.Rank != rank || c.Found != found || (found && c.Val != vals[rank])) {
			t.Fatalf("Seek(%d) = %+v, %v on a block holding %v", k, c, err, keys)
		}

		// check runs one edit on a fresh copy and compares the outcome with
		// wantK/wantV; representable is false when the edited run has a gap
		// the format cannot hold, and only the no-panic property is checked.
		check := func(name string, edit func(buf []byte) Splice, applied Status, wantK, wantV []int64, representable bool) {
			buf := make([]byte, n+spare)
			copy(buf, data)
			before := bytes.Clone(buf)
			r := edit(buf)
			switch r.Status {
			case Inserted, Replaced, Removed:
				if r.Len > len(buf) || r.Written > r.Len {
					t.Fatalf("%s: %+v in a %d-byte buffer", name, r, len(buf))
				}
			default:
				if !bytes.Equal(buf, before) {
					t.Fatalf("%s: status %v changed the buffer", name, r.Status)
				}
			}
			if !valid || !representable {
				return
			}
			if r.Status == NoFit && r.Len > len(buf) && (!canonical || len(wantK) == 0 || r.Len == len(AppendBlock(nil, wantK, wantV))) {
				return
			}
			if r.Status != applied {
				t.Fatalf("%s(%d) on %v: status %v, want %v", name, k, keys, r.Status, applied)
			}
			if applied != Inserted && applied != Replaced && applied != Removed {
				return
			}
			if len(wantK) == 0 {
				if r.Len != 0 {
					t.Fatalf("%s emptied the block and left %d bytes", name, r.Len)
				}
				return
			}
			gk, gv, err := DecodeBlock(buf[:r.Len], nil, nil, maxPairs)
			if err != nil || !slices.Equal(gk, wantK) || !slices.Equal(gv, wantV) || r.First != wantK[0] {
				t.Fatalf("%s(%d): got %v / %v first %d (%v), want %v / %v", name, k, gk, gv, r.First, err, wantK, wantV)
			}
			if canonical && !bytes.Equal(buf[:r.Len], AppendBlock(nil, wantK, wantV)) {
				t.Fatalf("%s(%d): canonical block became %x", name, k, buf[:r.Len])
			}
		}

		upsert := func(buf []byte) Splice { return Upsert(buf, n, k, v, maxPairs) }
		remove := func(buf []byte) Splice { return Remove(buf, n, k, maxPairs) }
		if !valid {
			check("Upsert", upsert, Malformed, nil, nil, false)
			check("Remove", remove, Malformed, nil, nil, false)
			return
		}
		// A gap must fit an int64: the format's own limit (ErrOverflow).
		fits := func(lo, hi int64) bool { return hi-lo > 0 }
		switch {
		case found:
			wv := slices.Clone(vals)
			wv[rank] = v
			check("Upsert", upsert, Replaced, keys, wv, true)
		case len(keys) == maxPairs:
			check("Upsert", upsert, Full, nil, nil, true)
		default:
			ok := (rank == 0 || fits(keys[rank-1], k)) && (rank == len(keys) || fits(k, keys[rank]))
			check("Upsert", upsert, Inserted, slices.Insert(slices.Clone(keys), rank, k), slices.Insert(slices.Clone(vals), rank, v), ok)
		}
		if !found {
			check("Remove", remove, Missing, nil, nil, true)
			return
		}
		ok := rank == 0 || rank == len(keys)-1 || fits(keys[rank-1], keys[rank+1])
		check("Remove", remove, Removed, slices.Delete(slices.Clone(keys), rank, rank+1), slices.Delete(slices.Clone(vals), rank, rank+1), ok)
	})
}

// pairsFrom reads b as alternating zigzag varint keys and values, the later
// of two equal keys winning, and returns at most limit pairs sorted by key.
func pairsFrom(b []byte, limit int) (keys, vals []int64) {
	m := map[int64]int64{}
	for len(b) > 0 {
		k, n := binary.Varint(b)
		if n <= 0 {
			break
		}
		v, vn := binary.Varint(b[n:])
		if vn <= 0 {
			vn = len(b) - n
		}
		m[k] = v
		b = b[n+vn:]
	}
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	keys = keys[:min(len(keys), limit)]
	for _, k := range keys {
		vals = append(vals, m[k])
	}
	return keys, vals
}

// FuzzMergeBlock holds MergeBlock to its contract. run is read as the pairs
// to merge (pairsFrom). data is read twice. As pairs, it builds a canonical
// block, and the merge must match the oracle (refMerge): the same bytes and
// fresh count, or ErrFull exactly when the result would pass maxPairs. As a
// raw block, the merge must not panic, write the block or read past it
// (the block's capacity is its length), and must either fail or return a
// block that DecodeBlock accepts and AppendBlock would write for its pairs —
// the oracle's block when DecodeBlock accepts data, and a failure then only
// for ErrFull or for varints longer than they need be.
func FuzzMergeBlock(f *testing.F) {
	pairs := func(kv ...int64) []byte {
		var b []byte
		for _, x := range kv {
			b = binary.AppendVarint(b, x)
		}
		return b
	}
	f.Add(pairs(1, 10, 5, 50, 9, 90), pairs(5, -5, 6, -6), uint8(8))
	f.Add(pairs(1, 10, 2, 20, 3, 30), pairs(0, 1, 4, 1), uint8(4))
	f.Add(pairs(-1<<62, 1<<62, 1<<62, -1<<62), pairs(0, 0, 1<<63-1, 7), uint8(16))
	f.Add(AppendBlock(nil, []int64{2, 4, 6}, []int64{-1, 1 << 40, 3}), pairs(3, 3, 6, 6), uint8(8))
	f.Add([]byte{2, 0, 0x81, 0x00, 1, 0x80, 0x00}, pairs(1, 1), uint8(8))
	f.Add([]byte{}, pairs(3, 3), uint8(1))
	f.Fuzz(func(t *testing.T, data, run []byte, mp uint8) {
		maxPairs := 1 + int(mp%48)
		keys, vals := pairsFrom(run, 64)
		if bk, bv := pairsFrom(data, maxPairs); len(bk) > 0 {
			checkMerge(t, AppendBlock(nil, bk, bv), keys, vals, maxPairs)
		} else if len(keys) > 0 {
			checkMerge(t, nil, keys, vals, maxPairs)
		}

		p := make([]byte, len(data))
		copy(p, data)
		out, fresh, err := MergeBlock(nil, p, keys, vals, maxPairs)
		if !bytes.Equal(p, data) {
			t.Fatalf("MergeBlock wrote its block: %x became %x", data, p)
		}
		dk, dv, derr := DecodeBlock(data, nil, nil, maxPairs)
		accepted := derr == nil || len(data) == 0
		if accepted && len(data) == 0 && len(keys) == 0 {
			accepted = false // nothing to merge into nothing: no block to compare
		}
		var want []byte
		var wantFresh int
		var full bool
		if accepted {
			want, wantFresh, full, _ = refMerge(data, keys, vals, maxPairs)
		}
		if err != nil {
			canonical := len(data) == 0 || derr == nil && bytes.Equal(data, AppendBlock(nil, dk, dv))
			if accepted && canonical && !full {
				t.Fatalf("merge of %v into canonical %x: %v", keys, data, err)
			}
			if full && !errors.Is(err, ErrFull) && canonical {
				t.Fatalf("merge of %v into %x past %d pairs: %v, want ErrFull", keys, data, maxPairs, err)
			}
			return
		}
		gk, gv, gerr := DecodeBlock(out, nil, nil, maxPairs)
		if gerr != nil || !bytes.Equal(out, AppendBlock(nil, gk, gv)) {
			t.Fatalf("merge of %v into %x made %x, not a canonical block (%v)", keys, data, out, gerr)
		}
		if accepted && (full || !bytes.Equal(out, want) || fresh != wantFresh) {
			t.Fatalf("merge of %v into %x: %x fresh %d, want %x fresh %d (full %v)", keys, data, out, fresh, want, wantFresh, full)
		}
	})
}
