// Package codec is the delta block codec shared by the persistence layer's
// snapshots (internal/persist) and the in-memory compressed chunks
// (internal/core): a sorted run of int64 key/value pairs is stored as
//
//	uvarint  pair count (>= 1)
//	varint   first key (zigzag)
//	uvarint  key deltas, one per remaining pair (strictly ascending keys,
//	         so every delta is >= 1; dense runs cost one byte per key)
//	varint   values (zigzag), one per pair
//
// A dense PMA segment or snapshot block encodes at a few bytes per pair
// instead of the 16 an uncompressed pair costs.
//
// The package also holds the store's one varint reader (Uvarint, Varint)
// and writer (varint.go), which persist's WAL records and the wire protocol
// use too, and the store's one checksummed frame (frame.go: payload length,
// CRC32-C, payload) with its one Castagnoli table, which wraps every WAL
// record, snapshot block and wire message.
// Both work a word at a time and keep encoding/binary's bytes exactly. The
// writer spreads a value's 7-bit groups over a word (expand7, the inverse of
// the reader's compact7), sets the continuation bits with one mask picked by
// the value's bit length, and stores the word and the two bytes a nine- or
// ten-byte varint adds, whatever the varint's length: no branch on the
// length, the coin flip a random 64-bit value makes of a byte loop. The
// price is room: a write may touch MaxVarintLen64 bytes from where the
// varint starts, past its end. With less room than that spare, AppendUvarint
// and AppendVarint write the varint aside and append it, and PutUvarint
// falls back to a byte loop. AppendBlock checks for MaxEncodedLen spare
// bytes once per block, which holds the room for every varint of the block,
// and MergeBlock reserves it per varint (merge.go).
//
// The decoder is hardened for both of its callers' threat models — bytes
// read back from a crashed disk, and bytes read racily from a chunk a
// concurrent writer is re-encoding (the seqlock read path discards the
// result on version mismatch, but the decode itself must never fault):
// it never panics, never over-reads, appends at most maxPairs pairs
// whatever the input claims, and rejects zero or wrapping key deltas, so
// every accepted block is a strictly ascending run. The key-delta overflow
// check lives only here; persist and core previously had to agree on it by
// duplication.
//
// Core's point operations and its per-segment batch merges do not decode
// at all. Seek (splice.go) walks the key gaps to one key and steps over
// everything else by counting varint terminators a word at a time; Upsert
// and Remove edit one pair inside the encoded bytes; MergeBlock (merge.go)
// upserts a sorted run in one walk of the key gaps, copying the gaps and
// values it keeps as byte ranges. The splices and the merge are canonical:
// they store the shortest varints, the ones AppendBlock would store for the
// edited pairs, and only move or copy the rest, so a block is byte-identical
// to AppendBlock of its pairs however it came to hold them.
// Seek shares the decoder's hardening; a seqlock reader that runs it on a
// block mid-splice sees some mix of the bytes before and after the edit and
// gets an error or an answer its version check throws away.
package codec

import (
	"encoding/binary"
	"errors"
	"math/bits"
	"slices"
)

// Decode errors. Callers that frame blocks (persist) wrap them with file
// context; the racy in-memory reader only cares that an error came back.
var (
	ErrCount    = errors.New("codec: bad block count")
	ErrFirstKey = errors.New("codec: bad first key")
	ErrDelta    = errors.New("codec: bad key delta")
	ErrOverflow = errors.New("codec: key delta overflow")
	ErrValue    = errors.New("codec: bad value")
	ErrTrailing = errors.New("codec: trailing block bytes")
)

// AppendBlock appends one encoded block for the given pairs to dst and
// returns the extended slice. keys must be strictly ascending and non-empty;
// len(vals) must equal len(keys). The caller owns framing (length, CRC).
//
// Capacity is checked once, for the worst case: with MaxEncodedLen(len(keys))
// spare bytes in dst it does not allocate, and otherwise it grows dst once.
// The varints are then written a word at a time (putUvarint), each into the
// MaxVarintLen64 bytes the bound holds for it; a one-byte gap or value, a
// dense run's or a small one, is a single byte store.
func AppendBlock(dst []byte, keys, vals []int64) []byte {
	i := len(dst)
	if need := MaxEncodedLen(len(keys)); cap(dst)-i < need {
		dst = slices.Grow(dst, need)
	}
	p := dst[:cap(dst)]
	i += putUvarint(p, i, uint64(len(keys)))
	i += putUvarint(p, i, zigzag(keys[0]))
	for j := 1; j < len(keys); j++ {
		if d := uint64(keys[j] - keys[j-1]); d < 0x80 { // a dense run's 1-byte gap
			p[i] = byte(d)
			i++
		} else {
			i += putUvarint(p, i, d)
		}
	}
	for _, v := range vals {
		if zz := zigzag(v); zz < 0x80 {
			p[i] = byte(zz)
			i++
		} else {
			i += putUvarint(p, i, zz)
		}
	}
	return dst[:i]
}

// MaxEncodedLen bounds the encoded size of a block of n pairs: the count,
// a worst-case varint per key delta and per value. Useful for sizing
// fixed scratch buffers. It already holds the word-at-a-time writer's spare
// bytes: the j-th varint starts at most MaxVarintLen64*(j-1) bytes in and is
// written with at most MaxVarintLen64 bytes from its start, so nothing is
// stored past the bound.
func MaxEncodedLen(n int) int {
	const maxVarint = binary.MaxVarintLen64
	return maxVarint + 2*n*maxVarint
}

// DecodeBlock decodes one block payload, appending the pairs to keys and
// vals, and returns the extended slices. It accepts only a complete,
// internally consistent block: a count in [1, maxPairs], strictly ascending
// keys (no zero deltas, no int64 wrap), every varint well-formed, and no
// trailing bytes. On error the returned slices may carry a partial prefix
// of the block; callers either discard them (persist invalidates the whole
// file) or re-slice to the pre-call length (the racy read path). At most
// maxPairs pairs are appended no matter what the input claims, so a caller
// with a fixed-capacity scratch buffer never grows it.
func DecodeBlock(p []byte, keys, vals []int64, maxPairs int) ([]int64, []int64, error) {
	c, un := Uvarint(p, 0)
	if un == 0 || c == 0 || c > uint64(maxPairs) {
		return keys, vals, ErrCount
	}
	n := int(c)
	zz, vn := Uvarint(p, un)
	if vn == 0 {
		return keys, vals, ErrFirstKey
	}
	first := unzigzag(zz)
	// The count is validated, so the output length is known up front:
	// extend both slices once and fill by index, keeping the per-pair loop
	// free of append bookkeeping. On error the filled prefix is re-sliced
	// back to exactly the pairs decoded so far, preserving the
	// partial-prefix contract.
	kb, vb := len(keys), len(vals)
	keys = grow(keys, n)
	vals = grow(vals, n)
	i := un + vn
	keys[kb] = first
	k := first
	for j := 1; j < n; j++ {
		var d uint64
		if i < len(p) && p[i] < 0x80 { // 1-byte delta: the dense-run fast path
			d = uint64(p[i])
			i++
		} else {
			var dn int
			d, dn = Uvarint(p, i)
			if dn == 0 {
				return keys[:kb+j], vals[:vb], ErrDelta
			}
			i += dn
		}
		if d == 0 {
			return keys[:kb+j], vals[:vb], ErrDelta
		}
		// Keys are strictly ascending, so a delta that wraps past
		// MaxInt64 (or reads back as <= 0) is corruption, not a gap.
		nk := k + int64(d)
		if nk <= k {
			return keys[:kb+j], vals[:vb], ErrOverflow
		}
		k = nk
		keys[kb+j] = k
	}
	for j := 0; j < n; j++ {
		var v int64
		if i < len(p) && p[i] < 0x80 { // 1-byte zigzag value fast path
			v = int64(p[i]>>1) ^ -int64(p[i]&1)
			i++
		} else {
			zz, vn := Uvarint(p, i)
			if vn == 0 {
				return keys, vals[:vb+j], ErrValue
			}
			v = unzigzag(zz)
			i += vn
		}
		vals[vb+j] = v
	}
	if i != len(p) {
		return keys, vals, ErrTrailing
	}
	return keys, vals, nil
}

// stops has the continuation bit of every byte of a word set: ^w & stops
// marks the bytes of w that end a varint.
const stops = 0x8080808080808080

// Uvarint decodes the uvarint that starts at p[i], i <= len(p), and returns
// it with its length; the length is 0 when p ends inside the varint or the
// varint overflows 64 bits (more than ten bytes, or a tenth byte above 1) —
// exactly the inputs binary.Uvarint rejects. With eight bytes available it
// is one load: the first clear continuation bit gives the length, and three
// shift-mask steps squeeze the 7-bit groups of the bytes below it together.
// A nine- or ten-byte varint (what a random 64-bit value costs) adds its
// last one or two bytes to the 56 bits of the word.
func Uvarint(p []byte, i int) (x uint64, n int) {
	if i+8 <= len(p) {
		w := binary.LittleEndian.Uint64(p[i:])
		if stop := ^w & stops; stop != 0 {
			n = bits.TrailingZeros64(stop)>>3 + 1
			return compact7(w & (1<<(8*uint(n)) - 1)), n // n == 8 shifts to 0: the mask is all ones
		}
		if i+10 <= len(p) {
			// Nine or ten bytes, a coin flip for random values: take
			// both bytes without branching on which.
			b, c := p[i+8], p[i+9]
			tenth := uint64(b >> 7) // 1 when the ninth byte continues
			if uint64(c)*tenth > 1 {
				return 0, 0
			}
			return compact7(w) | uint64(b&0x7f)<<56 | uint64(c)*tenth<<63, 9 + int(tenth)
		}
	}
	if x, n = binary.Uvarint(p[i:]); n < 0 { // the block's last bytes
		n = 0
	}
	return x, n
}

// Varint is Uvarint for a zigzag-encoded signed value (binary.Varint).
func Varint(p []byte, i int) (int64, int) {
	zz, n := Uvarint(p, i)
	return unzigzag(zz), n
}

// compact7 drops bit 7 of each byte of w and closes the gaps: byte j's low
// seven bits land at bit 7j.
func compact7(w uint64) uint64 {
	w = w&0x7f007f007f007f00>>1 | w&0x007f007f007f007f
	w = w&0x3fff00003fff0000>>2 | w&0x00003fff00003fff
	return w&0x0fffffff00000000>>4 | w&0x000000000fffffff
}

// grow extends s by n elements (values unspecified), reusing capacity when
// it fits — the common case for the pooled fixed-capacity scratch buffers
// both decoder callers pass in.
func grow(s []int64, n int) []int64 {
	if len(s)+n <= cap(s) {
		return s[:len(s)+n]
	}
	return append(s, make([]int64, n)...)
}
