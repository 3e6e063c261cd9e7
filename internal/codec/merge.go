package codec

import (
	"encoding/binary"
	"errors"
	"math/bits"
	"slices"
)

// Merge errors, besides the decode errors for a block that does not parse.
var (
	ErrFull = errors.New("codec: merged block exceeds maxPairs")
	ErrRun  = errors.New("codec: run keys not strictly ascending")
)

// MergeBlock upserts the run keys/vals into block p and appends the merged
// block to dst, returning it with the number of run keys p did not hold.
// keys must be strictly ascending and len(vals) must equal len(keys); p may
// be empty, a block of no pairs. The output is byte for byte AppendBlock of
// the merged pairs, but only the count, the first key, the run's values and
// the key gaps next to an insertion are encoded: MergeBlock walks p's key
// gaps once (a byte each on dense runs) and copies every other gap and every
// value it keeps as a byte range, found by counting varint terminators.
//
// It refuses with ErrFull when the merged block would hold more than maxPairs
// pairs, and with a decode error when p is not well formed or holds a gap or
// value varint longer than it need be (the bytes it copies must already be
// canonical); either way dst comes back at its old length, though its spare
// capacity may have been written. With MaxEncodedLen(n+len(keys)) spare bytes
// in dst, n being p's pair count, it does not allocate.
func MergeBlock(dst, p []byte, keys, vals []int64, maxPairs int) ([]byte, int, error) {
	base, m := len(dst), len(keys)
	vals = vals[:m]
	n, ki := 0, 0 // p's pair count; the end of its first key
	var first int64
	if len(p) > 0 {
		c, cn := Uvarint(p, 0)
		if cn == 0 || c == 0 || c > uint64(maxPairs) {
			return dst, 0, ErrCount
		}
		zz, fn := Uvarint(p, cn)
		if fn == 0 {
			return dst, 0, ErrFirstKey
		}
		n, first, ki = int(c), unzigzag(zz), cn+fn
	}
	if m > maxPairs { // every run key is a pair of the result
		return dst, 0, ErrFull
	}
	if n == 0 { // nothing to keep
		if m == 0 {
			return dst, 0, ErrCount
		}
		for j := 1; j < m; j++ {
			if keys[j] <= keys[j-1] {
				return dst, 0, ErrRun
			}
		}
		return AppendBlock(dst, keys, vals), m, nil
	}
	// p's values start at v0. Each stretch of them that is copied is
	// checked as it is skipped (skipCanon), and the last must end p.
	v0 := skip(p, ki, n-1)
	if v0 < 0 {
		return dst, 0, ErrDelta
	}

	// The gaps are written after room for the count and first key, the
	// values after room for the gaps (each run key adds at most one varint
	// to either section); both move down into place at the end. The room is
	// MaxVarintLen64 bytes for each varint written, so every word-at-a-time
	// write's spare bytes land in its own reservation: the count's and the
	// first key's in the header's, a run key's gap or value in the one the
	// run key holds in its section, ahead of anything written there yet.
	const hdr = 2 * binary.MaxVarintLen64
	kLim := hdr + v0 - ki + m*binary.MaxVarintLen64
	need := kLim + len(p) - v0 + m*binary.MaxVarintLen64
	dst = slices.Grow(dst, need)
	out := dst[base : base+need]
	kw, vw := hdr, kLim

	// Block key r (r < n) is cur, placed by the gap p[gOff:ki]. follows: the
	// last key written is block key r-1, so that gap is still right and is
	// copied, gathered into the pending range p[cp:cpEnd]. p's values from vi
	// on are not yet written; the first vn of them are kept.
	r, cur, gOff := 0, first, 0
	cp, cpEnd, follows := -1, 0, false
	vi, vn := v0, 0
	var head, prev int64 // the first and the last key written
	started, fresh := false, 0
	var err error
	for j := 0; ; j++ {
		if r < n && (j == m || cur < keys[j]) {
			// Keep block keys up to the next run key: the first as the
			// head, by its own gap or by a new one; the rest by theirs.
			switch {
			case !started:
				head, started = cur, true
			case follows:
				if cp < 0 {
					cp = gOff
				}
			default:
				// This gap replaces cur's own, which is no shorter
				// (a run key now sits between cur and the key it
				// followed) but has no reservation to spill into, so it
				// is written only within the key section.
				kw += PutUvarint(out[kw:kLim], uint64(cur-prev))
			}
			if cp < 0 {
				cp = ki
			}
			cpEnd, prev, follows = ki, cur, true
			vn++
			for r++; r < n; r++ {
				k, dn := cur, 1
				if c := p[ki]; c-1 < 0x7f { // a 1-byte gap: the dense-run fast path
					k += int64(c)
				} else if k, dn, err = gapAt(p, ki, k); err != nil {
					return dst[:base], 0, err
				}
				if k <= cur {
					return dst[:base], 0, ErrOverflow
				}
				cur, gOff, ki = k, ki, ki+dn
				if j < m && k >= keys[j] {
					break
				}
				cpEnd, prev = ki, k
				vn++
			}
		}
		if j == m {
			break
		}
		k := keys[j]
		if j > 0 && k <= keys[j-1] {
			return dst[:base], 0, ErrRun
		}
		found := r < n && cur == k
		if found && follows {
			if cp < 0 {
				cp = gOff
			}
			cpEnd = ki
		} else {
			if cp >= 0 {
				kw += copy(out[kw:], p[cp:cpEnd])
				cp = -1
			}
			if !started {
				head, started = k, true
			} else {
				kw += putUvarint(out, kw, uint64(k-prev))
			}
		}
		if vn > 0 {
			e := skipCanon(p, vi, vn)
			if e < 0 {
				return dst[:base], 0, ErrValue
			}
			vw += copy(out[vw:], p[vi:e])
			vi, vn = e, 0
		}
		vw += putUvarint(out, vw, zigzag(vals[j]))
		prev = k
		if !found {
			follows = false
			if fresh++; n+fresh > maxPairs {
				return dst[:base], 0, ErrFull
			}
			continue
		}
		// k's old value is dropped, and block key r+1 still follows k.
		if vi = skip(p, vi, 1); vi < 0 {
			return dst[:base], 0, ErrValue
		}
		follows = true
		if r++; r < n {
			var dn int
			if cur, dn, err = gapAt(p, ki, cur); err != nil {
				return dst[:base], 0, err
			}
			gOff, ki = ki, ki+dn
		}
	}
	if cp >= 0 {
		kw += copy(out[kw:], p[cp:cpEnd])
	}
	if skipCanon(p, vi, vn) != len(p) {
		return dst[:base], 0, ErrValue
	}
	vw += copy(out[vw:], p[vi:])

	hl := putUvarint(out, 0, uint64(n+fresh)) // over bytes nothing was written to
	hl += putUvarint(out, hl, zigzag(head))
	kl := copy(out[hl:], out[hdr:kw])
	vl := copy(out[hl+kl:], out[kLim:vw])
	return dst[:base+hl+kl+vl], fresh, nil
}

// gapAt reads the gap varint at p[i] that follows key k and returns the key
// it places with the varint's length. A gap must be well formed, non-zero,
// not wrap past MaxInt64 and be as short as it can be: MergeBlock copies
// gaps verbatim.
func gapAt(p []byte, i int, k int64) (int64, int, error) {
	d, dn := uint64(0), 1
	if i < len(p) && p[i] < 0x80 {
		d = uint64(p[i])
	} else if d, dn = Uvarint(p, i); dn == 0 || p[i+dn-1] == 0 {
		return k, 0, ErrDelta
	}
	if d == 0 {
		return k, 0, ErrDelta
	}
	nk := k + int64(d)
	if nk <= k {
		return k, 0, ErrOverflow
	}
	return nk, dn, nil
}

// skipCanon is skip for the varints MergeBlock copies: it returns the offset
// just past the cnt varints that start at p[i], or -1 when p ends first or
// one of them is longer than it need be — a multi-byte varint ending in a
// zero byte — or does not fit 64 bits (more than ten bytes, or a tenth byte
// above 1). Bytes past the last of them are not judged. It takes a word at a
// time with no branch on the data but the one that finds the last varint's
// word, and no call, so a cold block's loads overlap; run counts the
// continuation bytes since the last terminator.
func skipCanon(p []byte, i, cnt int) int {
	const low7 = 0x7f7f7f7f7f7f7f7f
	if cnt <= 0 {
		return i
	}
	var bad, prev uint64 // prev: the continuation bits of the last word
	run := 0
	for ; i+8 <= len(p); i += 8 {
		w := binary.LittleEndian.Uint64(p[i:])
		cont := w & stops
		term := cont ^ stops
		zero := ^((w&low7 + low7) | w) & stops
		padded := zero & (cont<<8 | prev>>56) // a zero byte ends a multi-byte varint
		// Only the varint running into this word can be long: the others
		// start and end inside it. It ends at byte t0 (8: not here); low is
		// that byte's bit 7 and high its bits 1-6, so a tenth byte above 1
		// leaves a bit in w&high.
		t0 := bits.TrailingZeros64(term) >> 3
		l := run + t0
		low := term & -term
		high := low - low>>6
		bad |= uint64(9-l)>>63 | (uint64(l^9)-1)>>63*(w&high)
		pc := int(term >> 7 * 0x0101010101010101 >> 56) // terminators, counted without a call
		if pc >= cnt {
			for ; cnt > 1; cnt-- { // the last varint ends inside this word
				term &= term - 1
			}
			last := term & -term
			if bad|padded&(last<<1-1) != 0 {
				return -1
			}
			return i + bits.TrailingZeros64(last)>>3 + 1
		}
		cnt -= pc
		bad |= padded
		carried := 0
		if term == 0 {
			carried = run
		}
		run = bits.LeadingZeros64(term)>>3 + carried
		prev = cont
	}
	if bad != 0 {
		return -1
	}
	for ; i < len(p); i++ {
		c := p[i]
		if c >= 0x80 {
			run++
			continue
		}
		if run > 9 || run > 0 && c == 0 || run == 9 && c > 1 {
			return -1
		}
		run = 0
		if cnt--; cnt == 0 {
			return i + 1
		}
	}
	return -1
}
