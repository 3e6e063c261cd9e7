package persist

import (
	"encoding/binary"
	"hash/crc32"
	"math/bits"
	"slices"

	"pmago/internal/codec"
)

// The torn-tail probe (hasValidRecordAfter in wal.go) must decide, after a
// record fails to decode in the final WAL segment, whether any checksum-
// valid record still starts somewhere after the damage — the discriminator
// between a crash-torn final append (truncate and recover) and mid-segment
// bit rot (refuse, acknowledged data would be lost). The naive probe
// re-CRCs a candidate frame at every byte offset whose length field looks
// plausible; in a large torn span of effectively random bytes about one in
// ~100 offsets is plausible and each costs a CRC over megabytes, so the
// probe degenerates to O(span^2)-ish work — minutes for a torn tail of tens
// of MiB, multiplied by the shard count during parallel sharded recovery.
//
// This file bounds the probe to linear work using the standard CRC-combine
// identity. CRC32 register evolution is affine over GF(2): feeding bytes B
// from register x yields M_|B|·x ⊕ c(B), where the matrix M depends only on
// the length and c only on the data. From one streaming pass of prefix
// checksums R(i) = CRC(data[base:i]) the checksum of ANY window follows in
// O(log len) matrix-vector products:
//
//	CRC(data[s:j]) = R(j) ⊕ M_{j-s}·R(s)
//
// so the probe costs one cheap header scan, one sequential CRC pass (which
// uses the hardware-accelerated path), and ~a microsecond per candidate —
// the same "does any valid record follow" answer, minus the quadratic blowup.

// crcMat is a 32x32 GF(2) matrix in column form: column k is the image of
// the register with only bit k set.
type crcMat [32]uint32

// matVec applies m to v (XOR of the columns selected by v's set bits).
func matVec(m *crcMat, v uint32) uint32 {
	var r uint32
	for v != 0 {
		i := bits.TrailingZeros32(v)
		r ^= m[i]
		v &^= 1 << i
	}
	return r
}

// matSquare returns m·m.
func matSquare(m *crcMat) crcMat {
	var out crcMat
	for i := range out {
		out[i] = matVec(m, m[i])
	}
	return out
}

// zeroStep advances the (reflected Castagnoli) CRC register by one zero
// byte. Linear in r: the CRC table satisfies tab[a^b] = tab[a]^tab[b].
func zeroStep(r uint32) uint32 {
	return codec.CRC32C[byte(r)] ^ (r >> 8)
}

// zeroMatPow[j] advances the register by 2^j zero bytes. 2^30 bytes tops
// maxRecordBytes, the largest window the probe can meet.
var zeroMatPow = func() [31]crcMat {
	var pows [31]crcMat
	for k := 0; k < 32; k++ {
		pows[0][k] = zeroStep(1 << k)
	}
	for j := 1; j < len(pows); j++ {
		pows[j] = matSquare(&pows[j-1])
	}
	return pows
}()

// zeroAdvance returns the register after n more zero bytes.
func zeroAdvance(r uint32, n int) uint32 {
	for j := 0; n > 0; j, n = j+1, n>>1 {
		if n&1 != 0 {
			r = matVec(&zeroMatPow[j], r)
		}
	}
	return r
}

// crcOfWindow computes crc32.Checksum(data[s:j]) from the prefix checksums
// rs = Checksum(data[base:s]) and rj = Checksum(data[base:j]) for any common
// base <= s <= j. See the derivation at the top of the file; the init/final
// XOR conditioning of the finalized checksums cancels.
func crcOfWindow(rs, rj uint32, length int) uint32 {
	return rj ^ zeroAdvance(rs, length)
}

// probeCand is one header-plausible frame candidate: payload data[start:end]
// must hash to want for a record to start at start-codec.FrameHeader.
type probeCand struct {
	start, end int
	want       uint32
}

// probeChunkSize bounds how many candidates are buffered (and how much
// memory the probe uses) before a prefix-CRC pass evaluates them. Random
// garbage yields ~1% plausible offsets, so one chunk covers torn tails into
// the hundreds of MiB; pathological data just pays one extra linear pass
// per chunk. A var so the regression test can force multi-chunk operation.
var probeChunkSize = 1 << 20

// hasValidRecordAfter reports whether a checksum-valid record starts at any
// offset past a decode failure — the discriminator between a torn final
// append (nothing follows) and mid-segment corruption (the rest of the
// segment is still there). Only runs on the corruption path; a chance CRC
// match in torn garbage is a ~2^-32 event.
//
// The header scan steps over runs of zeros a word at a time: a killed
// store's active segment ends in up to its whole preallocated size of them,
// and a zero length field never frames a record, so no offset whose length
// field lies inside a zero run can start one.
func hasValidRecordAfter(data []byte, off int) bool {
	cands := make([]probeCand, 0, min(probeChunkSize, 1024))
	for i := off + 1; i+codec.FrameHeader <= len(data); i++ {
		if binary.LittleEndian.Uint64(data[i:]) == 0 {
			j := i + 8
			for j+8 <= len(data) && binary.LittleEndian.Uint64(data[j:]) == 0 {
				j += 8
			}
			// data[i:j] is zero: with the loop's i++, the next offset is
			// the first whose length field reaches past it.
			i = j - 4
			continue
		}
		n, sum := codec.ParseFrameHeader(data[i:])
		if n == 0 || n > maxRecordBytes || int(n) > len(data)-i-codec.FrameHeader {
			continue
		}
		cands = append(cands, probeCand{
			start: i + codec.FrameHeader,
			end:   i + codec.FrameHeader + int(n),
			want:  sum,
		})
		if len(cands) >= probeChunkSize {
			if probeChunk(data, cands) {
				return true
			}
			cands = cands[:0]
		}
	}
	return probeChunk(data, cands)
}

// probeChunk evaluates one batch of candidates: a single streaming CRC pass
// captures the prefix checksum at every offset a candidate needs, then each
// candidate's window CRC is derived via crcOfWindow. A window match is
// confirmed with a full decodeRecord (re-hash plus payload parse) — it runs
// at most once per genuine record and ~never on garbage.
func probeChunk(data []byte, cands []probeCand) bool {
	if len(cands) == 0 {
		return false
	}
	offs := make([]int, 0, 2*len(cands))
	for _, c := range cands {
		offs = append(offs, c.start, c.end)
	}
	slices.Sort(offs)
	offs = slices.Compact(offs)
	prefix := make([]uint32, len(offs))
	cur, last := uint32(0), offs[0]
	for i, o := range offs {
		cur = crc32.Update(cur, codec.CRC32C, data[last:o])
		last = o
		prefix[i] = cur
	}
	at := func(o int) uint32 {
		i, _ := slices.BinarySearch(offs, o)
		return prefix[i]
	}
	var rec Record
	for _, c := range cands {
		if crcOfWindow(at(c.start), at(c.end), c.end-c.start) != c.want {
			continue
		}
		if _, ok := decodeRecord(data[c.start-codec.FrameHeader:], &rec); ok {
			return true
		}
	}
	return false
}
