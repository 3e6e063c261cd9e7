package codec

import (
	"encoding/binary"
	"math/bits"
)

// The store's varint writer, the counterpart of Uvarint in codec.go: a word
// at a time in encoding/binary's format. The package doc gives its
// spare-byte contract.

// AppendUvarint appends x to dst as binary.AppendUvarint does. With fewer
// than MaxVarintLen64 spare bytes in dst it writes the varint aside and
// appends it, so dst grows only when the varint itself does not fit.
func AppendUvarint(dst []byte, x uint64) []byte {
	i := len(dst)
	if cap(dst)-i < binary.MaxVarintLen64 {
		var b [binary.MaxVarintLen64]byte
		return append(dst, b[:putUvarint(b[:], 0, x)]...)
	}
	return dst[:i+putUvarint(dst[:cap(dst)], i, x)]
}

// AppendVarint appends the zigzag varint of x to dst, as binary.AppendVarint
// does.
func AppendVarint(dst []byte, x int64) []byte { return AppendUvarint(dst, zigzag(x)) }

// PutUvarint writes x into p as binary.PutUvarint does and returns its
// length, panicking as it does when p is too short. With MaxVarintLen64
// bytes in p it takes the word path and may write all of them; with fewer
// it writes byte by byte and leaves the bytes past the varint alone, so a
// caller may hand it exactly the room that is spare.
func PutUvarint(p []byte, x uint64) int {
	if len(p) >= binary.MaxVarintLen64 {
		return putUvarint(p, 0, x)
	}
	i := 0
	for ; x >= 0x80; i++ {
		p[i] = byte(x) | 0x80
		x >>= 7
	}
	p[i] = byte(x)
	return i + 1
}

// putUvarint writes the uvarint of x at p[i] and returns its length; p must
// hold MaxVarintLen64 bytes from i, all of which it may write. The 7-bit
// groups below bit 56 are spread over a word, every byte below the last gets
// its continuation bit by one mask, and the word is one store. Bits 56-63
// are the two tail bytes, stored whatever the length: the ninth byte is
// x>>56 as it stands (bit 63 is its continuation bit) and the tenth x>>63,
// so nine and ten bytes, a coin flip for random values, cost no branch.
// Below 1<<56 the tail bytes are zeros past the varint.
func putUvarint(p []byte, i int, x uint64) int {
	l := bits.Len64(x)
	q := p[i : i+binary.MaxVarintLen64]
	binary.LittleEndian.PutUint64(q, expand7(x)|contMask[l])
	q[8] = byte(x >> 56)
	q[9] = byte(x >> 63)
	return int(varintLen[l])
}

// varintLen[l] is the length of the varint of a value of l significant bits,
// and contMask[l] has the continuation bit set in each of its bytes but the
// last (in all eight bytes of the word for nine and ten).
var (
	varintLen [65]uint8
	contMask  [65]uint64
)

func init() {
	for l := range varintLen {
		n := max(1, (l+6)/7)
		varintLen[l] = uint8(n)
		contMask[l] = stops & (1<<(8*uint(n-1)) - 1) // n >= 9 shifts to 0: all of stops
	}
}

// expand7 is compact7 backwards: it spreads the low 56 bits of x over a
// word, bits 7j..7j+6 into byte j with bit 7 clear. Bits 56-63 are dropped.
func expand7(x uint64) uint64 {
	x = x&0x00fffffff0000000<<4 | x&0x000000000fffffff
	x = x&0x0fffc0000fffc000<<2 | x&0x00003fff00003fff
	return x&0x3f803f803f803f80<<1 | x&0x007f007f007f007f
}

func zigzag(x int64) uint64 { return uint64(x<<1) ^ uint64(x>>63) }

func unzigzag(x uint64) int64 { return int64(x>>1) ^ -int64(x&1) }
