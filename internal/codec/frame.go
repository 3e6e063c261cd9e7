package codec

import (
	"encoding/binary"
	"hash/crc32"
)

// FrameHeader is the length of the header of a frame, the checksummed
// envelope of every WAL record, snapshot block (after its kind byte) and
// wire message: a u32 payload length, then a u32 CRC32-C of the payload,
// both little endian, then the payload.
const FrameHeader = 8

// CRC32C is the store's one CRC32-C (Castagnoli) table: frames and the
// snapshot trailer checksum with it.
var CRC32C = crc32.MakeTable(crc32.Castagnoli)

// AppendFrame appends one frame to b: it reserves the header, lets fill
// append the payload, then writes the payload's length and checksum.
func AppendFrame(b []byte, fill func([]byte) []byte) []byte {
	start := len(b)
	b = fill(append(b, 0, 0, 0, 0, 0, 0, 0, 0))
	payload := b[start+FrameHeader:]
	binary.LittleEndian.PutUint32(b[start:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(b[start+4:], crc32.Checksum(payload, CRC32C))
	return b
}

// ParseFrameHeader returns the payload length and checksum of the header
// at the front of h.
func ParseFrameHeader(h []byte) (n, sum uint32) {
	return binary.LittleEndian.Uint32(h), binary.LittleEndian.Uint32(h[4:])
}

// NextFrame returns the payload of the frame at the front of b, and false
// unless b holds the whole frame, its length is 1 to maxPayload (more is
// corruption, not an allocation request) and its checksum holds.
func NextFrame(b []byte, maxPayload int) (payload []byte, ok bool) {
	if len(b) < FrameHeader {
		return nil, false
	}
	n, sum := ParseFrameHeader(b)
	if n == 0 || int64(n) > int64(min(maxPayload, len(b)-FrameHeader)) {
		return nil, false
	}
	payload = b[FrameHeader : FrameHeader+int(n)]
	return payload, crc32.Checksum(payload, CRC32C) == sum
}
