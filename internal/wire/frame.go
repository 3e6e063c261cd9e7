// Package wire is the framed binary protocol spoken between pmago/server
// and pmago/client. It is deliberately shaped like the WAL record format
// (persist/record.go): every frame is
//
//	u32 payload length (little endian)
//	u32 CRC32-C of the payload
//	payload
//
// so a torn or corrupted TCP stream is detected exactly the way a torn WAL
// tail is, and the varint payload encoding reuses the same zigzag scheme.
// A request payload is
//
//	op byte | request id uvarint | op-specific body
//
// and a response payload is
//
//	status byte | op byte | request id uvarint | status/op-specific body
//
// The op byte is repeated in the response so either direction of the
// protocol decodes standalone — a response is interpretable without the
// request that provoked it (debugging captures, fuzzing). Request ids are
// chosen by the client and echoed verbatim; a client pipelines by issuing
// many ids before the first response arrives, and matches responses back by
// id (the server may reorder: reads overtake queued writes).
//
// Every pair-bearing body — a scan chunk, a PutBatch or DeleteBatch
// request — has one layout:
//
//	count uvarint | count keys | count values (absent for DeleteBatch)
//
// Each key is the zigzag uvarint of its wrapping difference from the key
// before it (the first from 0): an ascending run of dense keys costs a
// byte a key, and an unsorted batch round-trips all the same. Each value is
// 8 little-endian bytes, whatever it holds — a small value pays up to 7
// bytes more than a varint would, a random or hashed one 1–2 bytes less —
// so the value block is copied, not parsed. Point keys and values stay
// zigzag varints.
//
// The protocol carries no version: client and server must come from the
// same build. A frame from a peer speaking another layout can pass its CRC
// and then decode to different pairs.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"slices"

	"pmago/internal/codec"
)

// Ops. OpCancel carries the id of an in-flight scan to stop; it has no
// response of its own (the scan terminates with its usual final frame).
const (
	OpPut byte = iota + 1
	OpGet
	OpDelete
	OpPutBatch
	OpDeleteBatch
	OpScan
	OpStats
	OpCancel
	opMax = OpCancel
)

// Statuses. StatusScanChunk frames stream a scan's pairs; the scan ends
// with a StatusOK frame for the same id. StatusBusy is the backpressure
// signal — the request was not executed and may be retried. StatusErr
// carries a message; the request did not take effect (or, for a scan, was
// cut short).
const (
	StatusOK byte = iota + 1
	StatusScanChunk
	StatusBusy
	StatusErr
	statusMax = StatusErr
)

// MaxPayload bounds one frame's payload: a length above it is corruption
// (or a hostile peer), not an allocation request. Large batches are split
// across frames by the client.
const MaxPayload = 1 << 24

const frameHeader = 8 // length + crc

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// ErrFrame reports a malformed frame: bad length, bad checksum, or a
// payload that does not decode. The stream is unsynchronized past it —
// connections die on ErrFrame, they do not resync.
var ErrFrame = errors.New("wire: malformed frame")

// Request is one decoded client request. Key/Val double as Lo/Hi for
// OpScan. Keys/Vals alias the decode buffer until the next decode into the
// same struct.
type Request struct {
	Op   byte
	ID   uint64
	Key  int64 // point key; scan lo
	Val  int64 // point val; scan hi
	Keys []int64
	Vals []int64
}

// Response is one decoded server response. Found reports Get presence and
// Delete removal; Val carries the Get value or the DeleteBatch removed
// count; Keys/Vals carry a scan chunk's pairs; Blob carries the OpStats
// JSON; Err the StatusErr message.
type Response struct {
	Status byte
	Op     byte
	ID     uint64
	Found  bool
	Val    int64
	Keys   []int64
	Vals   []int64
	Blob   []byte
	Err    string
}

// AppendRequest appends r as one framed request to dst.
func AppendRequest(dst []byte, r *Request) []byte {
	return frame(dst, func(p []byte) []byte {
		p = append(p, r.Op)
		p = binary.AppendUvarint(p, r.ID)
		switch r.Op {
		case OpPut:
			p = binary.AppendVarint(p, r.Key)
			p = binary.AppendVarint(p, r.Val)
		case OpGet, OpDelete:
			p = binary.AppendVarint(p, r.Key)
		case OpScan:
			p = binary.AppendVarint(p, r.Key)
			p = binary.AppendVarint(p, r.Val)
		case OpPutBatch:
			p = appendPairs(p, r.Keys, r.Vals)
		case OpDeleteBatch:
			p = appendPairs(p, r.Keys, nil)
		case OpStats, OpCancel:
			// id only
		default:
			panic(fmt.Sprintf("wire: unknown op %d", r.Op))
		}
		return p
	})
}

// AppendResponse appends r as one framed response to dst.
func AppendResponse(dst []byte, r *Response) []byte {
	return frame(dst, func(p []byte) []byte {
		p = append(p, r.Status, r.Op)
		p = binary.AppendUvarint(p, r.ID)
		switch r.Status {
		case StatusBusy:
			// header only
		case StatusErr:
			p = append(p, r.Err...)
		case StatusScanChunk:
			p = appendPairs(p, r.Keys, r.Vals)
		case StatusOK:
			switch r.Op {
			case OpGet:
				if r.Found {
					p = append(p, 1)
					p = binary.AppendVarint(p, r.Val)
				} else {
					p = append(p, 0)
				}
			case OpDelete:
				if r.Found {
					p = append(p, 1)
				} else {
					p = append(p, 0)
				}
			case OpDeleteBatch:
				p = binary.AppendUvarint(p, uint64(r.Val))
			case OpStats:
				p = append(p, r.Blob...)
			case OpPut, OpPutBatch, OpScan:
				// header only
			default:
				panic(fmt.Sprintf("wire: unknown op %d", r.Op))
			}
		default:
			panic(fmt.Sprintf("wire: unknown status %d", r.Status))
		}
		return p
	})
}

// appendPairs appends count | key deltas | fixed-width vals (see the package
// doc). The worst case is reserved once, so both loops store by index: a
// buffer that held one chunk holds the next without growing, and a nil one
// is sized by a single allocation instead of a dozen doublings.
func appendPairs(p []byte, keys, vals []int64) []byte {
	p = binary.AppendUvarint(p, uint64(len(keys)))
	n := len(p)
	p = slices.Grow(p, len(keys)*binary.MaxVarintLen64+8*len(vals))
	p = p[:cap(p)]
	prev := int64(0)
	for _, k := range keys {
		d := k - prev
		prev = k
		if zz := uint64(d<<1) ^ uint64(d>>63); zz < 0x80 {
			p[n] = byte(zz)
			n++
		} else {
			n += binary.PutUvarint(p[n:], zz)
		}
	}
	for _, v := range vals {
		binary.LittleEndian.PutUint64(p[n:], uint64(v))
		n += 8
	}
	return p[:n]
}

// frame reserves the 8-byte header, lets fill append the payload, then
// back-patches length and CRC (the WAL's framing, verbatim).
func frame(b []byte, fill func([]byte) []byte) []byte {
	start := len(b)
	b = append(b, 0, 0, 0, 0, 0, 0, 0, 0)
	b = fill(b)
	payload := b[start+frameHeader:]
	binary.LittleEndian.PutUint32(b[start:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(b[start+4:], crc32.Checksum(payload, crcTable))
	return b
}

// ReadFrame reads one frame from r, reusing buf when it is large enough,
// and returns the checksum-verified payload. io.EOF is returned unwrapped
// only when the stream ends cleanly between frames; every other failure is
// ErrFrame or the underlying read error.
func ReadFrame(r io.Reader, buf []byte) ([]byte, error) {
	// The header is read into buf too: a header array of its own would
	// escape through the io.Reader and cost an allocation a frame.
	if cap(buf) < frameHeader {
		buf = make([]byte, frameHeader, 512)
	}
	hdr := buf[:frameHeader]
	if _, err := io.ReadFull(r, hdr); err != nil {
		if err == io.ErrUnexpectedEOF {
			return nil, fmt.Errorf("%w: torn header", ErrFrame)
		}
		return nil, err
	}
	n, sum := binary.LittleEndian.Uint32(hdr[:4]), binary.LittleEndian.Uint32(hdr[4:])
	if n == 0 || n > MaxPayload {
		return nil, fmt.Errorf("%w: payload length %d", ErrFrame, n)
	}
	if cap(buf) < int(n) {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := io.ReadFull(r, buf); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return nil, fmt.Errorf("%w: torn payload", ErrFrame)
		}
		return nil, err
	}
	if crc32.Checksum(buf, crcTable) != sum {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrFrame)
	}
	return buf, nil
}

// DecodeRequest parses a request payload (as returned by ReadFrame) into
// req, reusing its slices. Trailing bytes are corruption.
func DecodeRequest(p []byte, req *Request) error {
	if len(p) == 0 {
		return fmt.Errorf("%w: empty request", ErrFrame)
	}
	req.Op = p[0]
	if req.Op == 0 || req.Op > opMax {
		return fmt.Errorf("%w: unknown op %d", ErrFrame, req.Op)
	}
	p = p[1:]
	id, n := binary.Uvarint(p)
	if n <= 0 {
		return fmt.Errorf("%w: request id", ErrFrame)
	}
	req.ID = id
	p = p[n:]
	req.Keys, req.Vals = req.Keys[:0], req.Vals[:0]
	var err error
	switch req.Op {
	case OpPut, OpScan:
		if req.Key, p, err = readVarint(p); err != nil {
			return err
		}
		req.Val, p, err = readVarint(p)
	case OpGet, OpDelete:
		req.Key, p, err = readVarint(p)
	case OpPutBatch:
		req.Keys, req.Vals, p, err = readPairs(p, req.Keys, req.Vals, true)
	case OpDeleteBatch:
		req.Keys, req.Vals, p, err = readPairs(p, req.Keys, req.Vals, false)
	case OpStats, OpCancel:
		// id only
	}
	if err != nil {
		return err
	}
	if len(p) != 0 {
		return fmt.Errorf("%w: %d trailing bytes", ErrFrame, len(p))
	}
	return nil
}

// DecodeResponse parses a response payload into resp, reusing its slices.
// Blob aliases the payload buffer.
func DecodeResponse(p []byte, resp *Response) error {
	if len(p) < 2 {
		return fmt.Errorf("%w: short response", ErrFrame)
	}
	resp.Status, resp.Op = p[0], p[1]
	if resp.Status == 0 || resp.Status > statusMax {
		return fmt.Errorf("%w: unknown status %d", ErrFrame, resp.Status)
	}
	if resp.Op == 0 || resp.Op > opMax {
		return fmt.Errorf("%w: unknown op %d", ErrFrame, resp.Op)
	}
	p = p[2:]
	id, n := binary.Uvarint(p)
	if n <= 0 {
		return fmt.Errorf("%w: response id", ErrFrame)
	}
	resp.ID = id
	p = p[n:]
	resp.Found, resp.Val = false, 0
	resp.Keys, resp.Vals = resp.Keys[:0], resp.Vals[:0]
	resp.Blob, resp.Err = nil, ""
	var err error
	switch resp.Status {
	case StatusBusy:
		// header only
	case StatusErr:
		resp.Err = string(p)
		p = nil
	case StatusScanChunk:
		resp.Keys, resp.Vals, p, err = readPairs(p, resp.Keys, resp.Vals, true)
	case StatusOK:
		switch resp.Op {
		case OpGet:
			if len(p) == 0 {
				return fmt.Errorf("%w: get response", ErrFrame)
			}
			found := p[0]
			p = p[1:]
			if found > 1 {
				return fmt.Errorf("%w: get found byte %d", ErrFrame, found)
			}
			if found == 1 {
				resp.Found = true
				resp.Val, p, err = readVarint(p)
			}
		case OpDelete:
			if len(p) == 0 || p[0] > 1 {
				return fmt.Errorf("%w: delete response", ErrFrame)
			}
			resp.Found = p[0] == 1
			p = p[1:]
		case OpDeleteBatch:
			c, n := binary.Uvarint(p)
			if n <= 0 {
				return fmt.Errorf("%w: delete-batch count", ErrFrame)
			}
			resp.Val = int64(c)
			p = p[n:]
		case OpStats:
			resp.Blob = p
			p = nil
		}
	}
	if err != nil {
		return err
	}
	if len(p) != 0 {
		return fmt.Errorf("%w: %d trailing bytes", ErrFrame, len(p))
	}
	return nil
}

var errVarint = fmt.Errorf("%w: truncated varint", ErrFrame)

// Varints are read with codec's word-at-a-time reader: one implementation,
// one set of overflow rules (binary.Uvarint's).

func unzigzag(x uint64) int64 { return int64(x>>1) ^ -int64(x&1) }

func readVarint(p []byte) (int64, []byte, error) {
	zz, n := codec.Uvarint(p, 0)
	if n == 0 {
		return 0, p, errVarint
	}
	return unzigzag(zz), p[n:], nil
}

// readPairs decodes count | key deltas | fixed-width vals (vals only when
// withVals) into keys and vals, reusing their capacity, and returns the rest
// of p. The count is bounded by the remaining payload before allocating —
// every key costs at least one byte and every value eight — so a crafted
// count cannot force a huge slice.
func readPairs(p []byte, keys, vals []int64, withVals bool) ([]int64, []int64, []byte, error) {
	c, i := codec.Uvarint(p, 0)
	per := uint64(1)
	if withVals {
		per = 9
	}
	if i == 0 || c > uint64(len(p)-i)/per {
		return keys, vals, p, fmt.Errorf("%w: pair count", ErrFrame)
	}
	keys, vals = slices.Grow(keys[:0], int(c))[:c], vals[:0]
	prev := int64(0)
	for j := range keys {
		// A dense ascending run's deltas are one byte each: taking those
		// without the word-at-a-time read halves the decode.
		if i < len(p) && p[i] < 0x80 {
			prev += unzigzag(uint64(p[i]))
			keys[j], i = prev, i+1
			continue
		}
		zz, n := codec.Uvarint(p, i)
		if n == 0 {
			return keys, vals, p, errVarint
		}
		prev += unzigzag(zz)
		keys[j], i = prev, i+n
	}
	if withVals {
		if uint64(len(p)-i) < 8*c {
			return keys, vals, p, fmt.Errorf("%w: truncated value block", ErrFrame)
		}
		vals = slices.Grow(vals, int(c))[:c]
		block := p[i : i+8*int(c)]
		for j := range vals {
			vals[j] = int64(binary.LittleEndian.Uint64(block[8*j:]))
		}
		i += len(block)
	}
	return keys, vals, p[i:], nil
}
