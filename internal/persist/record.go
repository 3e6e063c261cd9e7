package persist

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
)

// WAL record wire format. Each record is framed as
//
//	u32 payload length (little endian)
//	u32 CRC32-C of the payload
//	payload
//
// and the payload is a kind byte followed by zigzag varints:
//
//	KindPut:         key, val
//	KindDelete:      key
//	KindPutBatch:    count, then count keys, then count vals
//	KindDeleteBatch: count, then count keys
//
// Batch records keep the caller's original order and duplicates; recovery
// lets the last of a key's duplicates win, as the batch call did. The
// frame CRC is what
// lets recovery distinguish a torn append (garbage tail) from a valid
// record; the length field is additionally sanity-bounded so a corrupt
// length cannot make the reader allocate gigabytes.
const (
	KindPut byte = iota + 1
	KindDelete
	KindPutBatch
	KindDeleteBatch
)

// maxRecordBytes bounds a single record frame (a batch of ~50M pairs). A
// length above this is treated as corruption, not an allocation request.
const maxRecordBytes = 1 << 30

const frameHeader = 8 // length + crc

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Record is one decoded WAL entry. Keys/Vals alias the decode buffer only
// for the duration of the replay callback.
type Record struct {
	Kind byte
	Keys []int64
	Vals []int64
}

// putUvarint/putVarint append to a byte slice (binary.AppendUvarint spelled
// out for clarity at the call sites).
func appendVarint(b []byte, v int64) []byte   { return binary.AppendVarint(b, v) }
func appendUvarint(b []byte, v uint64) []byte { return binary.AppendUvarint(b, v) }

// encodePut appends a framed KindPut record to b.
func encodePut(b []byte, k, v int64) []byte {
	return frame(b, func(p []byte) []byte {
		p = append(p, KindPut)
		p = appendVarint(p, k)
		p = appendVarint(p, v)
		return p
	})
}

// encodeDelete appends a framed KindDelete record to b.
func encodeDelete(b []byte, k int64) []byte {
	return frame(b, func(p []byte) []byte {
		p = append(p, KindDelete)
		p = appendVarint(p, k)
		return p
	})
}

// encodeBatch appends a framed batch record (vals nil for deletes) to b.
func encodeBatch(b []byte, kind byte, keys, vals []int64) []byte {
	return frame(b, func(p []byte) []byte {
		p = append(p, kind)
		p = appendUvarint(p, uint64(len(keys)))
		for _, k := range keys {
			p = appendVarint(p, k)
		}
		for _, v := range vals {
			p = appendVarint(p, v)
		}
		return p
	})
}

// frame reserves the 8-byte header, lets fill append the payload, then
// back-patches length and CRC.
func frame(b []byte, fill func([]byte) []byte) []byte {
	start := len(b)
	b = append(b, 0, 0, 0, 0, 0, 0, 0, 0)
	b = fill(b)
	payload := b[start+frameHeader:]
	binary.LittleEndian.PutUint32(b[start:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(b[start+4:], crc32.Checksum(payload, crcTable))
	return b
}

// decodeRecord parses one framed record from the front of b, returning the
// record and the total frame size. ok=false means b does not start with a
// complete, checksum-valid record — a torn or corrupt tail from the reader's
// point of view.
func decodeRecord(b []byte, rec *Record) (frameLen int, ok bool) {
	if len(b) < frameHeader {
		return 0, false
	}
	n := binary.LittleEndian.Uint32(b)
	if n == 0 || n > maxRecordBytes || int(n) > len(b)-frameHeader {
		return 0, false
	}
	payload := b[frameHeader : frameHeader+int(n)]
	if crc32.Checksum(payload, crcTable) != binary.LittleEndian.Uint32(b[4:]) {
		return 0, false
	}
	if !decodePayload(payload, rec) {
		return 0, false
	}
	return frameHeader + int(n), true
}

func decodePayload(p []byte, rec *Record) bool {
	if len(p) == 0 {
		return false
	}
	rec.Kind = p[0]
	p = p[1:]
	readVarint := func() (int64, bool) {
		v, n := binary.Varint(p)
		if n <= 0 {
			return 0, false
		}
		p = p[n:]
		return v, true
	}
	switch rec.Kind {
	case KindPut:
		k, ok1 := readVarint()
		v, ok2 := readVarint()
		if !ok1 || !ok2 {
			return false
		}
		rec.Keys = append(rec.Keys[:0], k)
		rec.Vals = append(rec.Vals[:0], v)
	case KindDelete:
		k, ok := readVarint()
		if !ok {
			return false
		}
		rec.Keys = append(rec.Keys[:0], k)
		rec.Vals = rec.Vals[:0]
	case KindPutBatch, KindDeleteBatch:
		c, un := binary.Uvarint(p)
		// Every key costs at least one payload byte, so a count beyond the
		// remaining payload is corruption — checked before allocating, so
		// a crafted count cannot force a multi-GiB slice.
		if un <= 0 || c > uint64(len(p)-un) {
			return false
		}
		p = p[un:]
		n := int(c)
		rec.Keys = growTo(rec.Keys, n)
		for i := 0; i < n; i++ {
			k, ok := readVarint()
			if !ok {
				return false
			}
			rec.Keys[i] = k
		}
		if rec.Kind == KindPutBatch {
			rec.Vals = growTo(rec.Vals, n)
			for i := 0; i < n; i++ {
				v, ok := readVarint()
				if !ok {
					return false
				}
				rec.Vals[i] = v
			}
		} else {
			rec.Vals = rec.Vals[:0]
		}
	default:
		return false
	}
	return len(p) == 0 // trailing payload bytes = corruption
}

func growTo(s []int64, n int) []int64 {
	if cap(s) < n {
		return make([]int64, n)
	}
	return s[:n]
}

func (r *Record) String() string {
	return fmt.Sprintf("persist.Record{kind=%d n=%d}", r.Kind, len(r.Keys))
}
