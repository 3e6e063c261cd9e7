package persist

import (
	"fmt"

	"pmago/internal/codec"
)

// WAL record wire format. Each record is one codec frame (payload length,
// CRC32-C of the payload, payload), and the payload is a kind byte followed
// by zigzag varints:
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

// Record is one decoded WAL entry. Keys/Vals alias the decode buffer only
// for the duration of the replay callback.
type Record struct {
	Kind byte
	Keys []int64
	Vals []int64
}

// The varints are codec's word-at-a-time writer's, the bytes
// binary.AppendVarint writes.

// encodePut appends a framed KindPut record to b.
func encodePut(b []byte, k, v int64) []byte {
	return codec.AppendFrame(b, func(p []byte) []byte {
		p = append(p, KindPut)
		p = codec.AppendVarint(p, k)
		p = codec.AppendVarint(p, v)
		return p
	})
}

// encodeDelete appends a framed KindDelete record to b.
func encodeDelete(b []byte, k int64) []byte {
	return codec.AppendFrame(b, func(p []byte) []byte {
		p = append(p, KindDelete)
		p = codec.AppendVarint(p, k)
		return p
	})
}

// encodeBatch appends a framed batch record (vals nil for deletes) to b.
func encodeBatch(b []byte, kind byte, keys, vals []int64) []byte {
	return codec.AppendFrame(b, func(p []byte) []byte {
		p = append(p, kind)
		p = codec.AppendUvarint(p, uint64(len(keys)))
		for _, k := range keys {
			p = codec.AppendVarint(p, k)
		}
		for _, v := range vals {
			p = codec.AppendVarint(p, v)
		}
		return p
	})
}

// decodeRecord parses one framed record from the front of b, returning the
// record and the total frame size. ok=false means b does not start with a
// complete, checksum-valid record — a torn or corrupt tail from the reader's
// point of view.
func decodeRecord(b []byte, rec *Record) (frameLen int, ok bool) {
	payload, ok := codec.NextFrame(b, maxRecordBytes)
	if !ok || !decodePayload(payload, rec) {
		return 0, false
	}
	return codec.FrameHeader + len(payload), true
}

func decodePayload(p []byte, rec *Record) bool {
	if len(p) == 0 {
		return false
	}
	rec.Kind = p[0]
	p = p[1:]
	readVarint := func() (int64, bool) {
		v, n := codec.Varint(p, 0)
		if n == 0 {
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
		c, un := codec.Uvarint(p, 0)
		// Every key costs at least one payload byte, so a count beyond the
		// remaining payload is corruption — checked before allocating, so
		// a crafted count cannot force a multi-GiB slice.
		if un == 0 || c > uint64(len(p)-un) {
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
