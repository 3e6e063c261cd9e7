package wire

import (
	"bytes"
	"math"
	"testing"

	"pmago/internal/codec"
)

// FuzzDecodeFrame drives the full receive path — frame read (length bound,
// CRC) then payload decode, both directions — with arbitrary bytes. The
// decoder's contract mirrors the WAL's: never panic, never allocate
// proportionally to a corrupt length or count, and when a request decodes
// successfully its re-encoding must decode to the same thing. Every count,
// key and value it decodes must be what the encoding/binary reference
// (reference_test.go) reads from the same payload, and it must reject what
// the reference rejects.
func FuzzDecodeFrame(f *testing.F) {
	f.Add(AppendRequest(nil, &Request{Op: OpPut, ID: 1, Key: -5, Val: 7}))
	f.Add(AppendRequest(nil, &Request{Op: OpGet, ID: 2, Key: 9}))
	f.Add(AppendRequest(nil, &Request{Op: OpPutBatch, ID: 3, Keys: []int64{1, 2}, Vals: []int64{3, 4}}))
	f.Add(AppendRequest(nil, &Request{Op: OpDeleteBatch, ID: 4, Keys: []int64{1, 2, 3}}))
	f.Add(AppendRequest(nil, &Request{Op: OpScan, ID: 5, Key: -100, Val: 100}))
	f.Add(AppendResponse(nil, &Response{Status: StatusOK, Op: OpGet, ID: 6, Found: true, Val: 42}))
	f.Add(AppendResponse(nil, &Response{Status: StatusScanChunk, Op: OpScan, ID: 7, Keys: []int64{1}, Vals: []int64{2}}))
	f.Add(AppendResponse(nil, &Response{Status: StatusErr, Op: OpPut, ID: 8, Err: "x"}))
	// The pair layout's edges: an unsorted batch (negative deltas), the
	// extreme keys next to each other (deltas that wrap), a multi-byte
	// delta, and a chunk whose value block is one byte short, framed with
	// a good CRC so the decoder sees it and must reject it.
	f.Add(AppendRequest(nil, &Request{Op: OpPutBatch, ID: 9, Keys: []int64{50, -3, 7, 7, -90}, Vals: []int64{1, -1, 1 << 40, 0, -1 << 62}}))
	f.Add(AppendRequest(nil, &Request{Op: OpDeleteBatch, ID: 10, Keys: []int64{math.MinInt64 + 1, math.MaxInt64 - 1, math.MinInt64 + 1}}))
	f.Add(AppendResponse(nil, &Response{Status: StatusScanChunk, Op: OpScan, ID: 11, Keys: []int64{1, 1 + 1<<20, 2 + 1<<20}, Vals: []int64{3, 4, 5}}))
	good := AppendResponse(nil, &Response{Status: StatusScanChunk, Op: OpScan, ID: 12, Keys: []int64{16, 32}, Vals: []int64{-1, 1}})
	f.Add(codec.AppendFrame(nil, func(p []byte) []byte { return append(p, good[codec.FrameHeader:len(good)-1]...) }))
	f.Fuzz(func(t *testing.T, data []byte) {
		// The bytes as a bare payload too: behind the CRC the fuzzer rarely
		// gets a mutated payload as far as the decoders.
		sameAsReference(t, data)
		payload, err := ReadFrame(bytes.NewReader(data), nil)
		if err != nil {
			return
		}
		sameAsReference(t, payload)
		var req Request
		if DecodeRequest(payload, &req) == nil {
			re := AppendRequest(nil, &req)
			p2, err := ReadFrame(bytes.NewReader(re), nil)
			if err != nil {
				t.Fatalf("re-encoded request frame unreadable: %v", err)
			}
			var req2 Request
			if err := DecodeRequest(p2, &req2); err != nil {
				t.Fatalf("re-encoded request undecodable: %v", err)
			}
			if req.Op != req2.Op || req.ID != req2.ID || len(req.Keys) != len(req2.Keys) {
				t.Fatalf("request re-encode mismatch: %+v vs %+v", req, req2)
			}
		}
		var resp Response
		if DecodeResponse(payload, &resp) == nil {
			re := AppendResponse(nil, &resp)
			if _, err := ReadFrame(bytes.NewReader(re), nil); err != nil {
				t.Fatalf("re-encoded response frame unreadable: %v", err)
			}
		}
	})
}
