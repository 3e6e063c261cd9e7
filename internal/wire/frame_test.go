package wire

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
)

// TestRequestRoundTrip encodes random requests of every op and decodes
// them back, via the same ReadFrame path the server uses.
func TestRequestRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	ops := []byte{OpPut, OpGet, OpDelete, OpPutBatch, OpDeleteBatch, OpScan, OpStats, OpCancel}
	for i := 0; i < 2000; i++ {
		op := ops[rng.Intn(len(ops))]
		req := Request{Op: op, ID: rng.Uint64() >> uint(rng.Intn(64))}
		switch op {
		case OpPut, OpScan:
			req.Key, req.Val = rng.Int63()-rng.Int63(), rng.Int63()-rng.Int63()
		case OpGet, OpDelete:
			req.Key = rng.Int63() - rng.Int63()
		case OpPutBatch, OpDeleteBatch:
			n := rng.Intn(50)
			for j := 0; j < n; j++ {
				req.Keys = append(req.Keys, rng.Int63()-rng.Int63())
				if op == OpPutBatch {
					req.Vals = append(req.Vals, rng.Int63()-rng.Int63())
				}
			}
		}
		frame := AppendRequest(nil, &req)
		payload, err := ReadFrame(bytes.NewReader(frame), nil)
		if err != nil {
			t.Fatalf("op %d: ReadFrame: %v", op, err)
		}
		var got Request
		if err := DecodeRequest(payload, &got); err != nil {
			t.Fatalf("op %d: DecodeRequest: %v", op, err)
		}
		normalize := func(r *Request) {
			if len(r.Keys) == 0 {
				r.Keys = nil
			}
			if len(r.Vals) == 0 {
				r.Vals = nil
			}
		}
		normalize(&req)
		normalize(&got)
		if !reflect.DeepEqual(req, got) {
			t.Fatalf("op %d: round trip\n sent %+v\n got  %+v", op, req, got)
		}
	}
}

// TestResponseRoundTrip does the same for every status/op combination the
// server emits.
func TestResponseRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	cases := []Response{
		{Status: StatusOK, Op: OpPut},
		{Status: StatusOK, Op: OpPutBatch},
		{Status: StatusOK, Op: OpGet, Found: true, Val: -12345},
		{Status: StatusOK, Op: OpGet, Found: false},
		{Status: StatusOK, Op: OpDelete, Found: true},
		{Status: StatusOK, Op: OpDelete, Found: false},
		{Status: StatusOK, Op: OpDeleteBatch, Val: 9999},
		{Status: StatusOK, Op: OpScan},
		{Status: StatusOK, Op: OpStats, Blob: []byte(`{"durable":true}`)},
		{Status: StatusBusy, Op: OpPut},
		{Status: StatusErr, Op: OpScan, Err: "store: sick"},
		{Status: StatusScanChunk, Op: OpScan, Keys: []int64{1, -2, 3}, Vals: []int64{4, 5, -6}},
	}
	for i, resp := range cases {
		resp.ID = rng.Uint64() >> uint(rng.Intn(64))
		frame := AppendResponse(nil, &resp)
		payload, err := ReadFrame(bytes.NewReader(frame), nil)
		if err != nil {
			t.Fatalf("case %d: ReadFrame: %v", i, err)
		}
		var got Response
		if err := DecodeResponse(payload, &got); err != nil {
			t.Fatalf("case %d: DecodeResponse: %v", i, err)
		}
		normalize := func(r *Response) {
			if len(r.Keys) == 0 {
				r.Keys = nil
			}
			if len(r.Vals) == 0 {
				r.Vals = nil
			}
			if len(r.Blob) == 0 {
				r.Blob = nil
			}
		}
		normalize(&resp)
		normalize(&got)
		if !reflect.DeepEqual(resp, got) {
			t.Fatalf("case %d: round trip\n sent %+v\n got  %+v", i, resp, got)
		}
	}
}

// TestFrameCorruption flips every byte of a valid frame and checks the
// reader rejects the mutation (or yields a decodable but different frame —
// never a crash, never a silent identical decode for header corruption).
func TestFrameCorruption(t *testing.T) {
	req := Request{Op: OpPutBatch, ID: 7, Keys: []int64{1, 2, 3}, Vals: []int64{4, 5, 6}}
	frame := AppendRequest(nil, &req)
	for i := range frame {
		for _, flip := range []byte{0x01, 0x80} {
			mut := append([]byte(nil), frame...)
			mut[i] ^= flip
			payload, err := ReadFrame(bytes.NewReader(mut), nil)
			if err != nil {
				continue // detected: good
			}
			var got Request
			if err := DecodeRequest(payload, &got); err != nil {
				continue // detected at decode: good
			}
			t.Fatalf("byte %d flip %#x: corruption not detected (got %+v)", i, flip, got)
		}
	}
}

// TestReadFrameTruncation feeds every strict prefix of a valid frame.
func TestReadFrameTruncation(t *testing.T) {
	frame := AppendRequest(nil, &Request{Op: OpPut, ID: 1, Key: 2, Val: 3})
	for n := 1; n < len(frame); n++ {
		if _, err := ReadFrame(bytes.NewReader(frame[:n]), nil); err == nil {
			t.Fatalf("prefix of %d/%d bytes: expected error", n, len(frame))
		}
	}
}

// BenchmarkScanChunk prices one 1024-pair scan chunk the way the served
// path pays for it: encode into a buffer that held the previous chunk, then
// frame read and decode into slices that did. Keys are PMA-like (ascending,
// gaps near 16), values random 64-bit. ns/pair and B/pair (the frame's
// bytes) read the pair layout's cost directly.
func BenchmarkScanChunk(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	keys := make([]int64, 1024)
	vals := make([]int64, len(keys))
	for i := range keys {
		keys[i] = int64(1<<20 + 16*i + rng.Intn(16))
		vals[i] = int64(rng.Uint64())
	}
	chunk := Response{Status: StatusScanChunk, Op: OpScan, ID: 1, Keys: keys, Vals: vals}
	perPair := func(b *testing.B, frame []byte) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(keys)), "ns/pair")
		b.ReportMetric(float64(len(frame))/float64(len(keys)), "B/pair")
	}
	b.Run("encode", func(b *testing.B) {
		var frame []byte
		for i := 0; i < b.N; i++ {
			frame = AppendResponse(frame[:0], &chunk)
		}
		perPair(b, frame)
	})
	b.Run("encode-nil", func(b *testing.B) {
		b.ReportAllocs()
		var frame []byte
		for i := 0; i < b.N; i++ {
			frame = AppendResponse(nil, &chunk)
		}
		perPair(b, frame)
	})
	b.Run("decode", func(b *testing.B) {
		frame := AppendResponse(nil, &chunk)
		var buf []byte
		var resp Response
		rd := bytes.NewReader(frame)
		for i := 0; i < b.N; i++ {
			rd.Reset(frame)
			p, err := ReadFrame(rd, buf)
			if err == nil {
				err = DecodeResponse(p, &resp)
			}
			if err != nil {
				b.Fatal(err)
			}
			buf = p
		}
		perPair(b, frame)
	})
}
