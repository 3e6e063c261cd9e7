package wire

import (
	"encoding/binary"
	"slices"
	"testing"
)

// The reference decoder: the same payload layouts read with encoding/binary
// alone, one varint at a time. DecodeRequest and DecodeResponse go through
// codec's word-at-a-time reader; on every payload they must accept exactly
// what this accepts and produce the same counts, keys and values.

func refVarint(p []byte) (int64, []byte, bool) {
	v, n := binary.Varint(p)
	if n <= 0 {
		return 0, p, false
	}
	return v, p[n:], true
}

func refPairs(p []byte, withVals bool) (keys, vals []int64, rest []byte, ok bool) {
	c, n := binary.Uvarint(p)
	if n <= 0 || c > uint64(len(p)-n) {
		return nil, nil, p, false
	}
	p = p[n:]
	runs := 1
	if withVals {
		runs = 2
	}
	out := make([][]int64, 2)
	for r := 0; r < runs; r++ {
		for i := uint64(0); i < c; i++ {
			var v int64
			if v, p, ok = refVarint(p); !ok {
				return nil, nil, p, false
			}
			out[r] = append(out[r], v)
		}
	}
	return out[0], out[1], p, true
}

func refRequest(p []byte) (req Request, ok bool) {
	if len(p) == 0 || p[0] == 0 || p[0] > opMax {
		return req, false
	}
	req.Op = p[0]
	id, n := binary.Uvarint(p[1:])
	if n <= 0 {
		return req, false
	}
	req.ID, p = id, p[1+n:]
	ok = true
	switch req.Op {
	case OpPut, OpScan:
		if req.Key, p, ok = refVarint(p); ok {
			req.Val, p, ok = refVarint(p)
		}
	case OpGet, OpDelete:
		req.Key, p, ok = refVarint(p)
	case OpPutBatch:
		req.Keys, req.Vals, p, ok = refPairs(p, true)
	case OpDeleteBatch:
		req.Keys, _, p, ok = refPairs(p, false)
	}
	return req, ok && len(p) == 0
}

// refResponse covers the varint-bearing responses; ok is meaningful only
// when covered is true.
func refResponse(p []byte) (resp Response, covered, ok bool) {
	if len(p) < 2 || p[0] == 0 || p[0] > statusMax || p[1] == 0 || p[1] > opMax {
		return resp, true, false
	}
	resp.Status, resp.Op = p[0], p[1]
	id, n := binary.Uvarint(p[2:])
	if n <= 0 {
		return resp, true, false
	}
	resp.ID, p = id, p[2+n:]
	switch {
	case resp.Status == StatusScanChunk:
		resp.Keys, resp.Vals, p, ok = refPairs(p, true)
	case resp.Status == StatusOK && resp.Op == OpGet:
		if len(p) == 0 || p[0] > 1 {
			return resp, true, false
		}
		resp.Found, p, ok = p[0] == 1, p[1:], true
		if resp.Found {
			resp.Val, p, ok = refVarint(p)
		}
	default:
		return resp, false, false
	}
	return resp, true, ok && len(p) == 0
}

// sameAsReference decodes payload both ways, as a request and as a
// response, and fails on any disagreement.
func sameAsReference(t *testing.T, payload []byte) {
	t.Helper()
	var req Request
	err := DecodeRequest(payload, &req)
	want, ok := refRequest(payload)
	if (err == nil) != ok {
		t.Fatalf("request % x: decoder says %v, reference accepts=%v", payload, err, ok)
	}
	if ok && (req.Op != want.Op || req.ID != want.ID || req.Key != want.Key || req.Val != want.Val ||
		!slices.Equal(req.Keys, want.Keys) || !slices.Equal(req.Vals, want.Vals)) {
		t.Fatalf("request % x:\n decoder   %+v\n reference %+v", payload, req, want)
	}
	var resp Response
	err = DecodeResponse(payload, &resp)
	wantR, covered, ok := refResponse(payload)
	if !covered {
		return
	}
	if (err == nil) != ok {
		t.Fatalf("response % x: decoder says %v, reference accepts=%v", payload, err, ok)
	}
	if ok && (resp.ID != wantR.ID || resp.Found != wantR.Found || resp.Val != wantR.Val ||
		!slices.Equal(resp.Keys, wantR.Keys) || !slices.Equal(resp.Vals, wantR.Vals)) {
		t.Fatalf("response % x:\n decoder   %+v\n reference %+v", payload, resp, wantR)
	}
}

// TestVarintNearPayloadEnd walks the word-at-a-time reader's three regimes
// (a whole word available, ten bytes available, the tail): a varint of every
// length 1–10, canonical and zero-padded, sits 0–9 bytes before the end of
// the payload, as a batch key and as a chunk key. The overflow forms — an
// eleventh byte, a tenth byte above 1 — must be rejected wherever they sit,
// exactly as binary.Uvarint rejects them.
func TestVarintNearPayloadEnd(t *testing.T) {
	var forms [][]byte
	for n := 1; n <= binary.MaxVarintLen64; n++ {
		canonical := binary.AppendUvarint(nil, 1<<(7*uint(n-1)))
		if len(canonical) != n {
			t.Fatalf("%d-byte form is %d bytes", n, len(canonical))
		}
		padded := make([]byte, n) // the value 5 in n bytes
		padded[0] = 5
		for i := 0; i < n-1; i++ {
			padded[i] |= 0x80
		}
		forms = append(forms, canonical, padded)
	}
	full := func(last ...byte) []byte {
		return append([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}, last...)
	}
	overflow := [][]byte{
		full(0x02),       // tenth byte above 1
		full(0x7f),       // tenth byte above 1, all bits
		full(0x81, 0x00), // eleventh byte
		full(0xff, 0x01), // eleventh byte
	}
	accepted := 0
	for _, form := range append(forms, overflow...) {
		for after := 0; after <= 9; after++ {
			// DeleteBatch: count | form | `after` one-byte keys.
			req := []byte{OpDeleteBatch, 7, byte(1 + after)}
			req = append(req, form...)
			req = append(req, make([]byte, after)...)
			sameAsReference(t, req)
			// Scan chunk of one pair: key = form, value = `after` bytes.
			if after == 0 {
				continue
			}
			chunk := []byte{StatusScanChunk, OpScan, 7, 1}
			chunk = append(chunk, form...)
			chunk = append(chunk, binary.AppendUvarint(nil, 1<<(7*uint(after-1)))...)
			sameAsReference(t, chunk)
			var resp Response
			if DecodeResponse(chunk, &resp) == nil {
				accepted++
			}
		}
	}
	if want := len(forms) * 9; accepted != want {
		t.Fatalf("%d chunks accepted, want the %d well-formed ones and no overflow form", accepted, want)
	}
}
