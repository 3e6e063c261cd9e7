package persist

import (
	"os"
	"path/filepath"
	"testing"

	"pmago/internal/codec"
)

// Fuzz targets for the two decode surfaces that parse bytes a crash (or bit
// rot) may have mangled: the WAL record decoder and the snapshot block
// decoder / loader. Each is seeded from valid encodings and asserts the
// decoder's contract — never panic, never allocate unboundedly, and accept
// only inputs whose decoded form is internally consistent. CI runs each
// target for a short -fuzztime as a smoke test; the seed corpus alone also
// runs under plain `go test`.

func FuzzDecodeRecord(f *testing.F) {
	f.Add(encodePut(nil, 42, -1))
	f.Add(encodeDelete(nil, 1<<40))
	f.Add(encodeBatch(nil, KindPutBatch, []int64{1, 2, 3}, []int64{-1, -2, -3}))
	f.Add(encodeBatch(nil, KindDeleteBatch, []int64{5, 5, 9}, nil))
	f.Add(encodeBatch(nil, KindPutBatch, nil, nil))
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0x7f, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		var rec Record
		n, ok := decodeRecord(data, &rec)
		if !ok {
			return
		}
		if n < codec.FrameHeader || n > len(data) {
			t.Fatalf("decodeRecord consumed %d of %d bytes", n, len(data))
		}
		switch rec.Kind {
		case KindPut:
			if len(rec.Keys) != 1 || len(rec.Vals) != 1 {
				t.Fatalf("KindPut decoded %d keys / %d vals", len(rec.Keys), len(rec.Vals))
			}
		case KindDelete:
			if len(rec.Keys) != 1 || len(rec.Vals) != 0 {
				t.Fatalf("KindDelete decoded %d keys / %d vals", len(rec.Keys), len(rec.Vals))
			}
		case KindPutBatch:
			if len(rec.Keys) != len(rec.Vals) {
				t.Fatalf("KindPutBatch decoded %d keys but %d vals", len(rec.Keys), len(rec.Vals))
			}
		case KindDeleteBatch:
			if len(rec.Vals) != 0 {
				t.Fatalf("KindDeleteBatch decoded %d vals", len(rec.Vals))
			}
		default:
			t.Fatalf("decodeRecord accepted unknown kind %d", rec.Kind)
		}
	})
}

func FuzzDecodeSnapBlock(f *testing.F) {
	seed := func(keys, vals []int64) []byte {
		b := encodeSnapBlock(nil, keys, vals)
		return b[9:] // payload only: frame byte, length and CRC are stripped by the caller
	}
	f.Add(seed([]int64{1}, []int64{-1}))
	f.Add(seed([]int64{-100, 0, 7, 1 << 50}, []int64{1, 2, 3, 4}))
	f.Add([]byte{})
	f.Add([]byte{1, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		keys, vals, err := decodeSnapBlock(data, nil, nil)
		if err != nil {
			return
		}
		if len(keys) != len(vals) || len(keys) == 0 {
			t.Fatalf("accepted block with %d keys / %d vals", len(keys), len(vals))
		}
		for i := 1; i < len(keys); i++ {
			if keys[i] <= keys[i-1] {
				t.Fatalf("accepted block with non-ascending keys: %d after %d", keys[i], keys[i-1])
			}
		}
	})
}

// TestDecodeSnapBlockShortBlockClaimsMany: seven bytes claiming 2^29-1
// pairs must be refused without sizing the output for the claimed count
// (FuzzDecodeSnapBlock's corpus holds the same bytes).
func TestDecodeSnapBlockShortBlockClaimsMany(t *testing.T) {
	p := []byte{0xff, 0xff, 0xff, 0xff, 0x01, 0x02, 0x04}
	keys, vals, err := decodeSnapBlock(p, nil, nil)
	if err == nil {
		t.Fatal("accepted a block too short for its count")
	}
	if cap(keys) > len(p) || cap(vals) > len(p) {
		t.Fatalf("output sized %d/%d pairs for a %d-byte block", cap(keys), cap(vals), len(p))
	}
}

func FuzzLoadSnapshot(f *testing.F) {
	valid := func(pairs int) []byte {
		dir := f.TempDir()
		keys := make([]int64, pairs)
		vals := make([]int64, pairs)
		for i := range keys {
			keys[i] = int64(i) * 3
			vals[i] = int64(i) - 7
		}
		_, _, err := WriteSnapshot(dir, 5, func(yield func(k, v int64) bool) error {
			for i := range keys {
				if !yield(keys[i], vals[i]) {
					break
				}
			}
			return nil
		}, Options{SnapshotBlockEntries: 4})
		if err != nil {
			f.Fatal(err)
		}
		data, err := os.ReadFile(filepath.Join(dir, snapName(5)))
		if err != nil {
			f.Fatal(err)
		}
		return data
	}
	f.Add(valid(0))
	f.Add(valid(1))
	f.Add(valid(10))
	f.Add([]byte(snapMagic))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), snapName(1))
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		keys, vals, _, err := LoadSnapshot(path)
		if err != nil {
			return
		}
		if len(keys) != len(vals) {
			t.Fatalf("accepted snapshot with %d keys / %d vals", len(keys), len(vals))
		}
		for i := 1; i < len(keys); i++ {
			if keys[i] <= keys[i-1] {
				t.Fatalf("accepted snapshot with non-ascending keys: %d after %d", keys[i], keys[i-1])
			}
		}
	})
}
