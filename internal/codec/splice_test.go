package codec

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// refDecodeBlock is the decoder DecodeBlock replaced, one binary.Uvarint per
// varint: the reference the word-at-a-time decoder must agree with, error for
// error and partial prefix for partial prefix.
func refDecodeBlock(p []byte, keys, vals []int64, maxPairs int) ([]int64, []int64, error) {
	c, un := binary.Uvarint(p)
	if un <= 0 || c == 0 || c > uint64(maxPairs) {
		return keys, vals, ErrCount
	}
	k, vn := binary.Varint(p[un:])
	if vn <= 0 {
		return keys, vals, ErrFirstKey
	}
	keys = append(keys, k)
	i := un + vn
	for j := 1; j < int(c); j++ {
		d, dn := binary.Uvarint(p[i:])
		if dn <= 0 || d == 0 {
			return keys, vals, ErrDelta
		}
		if k+int64(d) <= k {
			return keys, vals, ErrOverflow
		}
		k += int64(d)
		keys = append(keys, k)
		i += dn
	}
	for j := 0; j < int(c); j++ {
		v, vn := binary.Varint(p[i:])
		if vn <= 0 {
			return keys, vals, ErrValue
		}
		vals = append(vals, v)
		i += vn
	}
	if i != len(p) {
		return keys, vals, ErrTrailing
	}
	return keys, vals, nil
}

// sameAsReference fails the test unless DecodeBlock and the reference agree
// on p: same error, same pairs, same partial prefix on error.
func sameAsReference(t *testing.T, p []byte, maxPairs int) {
	t.Helper()
	gk, gv, gerr := DecodeBlock(p, nil, nil, maxPairs)
	wk, wv, werr := refDecodeBlock(p, nil, nil, maxPairs)
	if gerr != werr {
		t.Fatalf("%x: DecodeBlock error %v, reference %v", p, gerr, werr)
	}
	if !slices.Equal(gk, wk) || !slices.Equal(gv, wv) {
		t.Fatalf("%x (%v): DecodeBlock returned %d keys / %d vals, reference %d / %d, or they differ",
			p, gerr, len(gk), len(gv), len(wk), len(wv))
	}
}

// TestDecodeMatchesReference drives both decoders over valid blocks of every
// varint width, every truncation of them, single-byte corruptions and
// hand-built overlong varints.
func TestDecodeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for round := 0; round < 300; round++ {
		n := 1 + rng.Intn(40)
		keys, vals := make([]int64, n), make([]int64, n)
		k := rng.Int63n(1<<40) - 1<<39
		for i := range keys {
			k += 1 + rng.Int63()>>uint(rng.Intn(63)) // gaps of every width
			keys[i] = k
			vals[i] = (rng.Int63() - rng.Int63()) >> uint(rng.Intn(64))
		}
		if keys[n-1] < keys[0] { // wrapped: keep the block encodable
			continue
		}
		p := AppendBlock(nil, keys, vals)
		sameAsReference(t, p, n)
		sameAsReference(t, p, n-1)
		for cut := 0; cut < len(p); cut++ {
			sameAsReference(t, p[:cut], n)
		}
		for m := 0; m < 64; m++ {
			q := bytes.Clone(p)
			q[rng.Intn(len(q))] ^= byte(1 << uint(rng.Intn(8)))
			if rng.Intn(4) == 0 {
				q = append(q, byte(rng.Intn(256)))
			}
			sameAsReference(t, q, n)
		}
	}
	ff := bytes.Repeat([]byte{0xff}, 12)
	for _, p := range [][]byte{
		append([]byte{1}, append(bytes.Clone(ff[:9]), 0x01, 0)...),       // 10-byte first key, 10th byte 1
		append([]byte{1}, append(bytes.Clone(ff[:9]), 0x02, 0)...),       // 10th byte 2: overflow
		append([]byte{1}, append(bytes.Clone(ff[:10]), 0x00, 0)...),      // 11 bytes
		append([]byte{2, 0}, append(bytes.Clone(ff[:9]), 0x01, 0, 0)...), // gap 2^64-1: wraps
		append([]byte{2, 0}, append(bytes.Clone(ff[:9]), 0x7f, 0, 0)...), // gap overflows
		{2, 0, 0x80, 0x00, 0, 0},             // padded zero gap
		{2, 0, 0x81, 0x00, 0, 0},             // padded gap of 1
		{0x81, 0x00, 0, 0},                   // padded count
		{1, 0, 0xff, 0xff, 0xff},             // value cut short near the end
		{1, 0, 0x80, 0x80, 0x80, 0x80, 0x00}, // padded value
		append([]byte{1, 0}, ff...),          // value never ends
	} {
		sameAsReference(t, p, 4)
	}
}

// model is a sorted run of pairs, the oracle of the splice tests.
type model struct{ ks, vs []int64 }

func (m *model) upsert(k, v int64) {
	i, found := slices.BinarySearch(m.ks, k)
	if found {
		m.vs[i] = v
		return
	}
	m.ks = slices.Insert(m.ks, i, k)
	m.vs = slices.Insert(m.vs, i, v)
}

func (m *model) remove(k int64) bool {
	i, found := slices.BinarySearch(m.ks, k)
	if found {
		m.ks = slices.Delete(m.ks, i, i+1)
		m.vs = slices.Delete(m.vs, i, i+1)
	}
	return found
}

// checkSeek compares Seek on block p with the model for key k.
func checkSeek(t *testing.T, p []byte, m *model, k int64, maxPairs int) {
	t.Helper()
	c, err := Seek(p, k, maxPairs)
	if err != nil {
		t.Fatalf("Seek(%d): %v", k, err)
	}
	i, found := slices.BinarySearch(m.ks, k)
	if c.N != len(m.ks) || c.Rank != i || c.Found != found || (found && c.Val != m.vs[i]) {
		t.Fatalf("Seek(%d) = N %d rank %d found %v val %d; model has %d pairs, rank %d, found %v",
			k, c.N, c.Rank, c.Found, c.Val, len(m.ks), i, found)
	}
}

// TestSpliceMatchesAppendBlock is the canonical-form property: after every
// one of thousands of random in-place edits the buffer is byte for byte what
// AppendBlock writes for the model's pairs, DecodeBlock accepts it, and Seek
// agrees with the model on hits and on misses below, between and above. Keys
// are negative and positive with gaps of every varint width, values flip
// between one and ten bytes, the pair count crosses the 127 -> 128 count
// width several times, and a block that does not fit is regrown either to
// exactly the length asked for (so the edit lands in a full buffer) or with
// slack; a refused edit must leave the buffer as it was.
func TestSpliceMatchesAppendBlock(t *testing.T) {
	const maxPairs = 160
	rng := rand.New(rand.NewSource(21))
	val := func() int64 {
		switch rng.Intn(3) {
		case 0:
			return int64(rng.Intn(64)) - 32 // one byte
		case 1:
			return math.MinInt64 + rng.Int63n(1<<20) // ten bytes
		}
		return rng.Int63() - rng.Int63()
	}
	m := &model{ks: []int64{-7}, vs: []int64{3}}
	buf := AppendBlock(nil, m.ks, m.vs)
	n := len(buf)
	// The script leans towards inserts until the block is nearly full, then
	// towards removals until it is nearly empty, and so on.
	growing := true
	var inserted, replaced, removed, regrown, crossed int
	for step := 0; step < 12_000; step++ {
		if len(m.ks) >= maxPairs-2 {
			growing = false
		} else if len(m.ks) <= 2 {
			growing = true
		}
		was := len(m.ks)
		before := bytes.Clone(buf)
		var k int64
		switch pick := rng.Intn(10); {
		case pick < 2: // an existing key
			k = m.ks[rng.Intn(len(m.ks))]
		case pick == 2: // below the first key
			k = m.ks[0] - 1 - rng.Int63()>>uint(2+rng.Intn(61))
		case pick == 3: // above the last key
			k = m.ks[len(m.ks)-1] + 1 + rng.Int63()>>uint(2+rng.Intn(61))
		case pick == 4: // first or last key itself
			k = m.ks[rng.Intn(2)*(len(m.ks)-1)]
		default: // between two neighbours, when they leave room
			i := rng.Intn(len(m.ks))
			k = m.ks[i] + 1
		}
		if k <= math.MinInt64/2 || k >= math.MaxInt64/2 {
			k = int64(rng.Intn(1 << 20)) // stay clear of gaps the format cannot hold
		}
		del := rng.Intn(10) < 3
		if !growing {
			del = rng.Intn(10) < 7
		}
		if del {
			want := m.remove(k)
			r := Remove(buf, n, k, maxPairs)
			if !want {
				if r.Status != Missing || !bytes.Equal(buf, before) {
					t.Fatalf("step %d: Remove of absent %d: status %v, buffer changed %v", step, k, r.Status, !bytes.Equal(buf, before))
				}
				continue
			}
			if r.Status != Removed || r.Len >= n {
				t.Fatalf("step %d: Remove(%d) = %+v on %d bytes", step, k, r, n)
			}
			n = r.Len
			removed++
			if len(m.ks) == 0 { // emptied: the block is gone, start a new one
				if n != 0 {
					t.Fatalf("step %d: removing the last pair left %d bytes", step, n)
				}
				m.upsert(k, 1)
				buf = AppendBlock(buf[:0], m.ks, m.vs)
				n = len(buf)
				buf = buf[:cap(buf)]
				continue
			}
			if r.First != m.ks[0] {
				t.Fatalf("step %d: Remove reports first key %d, model %d", step, r.First, m.ks[0])
			}
		} else {
			v := val()
			if _, found := slices.BinarySearch(m.ks, k); !found && len(m.ks) == maxPairs {
				if r := Upsert(buf, n, k, v, maxPairs); r.Status != Full || !bytes.Equal(buf, before) {
					t.Fatalf("step %d: insert into a full block: %+v, buffer changed %v", step, r, !bytes.Equal(buf, before))
				}
				continue
			}
			m.upsert(k, v)
			r := Upsert(buf, n, k, v, maxPairs)
			if r.Status == NoFit {
				if !bytes.Equal(buf, before) {
					t.Fatalf("step %d: NoFit changed the buffer", step)
				}
				if r.Len <= len(buf) {
					t.Fatalf("step %d: NoFit asks for %d bytes, buffer has %d", step, r.Len, len(buf))
				}
				grown := make([]byte, r.Len+rng.Intn(2)*rng.Intn(64))
				copy(grown, buf[:n])
				buf = grown
				regrown++
				r = Upsert(buf, n, k, v, maxPairs)
			}
			switch {
			case r.Status == Inserted && len(m.ks) == was+1:
				inserted++
			case r.Status == Replaced && len(m.ks) == was:
				replaced++
			default:
				t.Fatalf("step %d: Upsert(%d) = %+v, model went %d -> %d pairs", step, k, r, was, len(m.ks))
			}
			if r.First != m.ks[0] {
				t.Fatalf("step %d: Upsert reports first key %d, model %d", step, r.First, m.ks[0])
			}
			if r.Written <= 0 || r.Written > r.Len {
				t.Fatalf("step %d: Upsert wrote %d bytes into a %d-byte block", step, r.Written, r.Len)
			}
			n = r.Len
		}
		if was < 128 != (len(m.ks) < 128) {
			crossed++
		}
		want := AppendBlock(nil, m.ks, m.vs)
		if !bytes.Equal(buf[:n], want) {
			t.Fatalf("step %d (key %d, delete %v): block is not canonical\n got  %x\n want %x", step, k, del, buf[:n], want)
		}
		if _, _, err := DecodeBlock(buf[:n], nil, nil, maxPairs); err != nil {
			t.Fatalf("step %d: DecodeBlock rejects the spliced block: %v", step, err)
		}
		i := rng.Intn(len(m.ks))
		checkSeek(t, buf[:n], m, m.ks[i], maxPairs)
		checkSeek(t, buf[:n], m, m.ks[i]+1, maxPairs)
		checkSeek(t, buf[:n], m, m.ks[0], maxPairs)
		checkSeek(t, buf[:n], m, m.ks[0]-1, maxPairs)
		checkSeek(t, buf[:n], m, m.ks[len(m.ks)-1], maxPairs)
		checkSeek(t, buf[:n], m, m.ks[len(m.ks)-1]+1, maxPairs)
		checkSeek(t, buf[:n], m, math.MinInt64, maxPairs)
		checkSeek(t, buf[:n], m, math.MaxInt64, maxPairs)
	}
	if inserted < 1000 || replaced < 500 || removed < 1000 || regrown < 10 || crossed < 4 {
		t.Fatalf("script too tame: %d inserts, %d replaces, %d removes, %d regrows, %d crossings of 128 pairs",
			inserted, replaced, removed, regrown, crossed)
	}

	// A full block refuses a new key and still takes a replacement.
	for len(m.ks) < maxPairs {
		m.upsert(m.ks[len(m.ks)-1]+3, 0)
	}
	buf = AppendBlock(nil, m.ks, m.vs)
	before := bytes.Clone(buf)
	if r := Upsert(buf, len(buf), m.ks[5]+1, 1, maxPairs); r.Status != Full || !bytes.Equal(buf, before) {
		t.Fatalf("insert into a full block: %+v, buffer changed %v", r, !bytes.Equal(buf, before))
	}
	if r := Upsert(buf, len(buf), m.ks[5], m.vs[5]^1, maxPairs); r.Status != Replaced || r.Len != len(buf) {
		t.Fatalf("same-width replace in a full block: %+v", r)
	}
}

// TestSpliceDoesNotAllocate: the edit's scratch varints stay on the stack.
func TestSpliceDoesNotAllocate(t *testing.T) {
	keys, vals := make([]int64, 64), make([]int64, 64)
	for i := range keys {
		keys[i], vals[i] = int64(i)*16, math.MinInt64+int64(i)
	}
	buf := append(AppendBlock(nil, keys, vals), make([]byte, 64)...)
	n := len(buf) - 64
	if avg := testing.AllocsPerRun(200, func() {
		n = Upsert(buf, n, 16*20+1, -1, 128).Len
		if _, err := Seek(buf[:n], 16*20+1, 128); err != nil {
			t.Fatal(err)
		}
		n = Remove(buf, n, 16*20+1, 128).Len
	}); avg != 0 {
		t.Fatalf("Upsert + Seek + Remove allocate %.1f objects", avg)
	}
}

// benchBlocks builds nb different blocks of per pairs each, shaped like the
// benchmark's stores: key gaps around 16, random 64-bit values. Cycling
// through many blocks keeps the branch predictor from learning one block's
// nine-or-ten-byte value pattern, which a single-block loop would flatter.
func benchBlocks(nb, per, spare int) [][]byte {
	rng := rand.New(rand.NewSource(1))
	keys, vals := make([]int64, per), make([]int64, per)
	blocks := make([][]byte, nb)
	for b := range blocks {
		for i := range keys {
			keys[i] = 16*int64(b*per+i) + 2*rng.Int63n(8)
			vals[i] = int64(rng.Uint64())
		}
		blocks[b] = append(AppendBlock(nil, keys, vals), make([]byte, spare)...)
	}
	return blocks
}

func BenchmarkDecodeBlockRandomValues(b *testing.B) {
	const per = 128
	blocks := benchBlocks(4096, per, 0)
	dk, dv := make([]int64, 0, per), make([]int64, 0, per)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := DecodeBlock(blocks[i%len(blocks)], dk, dv, per); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSeek(b *testing.B) {
	const per = 64
	blocks := benchBlocks(8192, per, 0)
	rng := rand.New(rand.NewSource(2))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i % len(blocks)
		if _, err := Seek(blocks[j], 16*int64(j*per+rng.Intn(per)), per); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkUpsertRemove(b *testing.B) {
	const per, spare = 64, 32
	blocks := benchBlocks(8192, per, spare)
	rng := rand.New(rand.NewSource(2))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i % len(blocks)
		buf, k := blocks[j], 16*int64(j*per+rng.Intn(per))+1 // odd: never stored
		n := len(buf) - spare
		if r := Upsert(buf, n, k, int64(rng.Uint64()), per+1); r.Status != Inserted {
			b.Fatal(r)
		} else if r = Remove(buf, r.Len, k, per+1); r.Status != Removed || r.Len != n {
			b.Fatal(r)
		}
	}
}
