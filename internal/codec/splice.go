package codec

import (
	"encoding/binary"
	"math/bits"
)

// Point operations on an encoded block, without decoding it (the package
// comment says why the edits are canonical and what a racy reader may see).
// An edit stores at most three new varints — a new key splits one gap into
// two, or becomes the first key and turns the old one into a gap; a removed
// key fuses two gaps; the value and the count are rewritten — and moves every
// other byte as it is.
//
// Seek stops at the target, so unlike DecodeBlock it does not vouch for the
// rest of the block; Upsert and Remove are for blocks the caller knows to be
// well formed (core calls them under the exclusive latch). On bytes that are
// not, they still never write outside buf.

// Cursor is where a key sits in an encoded block, or where it would go.
type Cursor struct {
	N     int   // pairs in the block
	Rank  int   // keys below the target: its index when Found, else its insertion index
	Found bool  // the target is in the block
	Val   int64 // its value, when Found

	first, prev, next int64 // key[0], key[Rank-1] (Rank > 0) and key[Rank] (Rank < N)
	cntEnd            int   // end of the count varint
	// keyOff:keyEnd is the varint that places key[Rank] — the first key for
	// Rank 0, else the gap from key[Rank-1] — and empty, at the start of the
	// values, for Rank N. valOff:valEnd is key[Rank]'s value, empty (the
	// insertion point) when the key is absent.
	keyOff, keyEnd int
	valOff, valEnd int
}

// Seek locates k in block p. It walks the key gaps until the running key
// reaches k, then passes over the remaining gaps and the values below the
// target's by counting terminator bytes, never decoding them.
func Seek(p []byte, k int64, maxPairs int) (Cursor, error) {
	cnt, cn := Uvarint(p, 0)
	if cn == 0 || cnt == 0 || cnt > uint64(maxPairs) {
		return Cursor{}, ErrCount
	}
	zz, fn := Uvarint(p, cn)
	if fn == 0 {
		return Cursor{}, ErrFirstKey
	}
	n, first := int(cnt), unzigzag(zz)
	// key[rank] is cur, placed by the varint p[off:i]; prev is key[rank-1].
	rank, off, i := 0, cn, cn+fn
	prev, cur := int64(0), first
	for cur < k && rank+1 < n {
		var d uint64
		dn := 1
		if i < len(p) && p[i] < 0x80 { // 1-byte gap: the dense-run fast path
			d = uint64(p[i])
		} else if d, dn = Uvarint(p, i); dn == 0 {
			return Cursor{}, ErrDelta
		}
		if d == 0 {
			return Cursor{}, ErrDelta
		}
		nk := cur + int64(d)
		if nk <= cur {
			return Cursor{}, ErrOverflow
		}
		prev, cur = cur, nk
		off = i
		i += dn
		rank++
	}
	c := Cursor{N: n, Rank: rank, first: first, prev: prev, next: cur, cntEnd: cn, keyOff: off, keyEnd: i}
	if cur < k { // every key is below k, and every gap is behind i
		c.Rank, c.prev, c.keyOff = n, cur, i
	} else {
		c.Found = cur == k
		if i = skip(p, i, n-1-rank); i < 0 {
			return Cursor{}, ErrDelta
		}
	}
	if i = skip(p, i, c.Rank); i < 0 {
		return Cursor{}, ErrValue
	}
	c.valOff, c.valEnd = i, i
	if c.Found {
		zz, vn := Uvarint(p, i)
		if vn == 0 {
			return Cursor{}, ErrValue
		}
		c.Val, c.valEnd = unzigzag(zz), i+vn
	}
	return c, nil
}

// skip returns the offset just past the cnt varints that start at p[i], or
// -1 when p ends first. It counts terminator bytes eight at a time.
func skip(p []byte, i, cnt int) int {
	for cnt > 0 && i+8 <= len(p) {
		t := ^binary.LittleEndian.Uint64(p[i:]) & stops
		if pc := bits.OnesCount64(t); pc < cnt {
			cnt -= pc
			i += 8
			continue
		}
		for ; cnt > 1; cnt-- { // the last varint ends inside this word
			t &= t - 1
		}
		return i + bits.TrailingZeros64(t)>>3 + 1
	}
	for ; cnt > 0; i++ {
		if i >= len(p) {
			return -1
		}
		if p[i] < 0x80 {
			cnt--
		}
	}
	return i
}

// Status is the outcome of a splice.
type Status int

const (
	Malformed Status = iota // the block did not parse; nothing was written
	Replaced                // Upsert overwrote the key's value
	Inserted                // Upsert added the pair
	Removed                 // Remove dropped the pair
	Missing                 // Remove: the key is not in the block; nothing was written
	Full                    // Upsert: the key is absent and the block holds maxPairs; nothing was written
	NoFit                   // the edited block needs Len bytes, more than len(buf); nothing was written
)

// Splice reports an Upsert or Remove. Len is the payload length after the
// edit (0 when the last pair went), First the block's first key after it,
// and Written the bytes stored into buf — the new varints plus every byte
// moved to make or close room — so callers can account write amplification.
type Splice struct {
	Status  Status
	Len     int
	Written int
	First   int64
}

// Upsert sets k to v in the block buf[:n], in place, using buf's spare bytes
// when the block grows. maxPairs bounds the pair count as in DecodeBlock. On
// NoFit the caller copies the block into a buffer of at least Len bytes and
// calls again.
func Upsert(buf []byte, n int, k, v int64, maxPairs int) Splice {
	if n > len(buf) {
		return Splice{}
	}
	c, err := Seek(buf[:n], k, maxPairs)
	if err != nil {
		return Splice{}
	}
	// Each new varint is written a word at a time into an array with
	// MaxVarintLen64 bytes for it: kb's second varint starts within the
	// first's ten.
	var cb, vb [binary.MaxVarintLen64]byte
	var kb [2 * binary.MaxVarintLen64]byte
	val := edit{c.valOff, c.valEnd, vb[:putUvarint(vb[:], 0, zigzag(v))]}
	if c.Found {
		return rewrite(buf, n, &[3]edit{{}, {}, val}, Splice{Status: Replaced, First: c.first})
	}
	if c.N >= maxPairs {
		return Splice{Status: Full}
	}
	var kl int
	first := c.first
	if c.Rank == 0 {
		first = k
		kl = putUvarint(kb[:], 0, zigzag(k))
	} else {
		kl = putUvarint(kb[:], 0, uint64(k-c.prev))
	}
	if c.Rank < c.N { // the key that was placed here is now a gap away
		kl += putUvarint(kb[:], kl, uint64(c.next-k))
	}
	return rewrite(buf, n, &[3]edit{
		{0, c.cntEnd, cb[:putUvarint(cb[:], 0, uint64(c.N+1))]},
		{c.keyOff, c.keyEnd, kb[:kl]},
		val,
	}, Splice{Status: Inserted, First: first})
}

// Remove deletes k from the block buf[:n], in place.
func Remove(buf []byte, n int, k int64, maxPairs int) Splice {
	if n > len(buf) {
		return Splice{}
	}
	c, err := Seek(buf[:n], k, maxPairs)
	if err != nil {
		return Splice{}
	}
	if !c.Found {
		return Splice{Status: Missing}
	}
	if c.N == 1 {
		return Splice{Status: Removed}
	}
	var cb [binary.MaxVarintLen64]byte // one varint each, as in Upsert
	var kb [binary.MaxVarintLen64]byte
	var kl int
	first, keyEnd := c.first, c.keyEnd
	if c.Rank < c.N-1 { // fuse the gap behind k into the varint that placed k
		d, dn := Uvarint(buf[:n], keyEnd)
		if dn == 0 || d == 0 || k+int64(d) <= k {
			return Splice{}
		}
		keyEnd += dn
		if c.Rank == 0 {
			first = k + int64(d)
			kl = putUvarint(kb[:], 0, zigzag(first))
		} else {
			kl = putUvarint(kb[:], 0, uint64(k-c.prev)+d)
		}
	}
	return rewrite(buf, n, &[3]edit{
		{0, c.cntEnd, cb[:putUvarint(cb[:], 0, uint64(c.N-1))]},
		{c.keyOff, keyEnd, kb[:kl]},
		{c.valOff, c.valEnd, nil},
	}, Splice{Status: Removed, First: first})
}

// edit replaces buf[off:end] with b.
type edit struct {
	off, end int
	b        []byte
}

// rewrite applies three edits, ascending and disjoint, to the block buf[:n]
// and completes r. The three stretches the edits leave alone — between the
// edits and from the last one to n — each move once, by the bytes the edits
// before them add or drop: the ones moving down first, left to right, then
// the ones moving up, right to left, so no move lands on bytes that have yet
// to move. (A stretch moving up never covers the old place of one moving
// down to its right, nor the reverse: their new places do not overlap.) On
// canonical blocks an insert moves everything up and a removal everything
// down; the mixed case only arises on blocks with padded varints, which
// DecodeBlock accepts.
func rewrite(buf []byte, n int, e *[3]edit, r Splice) Splice {
	var from, to, shift [3]int // stretch j is buf[from[j]:to[j]] and moves by shift[j]
	d := 0
	for j := range e {
		d += len(e[j].b) - (e[j].end - e[j].off)
		from[j], to[j], shift[j] = e[j].end, n, d
		if j < 2 {
			to[j] = e[j+1].off
		}
		r.Written += len(e[j].b)
		if d != 0 {
			r.Written += to[j] - from[j]
		}
	}
	r.Len = n + d
	if r.Len > len(buf) {
		return Splice{Status: NoFit, Len: r.Len}
	}
	for j := 0; j < 3; j++ {
		if shift[j] < 0 {
			copy(buf[from[j]+shift[j]:], buf[from[j]:to[j]])
		}
	}
	for j := 2; j >= 0; j-- {
		if shift[j] > 0 {
			copy(buf[from[j]+shift[j]:], buf[from[j]:to[j]])
		}
	}
	at := 0 // shift of the stretch before edit j
	for j := range e {
		copy(buf[e[j].off+at:], e[j].b)
		at = shift[j]
	}
	return r
}
