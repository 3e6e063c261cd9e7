package core

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"pmago/internal/codec"
)

// testConfigC is testConfig with the compressed chunk representation on.
func testConfigC(mode Mode) Config {
	cfg := testConfig(mode)
	cfg.CompressedChunks = true
	return cfg
}

func newTestC(t *testing.T, mode Mode) *PMA {
	t.Helper()
	p, err := New(testConfigC(mode))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	return p
}

// TestCompressedModelEquivalence runs a mixed random workload (point puts
// and deletes, batch puts and deletes, upserts) against a compressed store
// and a map model, in every mode, checking Get, ScanAll, Len and the full
// structural Validate (which decodes every segment) at the end.
func TestCompressedModelEquivalence(t *testing.T) {
	for _, mode := range allModes() {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			p := newTestC(t, mode)
			model := make(map[int64]int64)
			rng := rand.New(rand.NewSource(7))
			const domain = 1 << 13
			for i := 0; i < 30_000; i++ {
				k := rng.Int63n(domain)
				switch rng.Intn(10) {
				case 0:
					p.Delete(k)
					delete(model, k)
				case 1: // batch put
					n := 1 + rng.Intn(200)
					ks := make([]int64, n)
					vs := make([]int64, n)
					for j := range ks {
						ks[j] = rng.Int63n(domain)
						vs[j] = rng.Int63()
						model[ks[j]] = vs[j]
					}
					// Later duplicates win in PutBatch; replay the model in
					// order so it agrees.
					for j := range ks {
						model[ks[j]] = vs[j]
					}
					p.PutBatch(ks, vs)
				case 2: // batch delete
					n := 1 + rng.Intn(100)
					ks := make([]int64, n)
					for j := range ks {
						ks[j] = rng.Int63n(domain)
						delete(model, ks[j])
					}
					p.DeleteBatch(ks)
				default:
					v := rng.Int63()
					p.Put(k, v)
					model[k] = v
				}
			}
			p.Flush()
			if p.Len() != len(model) {
				t.Fatalf("Len = %d, model has %d", p.Len(), len(model))
			}
			for k, want := range model {
				if v, ok := p.Get(k); !ok || v != want {
					t.Fatalf("Get(%d) = %d,%v want %d,true", k, v, ok, want)
				}
			}
			seen := 0
			prev := int64(-1)
			p.ScanAll(func(k, v int64) bool {
				if k <= prev {
					t.Fatalf("scan not ascending: %d after %d", k, prev)
				}
				if want, ok := model[k]; !ok || v != want {
					t.Fatalf("scan saw %d/%d, model %d,%v", k, v, want, ok)
				}
				prev = k
				seen++
				return true
			})
			if seen != len(model) {
				t.Fatalf("scan visited %d, model has %d", seen, len(model))
			}
			if err := p.Validate(); err != nil {
				t.Fatal(err)
			}
			st := p.Stats()
			if !st.Compression.Enabled || st.Compression.SegDecodes == 0 {
				t.Fatalf("compression stats not live: %+v", st.Compression)
			}
		})
	}
}

// TestCompressedBulkLoad pins the BulkLoad path through fillChunk's block
// encoding and the encoded-bytes accounting surfaced by Stats.
func TestCompressedBulkLoad(t *testing.T) {
	const n = 50_000
	keys := make([]int64, n)
	vals := make([]int64, n)
	for i := range keys {
		keys[i] = int64(i) * 3
		vals[i] = int64(i)
	}
	p, err := BulkLoad(testConfigC(ModeBatch), keys, vals)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if !p.Stats().Compression.Enabled {
		t.Fatal("Stats().Compression.Enabled = false")
	}
	if p.Len() != n {
		t.Fatalf("Len = %d, want %d", p.Len(), n)
	}
	for i := 0; i < n; i += 997 {
		if v, ok := p.Get(keys[i]); !ok || v != vals[i] {
			t.Fatalf("Get(%d) = %d,%v", keys[i], v, ok)
		}
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	st := p.Stats()
	if st.Compression.Pairs != n {
		t.Fatalf("Compression.Pairs = %d, want %d", st.Compression.Pairs, n)
	}
	if st.Compression.EncodedBytes == 0 {
		t.Fatal("Compression.EncodedBytes = 0 on a loaded store")
	}
	// The codec's reason to exist: a dense run must store far below the 16
	// raw bytes per pair of the uncompressed representation.
	if bpp := float64(st.Compression.EncodedBytes) / float64(n); bpp > 8 {
		t.Fatalf("%.2f bytes/pair, want <= 8", bpp)
	}
}

// TestCompressedMatchesUncompressed drives the same operation sequence into
// a compressed and an uncompressed store and requires identical content —
// the representation must be invisible to every caller — and, because both
// layouts run the same gate, batch and rebalancer code over the storage seam,
// an identical structure: per-gate fences, gcard, segCard and smin, and the
// same number of local rebalances, global rebalances and resizes. The script
// is single-threaded and quiesces after every op (shrink requests and
// ModeBatch hand-offs are served asynchronously by the master), so the
// structure is a function of the op sequence alone. Its batches are shaped to
// take every insert path: sparse ones merge by segment, short clustered ones
// overflow a segment into mergeLocal's window (each point Put, in every mode,
// is a run of one through mergeLocal), long ones are handed to the
// rebalancer, and range deletes bring the array back down through shrinks.
func TestCompressedMatchesUncompressed(t *testing.T) {
	for _, mode := range allModes() {
		cu := newTest(t, mode)
		cc := newTestC(t, mode)
		both := func(f func(p *PMA)) {
			for _, p := range []*PMA{cu, cc} {
				f(p)
				p.Flush()
			}
		}
		rng := rand.New(rand.NewSource(11))
		const domain = 1 << 12
		run := func(n int) (ks, vs []int64) {
			base := rng.Int63n(domain)
			for i := 0; i < n; i++ {
				ks = append(ks, base+int64(i))
				vs = append(vs, rng.Int63())
			}
			return ks, vs
		}
		for i := 0; i < 20_000; i++ {
			k := rng.Int63n(domain)
			switch r := rng.Intn(100); {
			case r < 25:
				both(func(p *PMA) { p.Delete(k) })
			case r < 94:
				v := rng.Int63()
				both(func(p *PMA) { p.Put(k, v) })
			case r < 96: // sparse batch
				ks, vs := make([]int64, 1+rng.Intn(8)), make([]int64, 8)
				for j := range ks {
					ks[j] = rng.Int63n(domain)
				}
				both(func(p *PMA) { p.PutBatch(ks, vs[:len(ks)]) })
			case r < 98: // short clustered batch
				ks, vs := run(3 + rng.Intn(10))
				both(func(p *PMA) { p.PutBatch(ks, vs) })
			case r < 99: // long clustered batch
				ks, vs := run(64 + rng.Intn(256))
				both(func(p *PMA) { p.PutBatch(ks, vs) })
			default:
				ks, _ := run(1 + rng.Intn(400))
				both(func(p *PMA) { p.DeleteBatch(ks) })
			}
		}
		ku, kc := cu.Keys(), cc.Keys()
		if len(ku) != len(kc) {
			t.Fatalf("%v: %d keys uncompressed, %d compressed", mode, len(ku), len(kc))
		}
		for i := range ku {
			if ku[i] != kc[i] {
				t.Fatalf("%v: key %d differs: %d vs %d", mode, i, ku[i], kc[i])
			}
			vu, _ := cu.Get(ku[i])
			vc, ok := cc.Get(kc[i])
			if !ok || vu != vc {
				t.Fatalf("%v: value for %d differs: %d vs %d,%v", mode, ku[i], vu, vc, ok)
			}
		}

		ru, rc := cu.Stats().Rebalance, cc.Stats().Rebalance
		if ru.Local != rc.Local || ru.Global != rc.Global || ru.Resizes != rc.Resizes {
			t.Fatalf("%v: rebalances local/global/resizes %d/%d/%d uncompressed, %d/%d/%d compressed",
				mode, ru.Local, ru.Global, ru.Resizes, rc.Local, rc.Global, rc.Resizes)
		}
		if ru.Local == 0 || ru.Global == 0 || ru.Resizes < 2 {
			t.Fatalf("%v: script too tame: %d local, %d global rebalances, %d resizes", mode, ru.Local, ru.Global, ru.Resizes)
		}
		gu, gc := cu.state.Load().gates, cc.state.Load().gates
		if len(gu) != len(gc) {
			t.Fatalf("%v: %d gates uncompressed, %d compressed", mode, len(gu), len(gc))
		}
		for i := range gu {
			u, c := gu[i], gc[i]
			if u.fenceLo != c.fenceLo || u.fenceHi != c.fenceHi || u.gcard != c.gcard ||
				u.segCard != c.segCard || u.smin != c.smin {
				t.Fatalf("%v: gate %d differs:\n uncompressed fences [%d,%d] gcard %d segCard %v smin %v\n compressed   fences [%d,%d] gcard %d segCard %v smin %v",
					mode, i, u.fenceLo, u.fenceHi, u.gcard, u.segCard, u.smin, c.fenceLo, c.fenceHi, c.gcard, c.segCard, c.smin)
			}
		}
	}
}

// gateOf returns the gate and segment that cover k in a quiescent store.
func gateOf(t *testing.T, p *PMA, k int64) (*gate, int) {
	t.Helper()
	for _, g := range p.state.Load().gates {
		if g.fenceLo <= k && k <= g.fenceHi {
			return g, g.findSeg(k)
		}
	}
	t.Fatalf("no gate covers %d", k)
	return nil, 0
}

// TestCompressedSplice pins the seam between the in-place splice and the rest
// of the gate: what a point Put or Delete leaves in enc, segCard and smin,
// and where it hands over to the view -> setSeg route. The store is the test
// geometry (one gate, two segments of 8) in ModeSync, so every op has run by
// the time it returns and all early keys land in segment 0.
func TestCompressedSplice(t *testing.T) {
	valid := func(t *testing.T, p *PMA) {
		t.Helper()
		if err := p.Validate(); err != nil {
			t.Fatal(err)
		}
	}
	big := func(i int) int64 { return math.MinInt64 + int64(i) } // ten encoded bytes

	t.Run("grow publishes a fresh block", func(t *testing.T) {
		p := newTestC(t, ModeSync)
		grew := 0
		for i := 0; i < 7; i++ {
			k := int64(100 + 10*i)
			g, s := gateOf(t, p, k)
			e := g.enc[s]
			var before []byte
			var n int32
			if e != nil {
				before, n = bytes.Clone(e.data), e.n
			}
			p.Put(k, big(i))
			valid(t, p)
			if g2, s2 := gateOf(t, p, k); g2 != g || s2 != s || g.segCard[s] != i+1 {
				t.Fatalf("put %d restructured the chunk", i)
			}
			if e == nil || g.enc[s] == e {
				continue
			}
			// The block moved: the array a racy reader may still hold is
			// exactly as it was and still decodes to the old pairs.
			grew++
			if e.n != n || !bytes.Equal(e.data, before) {
				t.Fatalf("put %d wrote to the block it replaced", i)
			}
			if ks, _, err := codec.DecodeBlock(e.data[:e.n], nil, nil, g.b); err != nil || len(ks) != i {
				t.Fatalf("replaced block decodes to %d pairs (%v), want %d", len(ks), err, i)
			}
			ne := g.enc[s]
			if want := int(ne.n) + int(ne.n)/4 + 16; len(ne.data) != want {
				t.Fatalf("fresh block has %d bytes for a %d-byte payload, want %d", len(ne.data), ne.n, want)
			}
		}
		if grew == 0 {
			t.Fatal("seven ten-byte values never outgrew a block's slack")
		}
	})

	t.Run("delete to empty", func(t *testing.T) {
		p := newTestC(t, ModeSync)
		for _, k := range []int64{5, 6, 7} {
			p.Put(k, k)
		}
		g, s := gateOf(t, p, 5)
		for _, k := range []int64{6, 5, 7} {
			if !p.Delete(k) {
				t.Fatalf("Delete(%d) = false", k)
			}
			valid(t, p)
		}
		if g.segCard[s] != 0 || g.enc[s].n != 0 || g.encBytes.Load() != 0 || g.smin[s] != KeyMax {
			t.Fatalf("emptied segment: segCard %d, %d live bytes, %d tracked, smin %d",
				g.segCard[s], g.enc[s].n, g.encBytes.Load(), g.smin[s])
		}
		if err := g.checkStorage(); err != nil {
			t.Fatal(err)
		}
		p.Put(9, 90) // the empty segment takes the setSeg route again
		valid(t, p)
		if v, ok := p.Get(9); !ok || v != 90 {
			t.Fatalf("Get(9) = %d,%v after refilling the emptied segment", v, ok)
		}
	})

	t.Run("full segment", func(t *testing.T) {
		p := newTestC(t, ModeSync)
		for i := 0; i < 8; i++ {
			p.Put(int64(10*i), 0)
		}
		g, s := gateOf(t, p, 30)
		if g.segCard[s] != g.b {
			t.Fatalf("segment holds %d pairs, want it full (%d)", g.segCard[s], g.b)
		}
		before := p.Stats()
		p.Put(30, big(1)) // a replacement needs no room, only bytes
		valid(t, p)
		after := p.Stats()
		if v, _ := p.Get(30); v != big(1) || g.segCard[s] != g.b || after.Rebalance.Local != before.Rebalance.Local ||
			after.Compression.SegDecodes != before.Compression.SegDecodes {
			t.Fatalf("replace in a full segment: value %d, segCard %d, local rebalances %d -> %d, decodes %d -> %d", v, g.segCard[s],
				before.Rebalance.Local, after.Rebalance.Local, before.Compression.SegDecodes, after.Compression.SegDecodes)
		}
		p.Put(35, 1) // a new key does: the splice declines, the rebalance runs
		valid(t, p)
		after = p.Stats()
		if v, ok := p.Get(35); !ok || v != 1 || p.Len() != 9 ||
			after.Rebalance.Local+after.Rebalance.Global == before.Rebalance.Local+before.Rebalance.Global {
			t.Fatalf("insert into a full segment: Get %d,%v, Len %d, rebalances %+v", v, ok, p.Len(), after.Rebalance)
		}
	})

	t.Run("segment minimum", func(t *testing.T) {
		p := newTestC(t, ModeSync)
		for _, k := range []int64{100, 110, 120} {
			p.Put(k, k)
		}
		g, s := gateOf(t, p, 100)
		for _, step := range []struct {
			del  bool
			k    int64
			smin int64
		}{
			{false, 50, 50},  // new minimum
			{false, 105, 50}, // middle insert leaves it
			{true, 50, 100},  // old minimum goes: the next key takes over
			{true, 110, 100}, // middle delete leaves it
			{false, -3, -3},
			{true, -3, 100},
		} {
			if step.del {
				p.Delete(step.k)
			} else {
				p.Put(step.k, 1)
			}
			valid(t, p)
			if g.smin[s] != step.smin {
				t.Fatalf("after key %d (delete %v): smin %d, want %d", step.k, step.del, g.smin[s], step.smin)
			}
		}
	})
}

// updateCycleAllocs returns the allocations of one warmed Put+Delete cycle of
// a fresh key on a bulk-loaded store with a single writer.
func updateCycleAllocs(t *testing.T, mode Mode, compressed bool) float64 {
	const n = 1 << 12
	keys := make([]int64, n)
	vals := make([]int64, n)
	for i := range keys {
		keys[i] = int64(i) * 16
		vals[i] = int64(i) << 40
	}
	cfg := DefaultConfig()
	cfg.Mode = mode
	cfg.CompressedChunks = compressed
	p, err := BulkLoad(cfg, keys, vals)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	i := 0
	cycle := func() {
		k := keys[i%64*61] + 1
		i++
		p.Put(k, -k<<32)
		p.Delete(k)
	}
	for j := 0; j < 64; j++ { // first touch of a block grows it
		cycle()
	}
	p.Flush()
	return testing.AllocsPerRun(256, cycle)
}

// TestCompressedUpdateDoesNotAllocate: once a block has slack, a point Put or
// Delete of a compressed store edits it in place and allocates nothing, in
// ModeSync and in the default ModeBatch, like the slot store. No scratch pool
// is involved, so this holds under -race too.
func TestCompressedUpdateDoesNotAllocate(t *testing.T) {
	if got := updateCycleAllocs(t, ModeSync, true); got != 0 {
		t.Errorf("ModeSync: compressed Put+Delete allocates %.2f objects, want 0", got)
	}
	if slots, blocks := updateCycleAllocs(t, ModeBatch, false), updateCycleAllocs(t, ModeBatch, true); slots != 0 || blocks != 0 {
		t.Errorf("ModeBatch: Put+Delete allocates %.2f objects compressed, %.2f on slots, want 0 and 0", blocks, slots)
	}
}

// TestMergeBySegmentAllOrNothing pins mergeBySegment's contract that on false
// nothing was modified, which the block store keeps by staging every group's
// merged block before storing any: in the test geometry (one gate, two
// segments of 8) a run whose first group fits segment 0 and whose second
// overflows the full segment 1 leaves both segments as they were — the same
// block, the same bytes, the same segCard and smin — for mergeLocal's window
// tier to take over, which PutBatch then does.
func TestMergeBySegmentAllOrNothing(t *testing.T) {
	for _, compressed := range []bool{false, true} {
		p := newTest(t, ModeSync)
		if compressed {
			p = newTestC(t, ModeSync)
		}
		st := p.state.Load()
		if len(st.gates) != 1 || st.gates[0].spg != 2 || st.gates[0].b != 8 {
			t.Fatalf("test geometry changed: %d gates", len(st.gates))
		}
		g := st.gates[0]
		low := []int64{10, 20, 30}
		full := []int64{100, 101, 102, 103, 104, 105, 106, 107}
		sc := g.cc.get()
		g.setSeg(0, low, []int64{1, 2, 3}, sc)
		g.setSeg(1, full, make([]int64, 8), sc)
		g.cc.put(sc)
		g.smin[0], g.smin[1], g.gcard = 10, 100, 11
		st.card.Store(11)
		if err := p.Validate(); err != nil {
			t.Fatal(err)
		}

		type snap struct {
			enc     [2]*encSeg
			payload [2][]byte
			keys    []int64
			segCard [maxSegmentsPerGate]int
			smin    [maxSegmentsPerGate]int64
			gcard   int
		}
		take := func() snap {
			s := snap{segCard: g.segCard, smin: g.smin, gcard: g.gcard}
			if compressed {
				for i := range s.enc {
					s.enc[i] = g.enc[i]
					s.payload[i] = bytes.Clone(g.enc[i].data)
				}
			} else {
				s.keys = append(slices.Clone(g.buf.keys[:16]), g.buf.vals[:16]...)
			}
			return s
		}
		before := take()
		ins := []op{{key: 15, val: -1}, {key: 25, val: -2}, {key: 150, val: -3}}
		if delta, ok := g.mergeBySegment(ins); ok || delta != 0 {
			t.Fatalf("compressed=%v: mergeBySegment = %d, %v on a run overflowing segment 1", compressed, delta, ok)
		}
		if after := take(); !reflect.DeepEqual(after, before) {
			t.Fatalf("compressed=%v: a refused merge changed the gate:\n before %+v\n after  %+v", compressed, before, after)
		}

		p.PutBatch([]int64{15, 25, 150}, []int64{-1, -2, -3})
		if err := p.Validate(); err != nil {
			t.Fatal(err)
		}
		if got := p.Keys(); !slices.Equal(got, []int64{10, 15, 20, 25, 30, 100, 101, 102, 103, 104, 105, 106, 107, 150}) {
			t.Fatalf("compressed=%v: keys after the batch: %v", compressed, got)
		}
	}
}

// TestCompressedBatchMergesEncoded: a batch whose runs each fit their target
// segments is merged into the encoded blocks — no whole-segment decode is
// counted — and ReencodeBytes grows by exactly the bytes of the blocks
// stored. A one-key run is a lone insert, which splices its block instead
// (mergeLocal's first tier): no decode and no rebalance either.
func TestCompressedBatchMergesEncoded(t *testing.T) {
	keys, vals := make([]int64, 4096), make([]int64, 4096)
	for i := range keys {
		keys[i], vals[i] = int64(i)*16, int64(i)<<40
	}
	p, err := BulkLoad(testConfigC(ModeSync), keys, vals)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	batch, bv := []int64{1, 17, 33, 8001, 8003}, []int64{1, 2, 3, 4, 5}
	touched := map[*encSeg]bool{}
	for _, k := range batch {
		g, s := gateOf(t, p, k)
		touched[g.enc[s]] = true
	}
	before := p.Stats().Compression
	p.PutBatch(batch, bv)
	after := p.Stats().Compression
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	var stored uint64
	seen := map[*encSeg]bool{}
	for _, k := range batch {
		g, s := gateOf(t, p, k)
		if e := g.enc[s]; !seen[e] {
			seen[e] = true
			stored += uint64(e.n)
		}
	}
	if p.Stats().Rebalance.Local != 0 || len(seen) != len(touched) {
		t.Fatalf("the batch did not merge segment by segment: %+v", p.Stats().Rebalance)
	}
	if after.SegDecodes != before.SegDecodes || after.ReencodeBytes-before.ReencodeBytes != stored {
		t.Fatalf("decodes %d -> %d, reencoded bytes +%d, want no decode and +%d",
			before.SegDecodes, after.SegDecodes, after.ReencodeBytes-before.ReencodeBytes, stored)
	}
	for i, k := range batch {
		if v, ok := p.Get(k); !ok || v != bv[i] {
			t.Fatalf("Get(%d) = %d, %v", k, v, ok)
		}
	}

	const lone = 40001
	if g, _ := gateOf(t, p, lone); g.fenceLo <= batch[len(batch)-1] {
		t.Fatalf("key %d shares gate [%d, %d] with the batch", lone, g.fenceLo, g.fenceHi)
	}
	before = p.Stats().Compression
	p.PutBatch([]int64{lone}, []int64{6})
	after = p.Stats().Compression
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if p.Stats().Rebalance.Local != 0 || after.SegDecodes != before.SegDecodes {
		t.Fatalf("a one-key run: decodes %d -> %d, %+v", before.SegDecodes, after.SegDecodes, p.Stats().Rebalance)
	}
	if v, ok := p.Get(lone); !ok || v != 6 {
		t.Fatalf("Get(%d) = %d, %v", lone, v, ok)
	}
}

// TestValidateRejectsPaddedBlock: a block that decodes to the right pairs
// but is not what AppendBlock writes for them — here its count is padded to
// two bytes — fails Validate, since the splices and the merge copy a block's
// bytes and would carry the padding on.
func TestValidateRejectsPaddedBlock(t *testing.T) {
	p := newTestC(t, ModeSync)
	for _, k := range []int64{3, 5, 7} {
		p.Put(k, k)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	g, s := gateOf(t, p, 5)
	e := g.enc[s]
	block := e.data[:e.n]
	padded := append([]byte{block[0] | 0x80, 0}, block[1:]...)
	if ks, _, err := codec.DecodeBlock(padded, nil, nil, g.b); err != nil || len(ks) != 3 {
		t.Fatalf("padded block decodes to %v, %v", ks, err)
	}
	g.enc[s] = &encSeg{data: padded, n: int32(len(padded))}
	g.encBytes.Add(1)
	if err := p.Validate(); err == nil || !strings.Contains(err.Error(), "not canonical") {
		t.Fatalf("Validate of a padded block: %v", err)
	}
}

// TestCorruptBlockPanics: a block that does not parse fails every read
// loudly, whichever way the read was made consistent — a Get of a key in it
// and a Scan across it both panic, instead of a validated optimistic read
// reporting a miss or skipping the block.
func TestCorruptBlockPanics(t *testing.T) {
	for _, latched := range []bool{false, true} {
		name := "optimistic"
		if latched {
			name = "latched"
		}
		t.Run(name, func(t *testing.T) {
			p, err := New(testConfigC(ModeSync))
			if err != nil {
				t.Fatal(err)
			}
			defer p.Close()
			if latched {
				p.attempts = 0
			}
			keys, vals := make([]int64, 1000), make([]int64, 1000)
			for i := range keys {
				keys[i], vals[i] = int64(i), int64(i)
			}
			p.PutBatch(keys, vals)
			const k = 500
			g, s := gateOf(t, p, k)
			e := g.enc[s]
			if g.segCard[s] == 0 || e.n == 0 {
				t.Fatalf("segment %d holding %d is empty", s, k)
			}
			for i := range e.data[:e.n] {
				e.data[i] = 0x80 // a varint that never ends
			}
			k0 := g.smin[s]
			reads := map[string]func(){
				"Get":  func() { p.Get(k0) },
				"Scan": func() { p.Scan(0, 999, func(_, _ int64) bool { return true }) },
			}
			for op, read := range reads {
				if got := panicOf(read); !strings.Contains(got, corruptSegment) {
					t.Errorf("%s across the corrupt block: panic %q, want %q", op, got, corruptSegment)
				}
			}
			if latched {
				assertLatched(t, p)
			}
		})
	}
}

// panicOf runs f and returns what it panicked with, "" if it returned.
func panicOf(f func()) (msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg = fmt.Sprint(r)
		}
	}()
	f()
	return ""
}
