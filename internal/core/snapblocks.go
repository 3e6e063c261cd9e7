package core

import (
	"pmago/internal/codec"
)

// ScanBlocks streams the store's content as codec-encoded delta blocks in
// ascending key order — the snapshot fast path for compressed stores: each
// segment's payload is copied verbatim under the shared latch (no decode,
// no per-pair work) and handed to fn outside every latch, so a checkpoint
// moves encoded bytes end-to-end from chunk to disk. Panics on an
// uncompressed store; callers gate on Compressed().
//
// Like Scan, the walk rides fence boundaries and restarts on a resize; a
// restart can land mid-gate, in which case that one gate is decoded,
// filtered to the unemitted suffix and re-encoded (rare, and bounded to a
// single gate per restart). Block first keys are strictly ascending across
// the whole stream. Returns false if fn stopped the scan.
func (p *PMA) ScanBlocks(fn func(payload []byte, pairs int) bool) bool {
	p.checkOpen()
	if p.cctx == nil {
		panic("core: ScanBlocks on an uncompressed store")
	}
	var (
		scratch []byte // this gate's payloads, copied under the latch
		offs    []int  // start of each payload within scratch
		counts  []int  // pair count of each payload
	)
	from := int64(KeyMin + 1)
	for {
		_, g := p.enter(from, latchShared, op{})
		scratch, offs, counts = scratch[:0], offs[:0], counts[:0]
		if g.fenceLo >= from || from == KeyMin+1 {
			// Every key this gate stores is >= from: copy the encoded
			// segments verbatim.
			for s := 0; s < g.spg; s++ {
				if g.segCard[s] == 0 {
					continue
				}
				e := g.enc[s]
				offs = append(offs, len(scratch))
				counts = append(counts, g.segCard[s])
				scratch = append(scratch, e.data[:e.n]...)
			}
		} else {
			// A resize restarted the walk mid-gate: drop the already
			// emitted prefix by decoding, filtering and re-encoding
			// this one gate.
			sc := p.cctx.get()
			for s := g.findSeg(from); s < g.spg; s++ {
				if g.segCard[s] == 0 {
					continue
				}
				ks, vs := g.view(s, sc)
				i := 0
				if ks[0] < from {
					i = searchKeys(ks, from)
				}
				if i == len(ks) {
					continue
				}
				offs = append(offs, len(scratch))
				counts = append(counts, len(ks)-i)
				scratch = codec.AppendBlock(scratch, ks[i:], vs[i:])
			}
			p.cctx.put(sc)
		}
		fenceHi := g.fenceHi
		g.unlockShared()
		for i := range offs {
			end := len(scratch)
			if i+1 < len(offs) {
				end = offs[i+1]
			}
			if !fn(scratch[offs[i]:end], counts[i]) {
				return false
			}
		}
		// The last gate's upper fence is KeyMax, so this ends the walk.
		if fenceHi >= KeyMax-1 {
			return true
		}
		from = fenceHi + 1
	}
}
