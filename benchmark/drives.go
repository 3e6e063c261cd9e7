package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"pmago/internal/codec"
	"pmago/internal/core"
	"pmago/internal/persist"
	"pmago/internal/placement"
	"pmago/internal/wire"
)

// Layer drives call one layer's functions directly, from a single
// goroutine, on the first driveOps ops of the workload's own seeded streams,
// so a layer's cost can be read without the layers above it. Each drive is
// one span of the traced run.

// sink keeps the drives' results alive.
var sink int64

// driver runs the drives of one workload.
type driver struct {
	ks     keyScheme
	stack  string
	ops    int // ops per drive
	tmp    string
	tracer *tracer
	out    metrics
}

func (d *driver) now() int64 { return d.tracer.now() }

// timed runs f as one drive span and returns its wall time in ns.
func (d *driver) timed(name string, f func()) float64 {
	t0 := d.now()
	f()
	t1 := d.now()
	d.tracer.drive = append(d.tracer.drive, driveSpan{name: "drive." + name, start: t0, end: t1})
	return float64(t1 - t0)
}

func (d *driver) run() error {
	keys, vals := d.ks.preload()
	if err := d.core(keys, vals); err != nil {
		return fmt.Errorf("core drive: %w", err)
	}
	d.codec(keys, vals)
	if err := d.persist(keys, vals); err != nil {
		return fmt.Errorf("persist drive: %w", err)
	}
	if err := d.placement(); err != nil {
		return fmt.Errorf("placement drive: %w", err)
	}
	if err := d.wire(); err != nil {
		return fmt.Errorf("wire drive: %w", err)
	}
	return nil
}

// core drives internal/core in the workload's layout: bulk load of the
// preload, then the first ops of the Get, update, scan and batch streams.
func (d *driver) core(keys, vals []int64) error {
	cfg := core.DefaultConfig()
	cfg.CompressedChunks = d.stack == stackCompressed
	var p *core.PMA
	var err error
	ns := d.timed("core.bulkload", func() { p, err = core.BulkLoad(cfg, keys, vals) })
	if err != nil {
		return err
	}
	defer p.Close()
	d.out["core.bulkload_ns_per_pair"] = ns / float64(len(keys))

	gs := newGetStream(d.ks)
	ns = d.timed("core.get", func() {
		for i := 0; i < d.ops; i++ {
			k, _ := gs.next()
			v, _ := p.Get(k)
			sink += v
		}
	})
	d.out["core.get_ns"] = ns / float64(d.ops)

	// Whole rounds of the update stream, Put halves and Delete halves
	// timed apart.
	us := newUpdateStream(d.ks)
	var putNs, delNs float64
	rounds := max(1, d.ops/(2*updateRound))
	for r := 0; r < rounds; r++ {
		putNs += d.timed("core.put", func() {
			for i := 0; i < updateRound; i++ {
				_, k := us.next()
				p.Put(k, d.ks.val(k))
			}
		})
		delNs += d.timed("core.delete", func() {
			for i := 0; i < updateRound; i++ {
				_, k := us.next()
				p.Delete(k)
			}
		})
	}
	p.Flush()
	d.out["core.put_ns"] = putNs / float64(rounds*updateRound)
	d.out["core.delete_ns"] = delNs / float64(rounds*updateRound)

	ss := newScanStream(d.ks)
	var pairs int64
	ns = d.timed("core.scan", func() {
		for pairs < int64(4*d.ops) {
			lo, hi, _, _ := ss.next()
			p.Scan(lo, hi, func(k, v int64) bool {
				pairs++
				sink += v
				return true
			})
		}
	})
	d.out["core.scan_ns_per_pair"] = ns / float64(pairs)

	is := newIngestStream(d.ks, tagIngestBatch)
	batches := max(1, d.ops/batchKeys)
	var batchNs float64
	for i := 0; i < batches; i++ {
		bk, bv := is.nextBatch()
		t0 := d.now()
		p.PutBatch(bk, bv)
		batchNs += float64(d.now() - t0)
	}
	d.tracer.drive = append(d.tracer.drive, driveSpan{name: "drive.core.putbatch", start: d.now() - int64(batchNs), end: d.now()})
	d.out["core.putbatch_ns_per_key"] = batchNs / float64(batches*batchKeys)
	return nil
}

// codec encodes and decodes the preloaded pairs in 128-pair blocks, the
// segment size of the compressed layout.
func (d *driver) codec(keys, vals []int64) {
	const block = 128
	n := min(len(keys), d.ops) / block * block
	if n == 0 {
		return
	}
	var enc [][]byte
	ns := d.timed("codec.encode", func() {
		for off := 0; off < n; off += block {
			enc = append(enc, codec.AppendBlock(nil, keys[off:off+block], vals[off:off+block]))
		}
	})
	d.out["codec.encode_ns_per_pair"] = ns / float64(n)
	var size int
	for _, b := range enc {
		size += len(b)
	}
	d.out["codec.bytes_per_pair"] = float64(size) / float64(n)
	kb, vb := make([]int64, 0, block), make([]int64, 0, block)
	ns = d.timed("codec.decode", func() {
		for _, b := range enc {
			k, v, err := codec.DecodeBlock(b, kb[:0], vb[:0], block)
			if err != nil || len(k) != block {
				panic(fmt.Sprintf("codec drive: decode: %v", err))
			}
			sink += k[0] + v[0]
		}
	})
	d.out["codec.decode_ns_per_pair"] = ns / float64(n)
}

// persist drives the write-ahead log under the durable workload's flush
// policy, then snapshot write, snapshot load and log replay.
func (d *driver) persist(keys, vals []int64) error {
	dir, err := os.MkdirTemp(d.tmp, "drive-persist-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	opts := persist.DefaultOptions()
	opts.Fsync = persist.FsyncInterval
	opts.CompactRatio = 0
	log, err := persist.OpenLog(dir, 1, opts)
	if err != nil {
		return err
	}
	us := newUpdateStream(d.ks)
	ns := d.timed("persist.append", func() {
		for i := 0; i < d.ops && err == nil; i++ {
			if del, k := us.next(); del {
				err = log.AppendDelete(k)
			} else {
				err = log.AppendPut(k, d.ks.val(k))
			}
		}
	})
	if err != nil {
		log.Close()
		return err
	}
	d.out["persist.append_ns_per_rec"] = ns / float64(d.ops)
	d.out["persist.wal_bytes_per_rec"] = float64(log.LiveBytes()) / float64(d.ops)

	is := newIngestStream(d.ks, tagIngestBatch)
	batches := max(1, d.ops/batchKeys)
	var batchNs float64
	for i := 0; i < batches && err == nil; i++ {
		bk, bv := is.nextBatch()
		t0 := d.now()
		err = log.AppendPutBatch(bk, bv)
		batchNs += float64(d.now() - t0)
	}
	d.tracer.drive = append(d.tracer.drive, driveSpan{name: "drive.persist.appendbatch", start: d.now() - int64(batchNs), end: d.now()})
	if cerr := log.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	d.out["persist.appendbatch_ns_per_key"] = batchNs / float64(batches*batchKeys)

	var recs int
	ns = d.timed("persist.replay", func() {
		_, err = persist.Replay(dir, 1, func(r *persist.Record) error {
			recs++
			sink += int64(len(r.Keys))
			return nil
		})
	})
	if err != nil {
		return err
	}
	if recs != d.ops+batches {
		return fmt.Errorf("replayed %d records, appended %d", recs, d.ops+batches)
	}
	d.out["persist.replay_krecs_s"] = float64(recs) / 1e3 / (ns / 1e9)

	sdir, err := os.MkdirTemp(d.tmp, "drive-snapshot-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(sdir)
	n := min(len(keys), 1<<20)
	var count, size int64
	ns = d.timed("persist.snapshot_write", func() {
		count, size, err = persist.WriteSnapshot(sdir, 1, func(yield func(k, v int64) bool) error {
			for i := 0; i < n && yield(keys[i], vals[i]); i++ {
			}
			return nil
		}, opts)
	})
	if err != nil {
		return err
	}
	d.out["persist.snapshot_write_s"] = ns / 1e9
	d.out["persist.snapshot_bytes_per_pair"] = float64(size) / float64(count)
	ents, err := os.ReadDir(sdir)
	if err != nil {
		return err
	}
	path := ""
	for _, e := range ents {
		if !strings.HasSuffix(e.Name(), ".tmp") {
			path = filepath.Join(sdir, e.Name())
		}
	}
	var loaded []int64
	ns = d.timed("persist.snapshot_load", func() { loaded, _, _, err = persist.LoadSnapshot(path) })
	if err != nil {
		return err
	}
	if len(loaded) != n {
		return fmt.Errorf("snapshot load returned %d pairs, wrote %d", len(loaded), n)
	}
	d.out["persist.snapshot_load_s"] = ns / 1e9
	return nil
}

// placement routes the update stream's keys over the sharded workload's
// placement.
func (d *driver) placement() error {
	w := make([]float64, shards)
	for i := range w {
		w[i] = 1
	}
	place, err := placement.NewStraw2(w)
	if err != nil {
		return err
	}
	us := newUpdateStream(d.ks)
	ns := d.timed("placement.route", func() {
		for i := 0; i < d.ops; i++ {
			_, k := us.next()
			sink += int64(place.Shard(k))
		}
	})
	d.out["placement.route_ns_per_key"] = ns / float64(d.ops)
	return nil
}

// wire frames and parses what a served Put, Get and scan chunk put on the
// connection, including the checksum both ends verify.
func (d *driver) wire() error {
	us := newUpdateStream(d.ks)
	var reqs, resps []byte
	ns := d.timed("wire.encode_req", func() {
		for i := 0; i < d.ops; i++ {
			_, k := us.next()
			reqs = wire.AppendRequest(reqs, &wire.Request{Op: wire.OpPut, ID: uint64(i), Key: k, Val: d.ks.val(k)})
		}
	})
	d.out["wire.encode_req_ns"] = ns / float64(d.ops)
	var err error
	rd, buf := bytes.NewReader(reqs), make([]byte, 0, 64)
	var req wire.Request
	ns = d.timed("wire.decode_req", func() {
		for i := 0; i < d.ops && err == nil; i++ {
			var p []byte
			if p, err = wire.ReadFrame(rd, buf); err == nil {
				err = wire.DecodeRequest(p, &req)
			}
			sink += req.Key
		}
	})
	if err != nil {
		return err
	}
	d.out["wire.decode_req_ns"] = ns / float64(d.ops)

	gs := newGetStream(d.ks)
	ns = d.timed("wire.encode_resp", func() {
		for i := 0; i < d.ops; i++ {
			k, hit := gs.next()
			resps = wire.AppendResponse(resps, &wire.Response{Status: wire.StatusOK, Op: wire.OpGet, ID: uint64(i), Found: hit, Val: d.ks.val(k)})
		}
	})
	d.out["wire.encode_resp_ns"] = ns / float64(d.ops)
	rd = bytes.NewReader(resps)
	var resp wire.Response
	ns = d.timed("wire.decode_resp", func() {
		for i := 0; i < d.ops && err == nil; i++ {
			var p []byte
			if p, err = wire.ReadFrame(rd, buf); err == nil {
				err = wire.DecodeResponse(p, &resp)
			}
			sink += resp.Val
		}
	})
	if err != nil {
		return err
	}
	d.out["wire.decode_resp_ns"] = ns / float64(d.ops)

	// One default-sized scan chunk, framed and parsed over and over.
	const chunk = 1024
	n := int64(min(chunk, int(d.ks.n)))
	ck, cv := make([]int64, n), make([]int64, n)
	for i := range ck {
		ck[i] = d.ks.preKey(int64(i))
		cv[i] = d.ks.val(ck[i])
	}
	rounds := max(1, d.ops/chunk)
	var frame []byte
	cbuf := make([]byte, 0, 32<<10)
	ns = d.timed("wire.scanchunk", func() {
		for i := 0; i < rounds && err == nil; i++ {
			frame = wire.AppendResponse(frame[:0], &wire.Response{Status: wire.StatusScanChunk, Op: wire.OpScan, ID: 1, Keys: ck, Vals: cv})
			var p []byte
			if p, err = wire.ReadFrame(bytes.NewReader(frame), cbuf); err == nil {
				err = wire.DecodeResponse(p, &resp)
			}
			sink += int64(len(resp.Keys))
		}
	})
	if err != nil {
		return err
	}
	d.out["wire.scanchunk_ns_per_pair"] = ns / float64(int64(rounds)*n)
	return nil
}
