package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sync/atomic"
	"time"

	"pmago"
)

// Tracing records one span around every call the benchmark makes into the
// system, from the benchmark's own files; spans inside the program are a
// later change. Spans go to preallocated in-memory buffers and reach the
// span file only after the run. On served the backend behind the server is
// wrapped in spanStore, so a client span has the store calls it caused as
// children and the wire, server and client share is what the children do
// not cover.

// Span names.
const (
	spPut = iota
	spDelete
	spGet
	spScanShort
	spScanLong
	spPutBatch
	spCheckpoint
	spStoreGet
	spStorePut
	spStoreDelete
	spStorePutBatch
	spStoreDeleteBatch
	spStoreScan
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"put", "delete", "get", "scan_short", "scan_long", "put_batch", "checkpoint",
	"store.get", "store.put", "store.delete", "store.put_batch", "store.delete_batch", "store.scan",
}

// Phases, as span labels and as indexes of the per-phase records.
const (
	phRW = iota
	phScan
	phCheckpoint
	phIngest
	numPhases
)

var phaseNames = [numPhases]string{"rw", "scan", "checkpoint", "ingest"}

// span is one call by a load goroutine. Its request number is its index in
// the goroutine's buffer.
type span struct {
	start int64  // ns on the run clock
	dur   uint32 // ns, saturating
	name  uint8
	phase uint8
}

// spanBuf is one load goroutine's span buffer.
type spanBuf struct {
	spans   []span
	dropped int64
}

func (b *spanBuf) add(name, phase int, t0, t1 int64) {
	if len(b.spans) == cap(b.spans) {
		b.dropped++
		return
	}
	d := t1 - t0
	if d > math.MaxUint32 {
		d = math.MaxUint32
	}
	b.spans = append(b.spans, span{start: t0, dur: uint32(d), name: uint8(name), phase: uint8(phase)})
}

// storeSpan is one call the server made into the backend, with the request
// of each load goroutine that was waiting on it (-1 for none).
type storeSpan struct {
	start, end int64
	parent     [2]int32
	name       uint8
}

// driveSpan is one layer drive.
type driveSpan struct {
	name       string
	start, end int64
}

// noKey marks a load goroutine with no request in flight.
const noKey = math.MinInt64

// tracer holds every buffer of a traced run. It is allocated once per
// process and reused by the sub-runs, so traced and untraced sub-runs see
// the same heap.
type tracer struct {
	base  time.Time // the clock every span is on: the traced run's
	bufs  [2]spanBuf
	store []storeSpan
	nst   atomic.Int64 // store spans claimed
	drive []driveSpan

	// inflight is what each load goroutine is waiting for: the key that
	// identifies its request at the backend and the request's number.
	inflight [2]struct {
		key atomic.Int64
		req atomic.Int64
		_   [48]byte
	}
}

func newTracer(spansPerGoroutine, storeSpans int) *tracer {
	t := &tracer{store: make([]storeSpan, storeSpans)}
	for g := range t.bufs {
		t.bufs[g].spans = make([]span, 0, spansPerGoroutine)
		t.inflight[g].key.Store(noKey)
	}
	return t
}

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

// reset empties the buffers for a traced run whose clock starts at base.
func (t *tracer) reset(base time.Time) {
	t.base = base
	t.drive = t.drive[:0]
	for g := range t.bufs {
		t.bufs[g].spans = t.bufs[g].spans[:0]
		t.bufs[g].dropped = 0
	}
	t.nst.Store(0)
}

// begin publishes goroutine g's next request before it is issued.
func (t *tracer) begin(g int, key int64) {
	t.inflight[g].req.Store(int64(len(t.bufs[g].spans)))
	t.inflight[g].key.Store(key)
}

func (t *tracer) end(g int) { t.inflight[g].key.Store(noKey) }

// record stores one backend call and links it to the waiting requests
// whose key it carries.
func (t *tracer) record(name int, t0, t1 int64, match func(key int64) bool) {
	i := t.nst.Add(1) - 1
	if i >= int64(len(t.store)) {
		return
	}
	s := storeSpan{start: t0, end: t1, name: uint8(name), parent: [2]int32{-1, -1}}
	for g := range t.inflight {
		if k := t.inflight[g].key.Load(); k != noKey && match(k) {
			s.parent[g] = int32(t.inflight[g].req.Load())
		}
	}
	t.store[i] = s
}

func (t *tracer) storeSpans() []storeSpan {
	return t.store[:min(t.nst.Load(), int64(len(t.store)))]
}

func (t *tracer) count() int64 {
	return int64(len(t.bufs[0].spans)+len(t.bufs[1].spans)+len(t.drive)) + int64(len(t.storeSpans()))
}

// spanStore decorates the backend the server fronts. server.New takes the
// pmago.Store interface, which is the one public seam between the serving
// layer and the store.
type spanStore struct {
	pmago.Store
	t *tracer
}

func (s spanStore) Get(k int64) (int64, bool) {
	t0 := s.t.now()
	v, ok := s.Store.Get(k)
	s.t.record(spStoreGet, t0, s.t.now(), func(key int64) bool { return key == k })
	return v, ok
}

func (s spanStore) Put(k, v int64) {
	t0 := s.t.now()
	s.Store.Put(k, v)
	s.t.record(spStorePut, t0, s.t.now(), func(key int64) bool { return key == k })
}

func (s spanStore) Delete(k int64) bool {
	t0 := s.t.now()
	ok := s.Store.Delete(k)
	s.t.record(spStoreDelete, t0, s.t.now(), func(key int64) bool { return key == k })
	return ok
}

func containsKey(keys []int64) func(int64) bool {
	return func(key int64) bool {
		for _, k := range keys {
			if k == key {
				return true
			}
		}
		return false
	}
}

func (s spanStore) PutBatch(keys, vals []int64) {
	t0 := s.t.now()
	s.Store.PutBatch(keys, vals)
	s.t.record(spStorePutBatch, t0, s.t.now(), containsKey(keys))
}

func (s spanStore) DeleteBatch(keys []int64) int {
	t0 := s.t.now()
	n := s.Store.DeleteBatch(keys)
	s.t.record(spStoreDeleteBatch, t0, s.t.now(), containsKey(keys))
	return n
}

func (s spanStore) Scan(lo, hi int64, fn func(k, v int64) bool) {
	t0 := s.t.now()
	s.Store.Scan(lo, hi, fn)
	s.t.record(spStoreScan, t0, s.t.now(), func(key int64) bool { return key == lo })
}

// selfTime is the split of the client spans of one kind: total time, the
// part their store children cover, and the rest, which belongs to wire,
// server and client.
type selfTime struct {
	Spans   int64   `json:"spans"`
	TotalNs float64 `json:"total_ns"`
	ChildNs float64 `json:"child_ns"`
	SelfNs  float64 `json:"self_ns"`
}

// storeShare is the store's part of the client span time of some kinds of
// span taken together.
func storeShare(kinds ...selfTime) float64 {
	var child, total float64
	for _, s := range kinds {
		child += s.ChildNs
		total += s.TotalNs
	}
	return ratio(child, total)
}

// selfTimes attributes every store span to the client spans that waited on
// it, clipped to the client span, and sums per client span name. A store
// call that served two requests at once (a group commit) covers both.
func (t *tracer) selfTimes() [numSpanNames]selfTime {
	covered := [2][]int64{make([]int64, len(t.bufs[0].spans)), make([]int64, len(t.bufs[1].spans))}
	for _, c := range t.storeSpans() {
		for g, req := range c.parent {
			if req < 0 || int(req) >= len(covered[g]) {
				continue
			}
			p := t.bufs[g].spans[req]
			lo, hi := max(c.start, p.start), min(c.end, p.start+int64(p.dur))
			if hi > lo {
				covered[g][req] += hi - lo
			}
		}
	}
	var out [numSpanNames]selfTime
	for g := range t.bufs {
		for i, s := range t.bufs[g].spans {
			c := min(covered[g][i], int64(s.dur))
			o := &out[s.name]
			o.Spans++
			o.TotalNs += float64(s.dur)
			o.ChildNs += float64(c)
			o.SelfNs += float64(int64(s.dur) - c)
		}
	}
	return out
}

// spanLine is one span in the span file.
type spanLine struct {
	Name      string `json:"name"`
	Workload  string `json:"workload"`
	Phase     string `json:"phase,omitempty"`
	Goroutine string `json:"goroutine"`
	Req       int64  `json:"req"`
	Parent    *int64 `json:"parent"`
	StartNs   int64  `json:"start_ns"`
	EndNs     int64  `json:"end_ns"`
}

// reqID is the identifier the spans of one request share.
func reqID(g int, n int64) int64 { return int64(g)<<32 | n }

// traceMaxSpans is the most client spans the span file holds.
const traceMaxSpans = 50000

// writeSpans writes the span file: a header line, then one JSON line per
// span. A run records millions of spans, so at most traceMaxSpans client
// spans are written, evenly strided over each goroutine's requests, each
// with its store children; the header states how many were recorded.
func (t *tracer) writeSpans(path, workload string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	enc := json.NewEncoder(w)
	total := len(t.bufs[0].spans) + len(t.bufs[1].spans)
	stride := int64(1)
	if total > traceMaxSpans {
		stride = int64((total + traceMaxSpans - 1) / traceMaxSpans)
	}
	err = enc.Encode(map[string]any{
		"workload": workload, "client_spans": total, "store_spans": len(t.storeSpans()),
		"dropped": t.bufs[0].dropped + t.bufs[1].dropped, "written_every": stride,
		"fields": "name, workload, phase, goroutine, req (shared by the spans of one request), parent (req of the causing span), start_ns, end_ns",
	})
	for g := range t.bufs {
		for i := int64(0); err == nil && i < int64(len(t.bufs[g].spans)); i += stride {
			s := t.bufs[g].spans[i]
			err = enc.Encode(spanLine{Name: spanNames[s.name], Workload: workload, Phase: phaseNames[s.phase],
				Goroutine: fmt.Sprintf("G%d", g), Req: reqID(g, i), StartNs: s.start, EndNs: s.start + int64(s.dur)})
		}
	}
	for _, c := range t.storeSpans() {
		for g, req := range c.parent {
			if err != nil || req < 0 || int64(req)%stride != 0 {
				continue
			}
			id := reqID(g, int64(req))
			err = enc.Encode(spanLine{Name: spanNames[c.name], Workload: workload, Goroutine: "server",
				Req: id, Parent: &id, StartNs: c.start, EndNs: c.end})
		}
	}
	for i, d := range t.drive {
		if err != nil {
			break
		}
		err = enc.Encode(spanLine{Name: d.name, Workload: workload, Goroutine: "drive",
			Req: reqID(3, int64(i)), StartNs: d.start, EndNs: d.end})
	}
	if ferr := w.Flush(); err == nil {
		err = ferr
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
