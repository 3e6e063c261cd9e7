package server

import (
	"bufio"
	"errors"
	"io"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"pmago"
	"pmago/internal/obs"
	"pmago/internal/runs"
	"pmago/internal/wire"
)

// scanHighWater bounds a scan's un-written chunk frames in the outbound
// queue: past it the scan goroutine waits for the writer to catch up, so a
// slow-reading client throttles its own scans without growing the queue.
// Request/response frames are exempt — their count is already bounded by
// the in-flight tokens they hold — which is what lets the committer enqueue
// acknowledgments without ever blocking on a slow connection.
const scanHighWater = 32

// frame is one encoded response on its way to the socket. Frames come from
// framePool and go back to it after the socket write, so whoever hands one
// to send, sendScanChunk or sendFromReader gives it up: it belongs to the
// writer from then on. A buffer that carried a scan chunk keeps that size,
// and the pool keeps nothing alive across two collections — no connection
// holds encode buffers of its own.
type frame struct{ b []byte }

var framePool = sync.Pool{New: func() any { return new(frame) }}

// encodeFrame frames resp into a recycled buffer.
func encodeFrame(resp *wire.Response) *frame {
	f := framePool.Get().(*frame)
	f.b = wire.AppendResponse(f.b[:0], resp)
	return f
}

// scanRun is one streaming scan's frame of pairs, recycled across scans.
type scanRun struct{ keys, vals []int64 }

var scanRunPool = sync.Pool{New: func() any { return new(scanRun) }}

// conn is one client connection: a reader goroutine (frame decode +
// dispatch), a writer goroutine (serialize + flush the outbound queue), and
// up to maxScansPerConn streaming scan goroutines.
//
// The writer goroutine owns the socket's write side except while it is
// parked with an empty queue: then the reader goroutine may borrow it (lent)
// to write a response it produced itself, sparing a Get the wake-up of a
// second goroutine. Nothing else ever writes the socket.
type conn struct {
	srv *Server
	nc  net.Conn

	qmu    sync.Mutex
	qcnd   *sync.Cond
	q      []*frame // encoded frames awaiting the writer
	parked bool     // writer is waiting for work; nothing buffered unflushed (under qmu)
	lent   bool     // reader goroutine is writing the socket (under qmu)
	dead   bool     // no further sends (under qmu)

	tearOnce sync.Once

	pending  sync.WaitGroup // dispatched, not yet answered
	inflight atomic.Int64

	scanSem chan struct{}
	scanMu  sync.Mutex
	scans   map[uint64]chan struct{}

	draining atomic.Bool

	direct bool // reader goroutine only: see serve
}

func newConn(s *Server, nc net.Conn) *conn {
	c := &conn{
		srv:     s,
		nc:      nc,
		scanSem: make(chan struct{}, maxScansPerConn),
		scans:   make(map[uint64]chan struct{}),
	}
	c.qcnd = sync.NewCond(&c.qmu)
	return c
}

// serve is the reader loop: decode a request frame, dispatch, repeat until
// the client disconnects, a frame fails to decode (the stream cannot be
// resynchronized — the connection dies), or shutdown interrupts the read.
func (c *conn) serve() {
	defer c.srv.removeConn(c)
	defer c.teardown()
	go c.writer()
	br := bufio.NewReaderSize(c.nc, 64<<10)
	var buf []byte
	var req wire.Request
	for {
		payload, err := wire.ReadFrame(br, buf)
		if err != nil {
			if c.draining.Load() && errors.Is(err, os.ErrDeadlineExceeded) {
				// Graceful shutdown: answer everything dispatched, flush
				// it onto the wire, then close.
				c.pending.Wait()
				c.waitFlushed()
			} else if !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) {
				c.srv.opts.Logger.Warn("pmago server: connection error",
					"remote", c.nc.RemoteAddr(), "err", err)
			}
			return
		}
		buf = payload
		rt := reqTimes{start: time.Now()}
		c.srv.m.BytesRead.Add(uint64(len(payload)) + 8)
		if err := wire.DecodeRequest(payload, &req); err != nil {
			c.srv.opts.Logger.Warn("pmago server: bad request frame",
				"remote", c.nc.RemoteAddr(), "err", err)
			return
		}
		// A response the reader produces may go straight to the socket only
		// when no further request is already buffered: under pipelining the
		// queue and the writer's one flush per burst stay the cheaper path.
		c.direct = br.Buffered() == 0
		c.dispatch(&req, rt)
	}
}

// dispatch routes one decoded request: reads and stats execute inline
// (they are fast and never block on the store for long), scans stream from
// their own bounded goroutines, writes queue for the committer. Every
// accepted request holds one per-connection in-flight token until its
// (final) response is enqueued; over the token budget — or over the global
// committer queue, or the per-connection scan budget — the request is
// answered with an explicit busy response instead of being buffered.
func (c *conn) dispatch(req *wire.Request, rt reqTimes) {
	s := c.srv
	op := obs.ServerOp(req.Op - wire.OpPut)
	if req.Op == wire.OpCancel {
		// Cancels an in-flight scan by its request id; no response, no
		// token — the scan terminates through its usual final frame.
		c.scanMu.Lock()
		if cancel, ok := c.scans[req.ID]; ok {
			delete(c.scans, req.ID)
			close(cancel)
		}
		c.scanMu.Unlock()
		return
	}
	s.m.Requests[op].Inc()
	errStr := validate(req)
	rt.decoded = time.Now()
	if errStr != "" {
		c.pending.Add(1)
		c.inflight.Add(1)
		s.m.Errors.Inc()
		c.respondFromReader(&wire.Response{Status: wire.StatusErr, Op: req.Op, ID: req.ID, Err: errStr}, op, rt)
		return
	}
	if c.inflight.Add(1) > maxConnInflight {
		c.inflight.Add(-1)
		c.busy(req)
		return
	}
	c.pending.Add(1)
	switch req.Op {
	case wire.OpGet:
		resp := wire.Response{Status: wire.StatusOK, Op: wire.OpGet, ID: req.ID}
		rt.applyStart = time.Now()
		err := s.apply(func() { resp.Val, resp.Found = s.store.Get(req.Key) })
		rt.applyEnd = time.Now()
		if err != nil {
			resp = wire.Response{Status: wire.StatusErr, Op: wire.OpGet, ID: req.ID, Err: err.Error()}
		}
		c.respondFromReader(&resp, op, rt)
	case wire.OpStats:
		rt.applyStart = time.Now()
		blob := s.statsJSON()
		rt.applyEnd = time.Now()
		c.respondFromReader(&wire.Response{Status: wire.StatusOK, Op: wire.OpStats, ID: req.ID, Blob: blob}, op, rt)
	case wire.OpScan:
		select {
		case c.scanSem <- struct{}{}:
		default:
			c.inflight.Add(-1)
			c.pending.Done()
			c.busy(req)
			return
		}
		cancel := make(chan struct{})
		c.scanMu.Lock()
		c.scans[req.ID] = cancel
		c.scanMu.Unlock()
		go c.runScan(req.ID, req.Key, req.Val, cancel, rt)
	default: // writes: queue for the cross-client group commit
		cr := commitReq{c: c, op: req.Op, id: req.ID, key: req.Key, val: req.Val, rt: rt}
		if len(req.Keys) > 0 {
			// The decode buffer is reused for the next frame; the committer
			// needs its own copy.
			cr.keys = append([]int64(nil), req.Keys...)
			if req.Op == wire.OpPutBatch {
				cr.vals = append([]int64(nil), req.Vals...)
			}
		}
		select {
		case s.commitCh <- cr:
		default:
			c.inflight.Add(-1)
			c.pending.Done()
			c.busy(req)
		}
	}
}

// validate rejects requests the store would panic on: the reserved
// sentinel keys (KeyMin/KeyMax fence the array internally) and mismatched
// batch slices (impossible to encode, checked anyway).
func validate(req *wire.Request) string {
	sentinel := func(k int64) bool { return k == pmago.KeyMin || k == pmago.KeyMax }
	switch req.Op {
	case wire.OpPut, wire.OpDelete:
		if sentinel(req.Key) {
			return "reserved sentinel key"
		}
	case wire.OpPutBatch, wire.OpDeleteBatch:
		for _, k := range req.Keys {
			if sentinel(k) {
				return "reserved sentinel key"
			}
		}
	}
	return ""
}

// busy sends the explicit backpressure response.
func (c *conn) busy(req *wire.Request) {
	c.srv.m.Busy.Inc()
	c.sendFromReader(encodeFrame(&wire.Response{Status: wire.StatusBusy, Op: req.Op, ID: req.ID}))
}

// respond enqueues a request's final response; the committer and the scan
// goroutines answer through it, and never touch the socket.
func (c *conn) respond(resp *wire.Response, op obs.ServerOp, rt reqTimes) {
	c.send(encodeFrame(resp))
	c.answered(op, rt)
}

// respondFromReader is respond for the responses dispatch produces on the
// reader goroutine (Get, Stats, validation errors).
func (c *conn) respondFromReader(resp *wire.Response, op obs.ServerOp, rt reqTimes) {
	c.sendFromReader(encodeFrame(resp))
	c.answered(op, rt)
}

// answered attributes a request's latency to the trace section and
// releases its token.
func (c *conn) answered(op obs.ServerOp, rt reqTimes) {
	if op >= 0 && op < obs.NumServerOps {
		c.srv.recordTrace(op, rt, time.Now())
	}
	c.inflight.Add(-1)
	c.pending.Done()
}

// send appends one encoded frame to the outbound queue (dropped when the
// connection is dead) and kicks the writer. It never blocks: queue growth
// is bounded by the in-flight tokens and the scan high-water throttle.
func (c *conn) send(f *frame) bool {
	c.qmu.Lock()
	ok := c.enqueueLocked(f)
	c.qmu.Unlock()
	return ok
}

// enqueueLocked is send's body, under qmu. A parked writer is woken unless
// the reader holds the socket — it wakes the writer when it gives it back.
func (c *conn) enqueueLocked(f *frame) bool {
	if c.dead {
		return false
	}
	c.q = append(c.q, f)
	if c.parked && !c.lent {
		c.qcnd.Broadcast()
	}
	return true
}

// sendScanChunk is send with the high-water throttle: a scan waits for the
// writer (i.e. for the client to read) instead of growing the queue.
func (c *conn) sendScanChunk(f *frame) bool {
	c.qmu.Lock()
	for !c.dead && len(c.q) > scanHighWater {
		c.qcnd.Wait()
	}
	ok := c.enqueueLocked(f)
	c.qmu.Unlock()
	return ok
}

// sendFromReader sends a frame produced on the reader goroutine. With the
// writer parked on an empty queue and no further request buffered, the
// reader writes the socket itself — one goroutine crossing less per Get —
// holding no lock meanwhile, so the committer's sends to this connection
// still return at once; otherwise the frame joins the queue.
func (c *conn) sendFromReader(f *frame) {
	c.qmu.Lock()
	if !c.direct || !c.parked || len(c.q) > 0 || c.dead {
		c.enqueueLocked(f)
		c.qmu.Unlock()
		return
	}
	c.lent = true
	c.qmu.Unlock()
	tw := time.Now()
	_, err := c.nc.Write(f.b)
	c.wrote(len(f.b), tw, err)
	framePool.Put(f)
	c.qmu.Lock()
	c.lent = false
	if len(c.q) > 0 {
		c.qcnd.Broadcast() // queued behind the loan: the writer takes over
	}
	c.qmu.Unlock()
	if err != nil {
		c.teardown()
	}
}

// wrote accounts for one burst of n bytes put on the socket since tw.
func (c *conn) wrote(n int, tw time.Time, err error) {
	c.srv.m.BytesWritten.Add(uint64(n))
	if err == nil {
		// One burst = one syscall; its duration is the outbound half of
		// tail latency the per-stage timers can't see.
		end := time.Now()
		c.srv.tr.Flush.ObserveAt(end.UnixNano(), uint64(end.Sub(tw)))
	}
}

// writer serializes the outbound queue onto the socket, flushing whenever
// it catches up — one syscall per burst under pipelining, per response
// when idle. A frame goes back to the pool as soon as it is copied out.
func (c *conn) writer() {
	bw := bufio.NewWriterSize(c.nc, 64<<10)
	var frames []*frame // the burst being written; swapped with c.q
	for {
		c.qmu.Lock()
		for (len(c.q) == 0 || c.lent) && !c.dead {
			c.parked = true
			c.qcnd.Broadcast() // waitFlushed watchers
			c.qcnd.Wait()
		}
		c.parked = false
		if c.dead {
			c.qmu.Unlock()
			return
		}
		frames, c.q = c.q, frames[:0]
		c.qmu.Unlock()
		tw := time.Now()
		var n int
		var err error
		for i, f := range frames {
			if err == nil {
				_, err = bw.Write(f.b)
				n += len(f.b)
			}
			framePool.Put(f)
			frames[i] = nil
		}
		if err == nil {
			err = bw.Flush()
		}
		c.wrote(n, tw, err)
		if err != nil {
			c.teardown()
			return
		}
		c.qmu.Lock()
		c.qcnd.Broadcast() // scan throttle waiters: space freed
		c.qmu.Unlock()
	}
}

// waitFlushed blocks until the writer has written and flushed every queued
// frame (or the connection died). Only the reader goroutine calls it, so
// the socket is not on loan meanwhile.
func (c *conn) waitFlushed() {
	c.qmu.Lock()
	for !c.dead && (len(c.q) > 0 || !c.parked) {
		c.qcnd.Wait()
	}
	c.qmu.Unlock()
}

// runScan streams one scan as StatusScanChunk frames, ending with a StatusOK
// frame for the same id. One loop fills a frame with a run of whole chunks
// (scanChunkPairs pairs plus at most one chunk), checks for a stop, encodes
// and sends the frame, and resumes where the run ended. It stops early on
// OpCancel, client disconnect, or shutdown teardown, which it notices once
// per frame, so after a cancel lands at most one more frame is copied. The
// final frame is still attempted so a cancelling client sees the stream
// terminate.
func (c *conn) runScan(id uint64, lo, hi int64, cancel chan struct{}, rt reqTimes) {
	s := c.srv
	defer func() {
		<-c.scanSem
		c.scanMu.Lock()
		delete(c.scans, id)
		c.scanMu.Unlock()
	}()
	run := scanRunPool.Get().(*scanRun)
	defer scanRunPool.Put(run)
	stopped := false
	var err error
	rt.applyStart = time.Now()
	for from, more := lo, true; more; {
		err = s.apply(func() {
			run.keys, run.vals, from, more = s.readRun(from, hi, scanChunkPairs, run.keys[:0], run.vals[:0])
		})
		if err != nil || len(run.keys) == 0 { // an empty run is the last
			break
		}
		select {
		case <-cancel:
			stopped = true
		default:
			stopped = !c.sendScanChunk(encodeFrame(&wire.Response{
				Status: wire.StatusScanChunk, Op: wire.OpScan, ID: id, Keys: run.keys, Vals: run.vals,
			}))
		}
		if stopped {
			break
		}
		s.m.ScanChunks.Inc()
	}
	rt.applyEnd = time.Now()
	if stopped {
		s.m.ScanCancels.Inc()
	}
	resp := wire.Response{Status: wire.StatusOK, Op: wire.OpScan, ID: id}
	if err != nil {
		resp = wire.Response{Status: wire.StatusErr, Op: wire.OpScan, ID: id, Err: err.Error()}
		s.m.Errors.Inc()
	}
	c.respond(&resp, obs.ServerOpScan, rt)
}

// scanRuns is the run reader of a store that has none of its own (a
// Sharded store, a wrapper): a run is Scan stopped after n pairs, and the
// next resumes at the key after its last.
func scanRuns(store pmago.Store) runs.Reader {
	return func(lo, hi int64, n int, ks, vs []int64) ([]int64, []int64, int64, bool) {
		resume, more := hi, false
		store.Scan(lo, hi, func(k, v int64) bool {
			ks, vs = append(ks, k), append(vs, v)
			if len(ks) < n {
				return true
			}
			resume, more = k+1, k < hi // k < hi: k+1 does not overflow
			return false
		})
		return ks, vs, resume, more
	}
}

// beginDrain (graceful shutdown) stops the reader by expiring its blocked
// read; dispatched requests keep completing.
func (c *conn) beginDrain() {
	c.draining.Store(true)
	_ = c.nc.SetReadDeadline(time.Now())
}

// teardown kills the connection now: marks it dead (senders drop, so a scan
// stops at its next frame), wakes the writer and throttled scans, and closes
// the socket.
func (c *conn) teardown() {
	c.tearOnce.Do(func() {
		c.qmu.Lock()
		c.dead = true
		c.qmu.Unlock()
		c.qcnd.Broadcast()
		_ = c.nc.Close()
	})
}
