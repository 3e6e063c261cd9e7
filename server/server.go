// Package server exposes any pmago.Store over a framed binary TCP protocol
// (pmago/internal/wire): Put, Get, Delete, PutBatch, DeleteBatch, streaming
// Scan and Stats, with per-connection pipelining — many in-flight requests
// per connection, responses matched by request id and free to complete out
// of order.
//
// # Cross-client group commit
//
// Write requests from every connection funnel into one committer goroutine,
// which drains its queue and applies each drain as a single consolidated
// PutBatch (deletes run alongside as individual calls so their removed
// results stay exact). All ops in one drain are mutually concurrent — none
// was acknowledged before any other arrived — so any serialization is
// legal, and the consolidated batch preserves queue order for last-wins
// semantics. Against a durable store under FsyncAlways this turns N
// clients' puts into one WAL record and one shared fsync: the server-level
// mirror of the WAL's own group commit, amortizing the fsync-bound policy
// across clients. An acknowledgment (the response frame) is queued only
// after the store call returns, so whatever durability the backend promises
// per call holds per acknowledged request.
//
// # Backpressure and shutdown
//
// In-flight work is bounded twice: per connection (256 dispatched
// requests) and globally (4096 writes queued for the committer). A request
// over either bound is answered with an explicit busy response — never
// buffered without bound — and the client retries. Shutdown stops reads,
// lets every dispatched request complete and flush, then closes; Close
// tears down immediately.
//
// # Scans and the socket
//
// A scan streams as StatusScanChunk frames and ends with a StatusOK frame.
// A frame is a run of whole chunks copied out of the store the way its Scan
// copies them, stopped once it holds 1024 pairs: 1024 plus at most one
// chunk, fewer only in the last frame. A *PMA or *DB is read that way
// directly; any other Store through Scan, stopped after 1024 pairs and
// resumed at the next key. A scan is cancelled by OpCancel or by the client
// disconnecting, which it notices once per frame, so after a cancel it
// copies at most one more frame. Frames wait in the connection's outbound
// queue, at most scanHighWater of them, so a client that reads slowly
// throttles its own scans and nothing else.
//
// A connection's socket has one writer at a time. The writer goroutine
// drains the outbound queue, one flush per burst; everything the committer
// and the scan goroutines send goes through that queue, so neither ever
// blocks on a client's socket. While the writer is parked on an empty queue
// and no further request is already buffered, the reader goroutine writes
// the responses it produces itself (Get, Stats, validation errors, busy)
// straight to the socket; otherwise they join the queue. Encoded frames
// live in pooled buffers: a frame belongs to the writer once it is sent,
// and whoever writes it to the socket hands the buffer back.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"pmago"
	"pmago/internal/core"
	"pmago/internal/obs"
	"pmago/internal/runs"
	"pmago/internal/wire"
)

// Options tunes a Server. The zero value selects the defaults.
type Options struct {
	// SlowOpThreshold is the slow-op flight recorder's capture threshold: a
	// request whose total handling time reaches it is recorded with its
	// full stage breakdown, readable via SlowOps and the Handler's /slow
	// endpoint (default 20ms; negative disables threshold capture).
	SlowOpThreshold time.Duration
	// SummaryEvery enables a periodic slog summary line — ops/s plus the
	// windowed p99 of every active op — at the given period (0 disables).
	SummaryEvery time.Duration
	// Logger receives connection-level protocol errors (nil: slog.Default).
	Logger *slog.Logger
}

func (o Options) withDefaults() Options {
	switch {
	case o.SlowOpThreshold == 0:
		o.SlowOpThreshold = 20 * time.Millisecond
	case o.SlowOpThreshold < 0:
		o.SlowOpThreshold = 0 // disabled
	}
	if o.Logger == nil {
		o.Logger = slog.Default()
	}
	return o
}

// The serving layer's fixed bounds.
const (
	// maxConnInflight bounds dispatched-but-unanswered requests per
	// connection: the per-connection pipelining window.
	maxConnInflight = 256
	// maxScansPerConn bounds concurrently streaming scans per connection;
	// further scans get busy responses.
	maxScansPerConn = 4
	// commitQueue bounds write requests queued for the committer across
	// all connections: the global in-flight bound.
	commitQueue = 4096
	// maxCommitOps caps how many queued write requests one committer drain
	// coalesces.
	maxCommitOps = 1024
	// scanChunkPairs is the pairs a streamed scan frame holds at least
	// before its last chunk: a frame is a run of whole chunks that stops
	// once it reaches this many, and only a scan's last frame holds fewer.
	scanChunkPairs = 1024
	// slowOpSampleEvery makes the flight recorder also capture every Nth
	// request regardless of latency, so it always holds a baseline to
	// compare slow captures against.
	slowOpSampleEvery = 4096
)

// Server serves one pmago.Store over TCP. Create with New, start with
// Serve or ListenAndServe, stop with Shutdown (graceful) or Close.
type Server struct {
	store   pmago.Store
	readRun runs.Reader // the store's scan, a run of whole chunks at a time
	opts    Options
	m       obs.ServerMetrics
	tr      obs.TraceMetrics // request-path trace section

	sampleTick atomic.Uint64 // uniform 1-in-N flight-recorder sampling

	commitCh chan commitReq

	mu       sync.Mutex
	ln       net.Listener
	conns    map[*conn]struct{}
	draining bool
	closed   bool

	connWg   sync.WaitGroup // live connections
	commitWg sync.WaitGroup // the committer goroutine
	stopOnce sync.Once      // closes commitCh exactly once

	sumStop chan struct{} // summary logger, nil unless SummaryEvery > 0
	sumOnce sync.Once
	sumWg   sync.WaitGroup
}

// New wraps store in an unstarted server. The store is not closed by the
// server — its lifetime stays with the caller.
func New(store pmago.Store, opts Options) *Server {
	s := &Server{
		store:    store,
		readRun:  runs.For(store),
		opts:     opts.withDefaults(),
		conns:    make(map[*conn]struct{}),
		commitCh: make(chan commitReq, commitQueue),
	}
	if s.readRun == nil {
		s.readRun = scanRuns(store)
	}
	if s.opts.SummaryEvery > 0 {
		s.sumStop = make(chan struct{})
		s.sumWg.Add(1)
		go s.summaryLoop()
	}
	s.commitWg.Add(1)
	go s.committer()
	return s
}

// ListenAndServe listens on addr and serves until Shutdown or Close.
func (s *Server) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(ln)
}

// Serve accepts connections on ln until Shutdown/Close (which close ln).
// It returns nil after a clean shutdown, the accept error otherwise.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed || s.draining {
		s.mu.Unlock()
		ln.Close()
		return errors.New("server: already shut down")
	}
	s.ln = ln
	s.mu.Unlock()
	for {
		nc, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			stopped := s.draining || s.closed
			s.mu.Unlock()
			if stopped {
				return nil
			}
			return err
		}
		c := newConn(s, nc)
		s.mu.Lock()
		if s.draining || s.closed {
			s.mu.Unlock()
			nc.Close()
			continue
		}
		s.conns[c] = struct{}{}
		s.connWg.Add(1)
		s.mu.Unlock()
		s.m.ConnsOpened.Inc()
		go c.serve()
	}
}

// Addr returns the listener address ("" before Serve).
func (s *Server) Addr() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Stats snapshots the backing store's metrics with the serving-layer
// section attached; Server satisfies pmago.StatsSource, so pmago.Handler
// can expose a served store on a side HTTP port.
func (s *Server) Stats() pmago.Stats {
	st := s.store.Stats()
	st.Server = s.m.Snapshot()
	st.Trace = s.tr.Snapshot()
	return st
}

// SlowOps returns the slow-op flight recorder's captured requests, newest
// first: every request whose total handling time reached SlowOpThreshold,
// plus a uniform 1-in-4096 sample. pmago.Handler serves the same dump as
// JSON on paths ending in "/slow".
func (s *Server) SlowOps() []obs.SlowOp {
	return s.tr.Slow.Dump()
}

// Shutdown stops accepting, stops reading new requests, waits for every
// dispatched request to be answered and flushed, then closes all
// connections. If ctx expires first the remaining connections are torn
// down immediately and ctx.Err is returned.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.draining = true
	ln := s.ln
	conns := make([]*conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	for _, c := range conns {
		c.beginDrain()
	}
	done := make(chan struct{})
	go func() {
		s.connWg.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		err = ctx.Err()
		for _, c := range conns {
			c.teardown()
		}
		<-done
	}
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.stopOnce.Do(func() { close(s.commitCh) })
	s.commitWg.Wait()
	s.stopSummary()
	return err
}

// Close tears the server down immediately: in-flight requests are
// abandoned (their connections close without final responses).
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.draining = true
	s.closed = true
	ln := s.ln
	conns := make([]*conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	for _, c := range conns {
		c.teardown()
	}
	s.connWg.Wait()
	s.stopOnce.Do(func() { close(s.commitCh) })
	s.commitWg.Wait()
	s.stopSummary()
	return nil
}

func (s *Server) stopSummary() {
	if s.sumStop == nil {
		return
	}
	s.sumOnce.Do(func() { close(s.sumStop) })
	s.sumWg.Wait()
}

// summaryLoop is the periodic operational one-liner: overall request rate
// since the last line plus each active op's windowed p99 — the glanceable
// version of the trace section for log-only environments.
func (s *Server) summaryLoop() {
	defer s.sumWg.Done()
	t := time.NewTicker(s.opts.SummaryEvery)
	defer t.Stop()
	last := time.Now()
	var lastReqs uint64
	for {
		select {
		case <-s.sumStop:
			return
		case now := <-t.C:
			var reqs uint64
			for i := range s.m.Requests {
				reqs += s.m.Requests[i].Load()
			}
			attrs := []any{"ops_per_sec", float64(reqs-lastReqs) / now.Sub(last).Seconds()}
			for op := obs.ServerOp(0); op < obs.NumServerOps; op++ {
				w := s.tr.Total[op].Snapshot()
				if w.Count == 0 {
					continue
				}
				attrs = append(attrs, "p99_"+obs.ServerOpNames[op], time.Duration(w.P99))
			}
			s.opts.Logger.Info("pmago server: summary", attrs...)
			last, lastReqs = now, reqs
		}
	}
}

func (s *Server) removeConn(c *conn) {
	s.mu.Lock()
	_, live := s.conns[c]
	delete(s.conns, c)
	s.mu.Unlock()
	if live {
		s.m.ConnsClosed.Inc()
		s.connWg.Done()
	}
}

// reqTimes carries one request's pipeline timestamps from frame decode to
// response enqueue — the per-request trace context. A zero time marks a
// stage the request never entered (reads skip picked; error responses skip
// the apply pair).
type reqTimes struct {
	start      time.Time // frame payload in hand, decode begins
	decoded    time.Time // request decoded and validated
	picked     time.Time // writes: drained off the commit queue
	applyStart time.Time // store call began
	applyEnd   time.Time // store call returned
}

// commitReq is one write request queued for the committer. Keys/Vals are
// owned by the request (copied out of the connection's decode buffer).
type commitReq struct {
	c        *conn
	op       byte
	id       uint64
	key, val int64
	keys     []int64
	vals     []int64
	rt       reqTimes
}

// committer is the single goroutine all write requests funnel through: it
// blocks for the first queued request, drains whatever else arrived (up to
// maxCommitOps), and applies the drain as one group commit — see the
// package doc. It never blocks sending responses (connection queues are
// bounded by the in-flight tokens their entries hold), so one slow client
// cannot stall another's acknowledgments.
func (s *Server) committer() {
	defer s.commitWg.Done()
	d := drain{s: s}
	var batch []commitReq // grows to the largest drain seen, at most maxCommitOps
	for first := range s.commitCh {
		first.rt.picked = time.Now()
		batch = append(batch[:0], first)
		// Collect window: the channel send that delivered `first` made this
		// goroutine runnable immediately, often before the other connections'
		// readers — which already have frames buffered — got any CPU. Yield a
		// couple of times so every ready reader can enqueue its request, then
		// drain. The yields cost microseconds; the fsync this coalescing
		// shares costs hundreds.
		for spin := 0; ; spin++ {
			// One queue-exit stamp per drain round, shared by the round's
			// requests: per-request precision isn't worth a clock read per op.
			now := time.Now()
		drain:
			for len(batch) < maxCommitOps {
				select {
				case r, ok := <-s.commitCh:
					if !ok {
						break drain
					}
					r.rt.picked = now
					batch = append(batch, r)
				default:
					break drain
				}
			}
			if spin >= 2 || len(batch) >= maxCommitOps {
				break
			}
			runtime.Gosched()
		}
		d.apply(batch)
	}
}

// drain is the committer's working state for one drain of the commit queue.
// The one committer goroutine owns it and resets it per drain — every store
// call a drain spawns has returned before the next drain starts — so a
// drain reuses its scratch, and only one of several store calls allocates
// (their fan-out).
type drain struct {
	s                *Server
	batch            []commitReq
	putKeys, putVals []int64 // the drain's puts, consolidated in queue order
	putErr           error
	results          []delResult // indexed like batch
	calls            []int       // the drain's store calls: putCall, or a delete's index in batch
}

// delResult is one Delete or DeleteBatch's outcome.
type delResult struct {
	removed int64
	err     error
}

// putCall is call's index for the drain's consolidated PutBatch.
const putCall = -1

// maxKeptPutKeys bounds the put scratch kept between drains: a drain of
// huge client batches must not pin its peak for good.
const maxKeptPutKeys = 1 << 14

// apply applies one committer drain. Puts consolidate into a single
// PutBatch in queue order (all ops in a drain are mutually concurrent, so
// this serialization is legal, and order preservation keeps last-wins
// dedup faithful); deletes run as individual concurrent store calls so
// each op's removed result is exact — their WAL appends still share fsyncs
// through the log's own group commit. The committer makes one of the
// drain's store calls itself and fans the others out over a goroutine each
// (core.Fan), so a lone Put or Delete costs no hand-off and no allocation.
func (d *drain) apply(batch []commitReq) {
	s := d.s
	d.batch, d.putErr = batch, nil
	d.putKeys, d.putVals = d.putKeys[:0], d.putVals[:0]
	d.results = append(d.results[:0], make([]delResult, len(batch))...)
	d.calls = d.calls[:0]
	for i := range batch {
		switch r := &batch[i]; r.op {
		case wire.OpPut:
			d.putKeys = append(d.putKeys, r.key)
			d.putVals = append(d.putVals, r.val)
		case wire.OpPutBatch:
			d.putKeys = append(d.putKeys, r.keys...)
			d.putVals = append(d.putVals, r.vals...)
		case wire.OpDelete, wire.OpDeleteBatch:
			d.calls = append(d.calls, i)
		}
	}
	if len(d.putKeys) > 0 {
		d.calls = append(d.calls, putCall)
	}
	tApply := time.Now()
	if len(d.calls) == 1 { // the common lone Put or Delete: no fan-out to allocate
		d.call(d.calls[0])
	} else { // several calls, or none: an empty PutBatch alone makes no call
		core.Fan(len(d.calls), len(d.calls), func(j int) error {
			d.call(d.calls[j])
			return nil
		})
	}
	// The shared store call is every batched request's apply stage: the
	// group commit is one WAL record and one fsync, so its cost is the cost
	// each rider experienced.
	tApplied := time.Now()
	for i := range batch {
		batch[i].rt.applyStart = tApply
		batch[i].rt.applyEnd = tApplied
	}
	s.m.CommitOps.Observe(uint64(len(batch)))
	s.m.CommitKeys.Observe(uint64(len(d.putKeys)))
	for i := range batch {
		r := &batch[i]
		resp := wire.Response{Status: wire.StatusOK, Op: r.op, ID: r.id}
		var err error
		switch r.op {
		case wire.OpPut, wire.OpPutBatch:
			err = d.putErr
		case wire.OpDelete:
			err = d.results[i].err
			resp.Found = d.results[i].removed == 1
		case wire.OpDeleteBatch:
			err = d.results[i].err
			resp.Val = d.results[i].removed
		}
		if err != nil {
			resp = wire.Response{Status: wire.StatusErr, Op: r.op, ID: r.id, Err: err.Error()}
			s.m.Errors.Inc()
		}
		r.c.respond(&resp, obs.ServerOp(r.op-wire.OpPut), r.rt)
	}
	if cap(d.putKeys) > maxKeptPutKeys {
		d.putKeys, d.putVals = nil, nil
	}
}

// call makes one of the drain's store calls: batch[i]'s Delete or
// DeleteBatch, or the consolidated PutBatch. Store panics (a sick WAL,
// rejected input that slipped past validation) become error responses
// rather than killing the server.
func (d *drain) call(i int) {
	s := d.s
	if i == putCall {
		d.putErr = s.apply(func() { s.store.PutBatch(d.putKeys, d.putVals) })
		return
	}
	r, res := &d.batch[i], &d.results[i]
	if r.op == wire.OpDelete {
		var removed bool
		res.err = s.apply(func() { removed = s.store.Delete(r.key) })
		if removed {
			res.removed = 1
		}
		return
	}
	var n int
	res.err = s.apply(func() { n = s.store.DeleteBatch(r.keys) })
	res.removed = int64(n)
}

// nanosBetween is b-a in nanoseconds, 0 when either stamp is missing (a
// stage the request never entered) or the difference is negative.
func nanosBetween(a, b time.Time) uint64 {
	if a.IsZero() || b.IsZero() {
		return 0
	}
	d := b.Sub(a)
	if d < 0 {
		return 0
	}
	return uint64(d)
}

// recordTrace attributes one answered request to the trace section and,
// when slow or sampled, captures its breakdown in the flight recorder. The
// stages partition [rt.start, end] exactly for writes (decode → queue →
// commit-wait → apply → respond); reads leave queue and commit-wait at 0.
// Allocation-free: window observes and a struct copy into the slow ring.
func (s *Server) recordTrace(op obs.ServerOp, rt reqTimes, end time.Time) {
	if rt.start.IsZero() {
		return
	}
	var stages [obs.NumTraceStages]uint64
	stages[obs.StageDecode] = nanosBetween(rt.start, rt.decoded)
	stages[obs.StageQueue] = nanosBetween(rt.decoded, rt.picked)
	stages[obs.StageCommitWait] = nanosBetween(rt.picked, rt.applyStart)
	stages[obs.StageApply] = nanosBetween(rt.applyStart, rt.applyEnd)
	respondFrom := rt.applyEnd
	if respondFrom.IsZero() {
		respondFrom = rt.decoded
	}
	stages[obs.StageRespond] = nanosBetween(respondFrom, end)
	total := nanosBetween(rt.start, end)
	now := end.UnixNano()
	s.tr.Record(op, now, &stages, total)
	sampled := s.sampleTick.Add(1)%slowOpSampleEvery == 0
	slow := s.opts.SlowOpThreshold > 0 && total >= uint64(s.opts.SlowOpThreshold)
	if slow || sampled {
		s.tr.Slow.Record(obs.SlowOp{
			Op:         obs.ServerOpNames[op],
			UnixNanos:  now,
			TotalNanos: total,
			Stages:     stages,
			Sampled:    !slow,
		})
	}
}

// apply runs one store call, converting a panic into an error. A durable
// store's log latches a WAL failure before the writer panics, so a sick
// backend also stays visible through Stats().Err.
func (s *Server) apply(fn func()) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("server: store: %v", r)
		}
	}()
	fn()
	return nil
}

// statsJSON renders the full snapshot for OpStats responses.
func (s *Server) statsJSON() []byte {
	b, err := json.Marshal(s.Stats())
	if err != nil {
		b, _ = json.Marshal(map[string]string{"err": err.Error()})
	}
	return b
}
