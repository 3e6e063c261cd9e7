// Package client is the pipelining client for pmago/server's framed binary
// protocol. One Client multiplexes any number of goroutines over a small
// connection pool: each request gets a fresh id, is written framed to a
// pooled connection, and its caller parks until the per-connection reader
// routes the matching response back by id — so many requests ride the same
// connection concurrently (pipelining), and under a durable backend their
// writes coalesce into the server's cross-client group commit.
//
// Errors: ErrBusy reports the server's explicit backpressure response (the
// request was not executed; retry). ErrTimeout reports a response that did
// not arrive within 10 s (a streaming scan's clock restarts at every chunk)
// — for a write this is ambiguous (the op may still apply). Connection
// failures poison every request in flight on that connection; the next
// request redials.
package client

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"pmago"
	"pmago/internal/obs"
	"pmago/internal/wire"
)

// ErrBusy is returned when the server sheds the request under load: it was
// not executed and can be retried.
var ErrBusy = errors.New("client: server busy")

// ErrTimeout is returned when no response arrived within 10 s.
// The request may or may not have been executed.
var ErrTimeout = errors.New("client: request timed out")

// ErrClosed is returned by operations on a closed client.
var ErrClosed = errors.New("client: closed")

// Options tunes a Client. The zero value selects the defaults.
type Options struct {
	// Conns is the connection-pool size (default 1). Requests round-robin
	// over the pool; pipelining usually saturates a connection long before
	// more are needed.
	Conns int
}

const (
	// requestTimeout bounds each request's wait for a response; streaming
	// scans reset it per chunk.
	requestTimeout = 10 * time.Second
	// maxBatch chunks PutBatch/DeleteBatch calls into requests of at most
	// this many pairs, keeping frames under the protocol's payload bound.
	maxBatch = 65536
)

// Client is a pipelining connection pool to one server. All methods are
// safe for concurrent use.
type Client struct {
	addr    string
	timeout time.Duration // requestTimeout; tests shorten it before the first request
	m       obs.ClientMetrics
	nextID  atomic.Uint64
	next    atomic.Uint64 // round-robin cursor

	mu     sync.Mutex
	conns  []*poolConn // lazily (re)dialed slots
	closed bool
}

// Dial connects to a pmago server. The first pool connection is dialed
// eagerly so configuration errors surface here; the rest dial on demand.
func Dial(addr string, opts Options) (*Client, error) {
	c := &Client{addr: addr, conns: make([]*poolConn, max(opts.Conns, 1)), timeout: requestTimeout}
	pc, err := c.dialSlot(0)
	if err != nil {
		return nil, err
	}
	c.conns[0] = pc
	return c, nil
}

// Close closes every pooled connection. In-flight requests fail.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil
	}
	c.closed = true
	for _, pc := range c.conns {
		if pc != nil {
			pc.fail(ErrClosed)
		}
	}
	return nil
}

// Put durably stores k/v (to whatever durability the server's backend
// acknowledges — see the pmago fsync policies).
func (c *Client) Put(k, v int64) error {
	resp, err := c.roundTrip(&wire.Request{Op: wire.OpPut, Key: k, Val: v})
	if err != nil {
		return err
	}
	return respErr(resp)
}

// Get fetches k.
func (c *Client) Get(k int64) (int64, bool, error) {
	resp, err := c.roundTrip(&wire.Request{Op: wire.OpGet, Key: k})
	if err != nil {
		return 0, false, err
	}
	if err := respErr(resp); err != nil {
		return 0, false, err
	}
	return resp.Val, resp.Found, nil
}

// Delete removes k, reporting whether an element was removed.
func (c *Client) Delete(k int64) (bool, error) {
	resp, err := c.roundTrip(&wire.Request{Op: wire.OpDelete, Key: k})
	if err != nil {
		return false, err
	}
	if err := respErr(resp); err != nil {
		return false, err
	}
	return resp.Found, nil
}

// PutBatch upserts all pairs, splitting into requests of at most 65536
// pairs. Each request is acknowledged as one unit; the call as a whole is
// not atomic (exactly like the embedded PutBatch).
func (c *Client) PutBatch(keys, vals []int64) error {
	if len(keys) != len(vals) {
		return fmt.Errorf("client: PutBatch: %d keys but %d vals", len(keys), len(vals))
	}
	for off := 0; off < len(keys); off += maxBatch {
		end := min(off+maxBatch, len(keys))
		resp, err := c.roundTrip(&wire.Request{Op: wire.OpPutBatch, Keys: keys[off:end], Vals: vals[off:end]})
		if err != nil {
			return err
		}
		if err := respErr(resp); err != nil {
			return err
		}
	}
	return nil
}

// DeleteBatch removes the keys, returning the total number of elements
// removed across its chunked requests.
func (c *Client) DeleteBatch(keys []int64) (int, error) {
	total := 0
	for off := 0; off < len(keys); off += maxBatch {
		end := min(off+maxBatch, len(keys))
		resp, err := c.roundTrip(&wire.Request{Op: wire.OpDeleteBatch, Keys: keys[off:end]})
		if err != nil {
			return total, err
		}
		if err := respErr(resp); err != nil {
			return total, err
		}
		total += int(resp.Val)
	}
	return total, nil
}

// Scan streams all pairs with lo <= key <= hi in ascending order until fn
// returns false. Chunks arrive as the server produces them; returning
// false sends a cancel and drains the remaining stream.
func (c *Client) Scan(lo, hi int64, fn func(k, v int64) bool) error {
	t0 := time.Now()
	pc, err := c.conn()
	if err != nil {
		c.m.Errors.Inc()
		return err
	}
	cl := c.acquireCall()
	id := c.nextID.Add(1)
	if err := pc.issue(id, cl, &wire.Request{Op: wire.OpScan, ID: id, Key: lo, Val: hi}); err != nil {
		cl.abandon()
		c.m.Errors.Inc()
		return err
	}
	tw := time.Now()
	c.m.QueueWait.ObserveAt(tw.UnixNano(), uint64(tw.Sub(t0)))
	c.m.Requests[obs.ServerOpScan].Inc()
	cancelled := false
	for {
		select {
		case r := <-cl.ch:
			resp := &r.resp
			if resp.Status != wire.StatusScanChunk {
				// The stream's final frame: the reader has dropped the id and
				// is done with the call.
				cl.release()
			}
			switch resp.Status {
			case wire.StatusScanChunk:
				if !cancelled {
					for i := range resp.Keys {
						if !fn(resp.Keys[i], resp.Vals[i]) {
							// Stop the server-side stream; keep draining
							// chunks already in flight until the final
							// frame arrives.
							cancelled = true
							_ = pc.write(&wire.Request{Op: wire.OpCancel, ID: id})
							break
						}
					}
				}
				if r.chunk != nil { // done with the pairs: the reader may decode over them
					chunkPool.Put(r.chunk)
				}
				if !cl.timer.Stop() {
					<-cl.timer.C
				}
				cl.timer.Reset(c.timeout)
			case wire.StatusOK:
				// RTT of the whole stream: issue to final frame.
				end := time.Now()
				c.m.RTT[obs.ServerOpScan].ObserveAt(end.UnixNano(), uint64(end.Sub(tw)))
				return nil
			case wire.StatusBusy:
				c.m.Busy.Inc()
				return ErrBusy
			case wire.StatusErr:
				c.m.Errors.Inc()
				return fmt.Errorf("client: server error: %s", resp.Err)
			}
		case <-pc.broken:
			cl.abandon()
			c.m.Errors.Inc()
			return pc.err()
		case <-cl.timer.C:
			pc.forget(id)
			cl.abandon()
			c.m.Timeouts.Inc()
			return ErrTimeout
		}
	}
}

// ClientStats is the client-side latency snapshot returned by LocalStats.
type ClientStats = obs.ClientSnapshot

// LocalStats snapshots this client's own latency recording: queue wait
// (connection checkout + frame write), per-op RTT windows over the trailing
// interval, and outcome counters. RTT minus the server's windowed request
// total approximates network plus the server's inbound read queue — the two
// sides together attribute a slow round trip.
func (c *Client) LocalStats() ClientStats {
	return c.m.Snapshot()
}

// Stats fetches the server's full metrics snapshot — the backing store's
// sections plus the serving layer's.
func (c *Client) Stats() (pmago.Stats, error) {
	var st pmago.Stats
	resp, err := c.roundTrip(&wire.Request{Op: wire.OpStats})
	if err != nil {
		return st, err
	}
	if err := respErr(resp); err != nil {
		return st, err
	}
	if err := json.Unmarshal(resp.Blob, &st); err != nil {
		return st, fmt.Errorf("client: stats decode: %w", err)
	}
	return st, nil
}

func respErr(resp wire.Response) error {
	switch resp.Status {
	case wire.StatusBusy:
		return ErrBusy
	case wire.StatusErr:
		return fmt.Errorf("client: server error: %s", resp.Err)
	}
	return nil
}

// roundTrip issues one single-response request and waits for its response
// or the timeout.
func (c *Client) roundTrip(req *wire.Request) (wire.Response, error) {
	t0 := time.Now()
	pc, err := c.conn()
	if err != nil {
		c.m.Errors.Inc()
		return wire.Response{}, err
	}
	cl := c.acquireCall()
	req.ID = c.nextID.Add(1)
	if err := pc.issue(req.ID, cl, req); err != nil {
		cl.abandon()
		c.m.Errors.Inc()
		return wire.Response{}, err
	}
	op := obs.ServerOp(req.Op - wire.OpPut)
	tw := time.Now()
	c.m.QueueWait.ObserveAt(tw.UnixNano(), uint64(tw.Sub(t0)))
	c.m.Requests[op].Inc()
	select {
	case r := <-cl.ch:
		resp := r.resp
		cl.release()
		end := time.Now()
		c.m.RTT[op].ObserveAt(end.UnixNano(), uint64(end.Sub(tw)))
		switch resp.Status {
		case wire.StatusBusy:
			c.m.Busy.Inc()
		case wire.StatusErr:
			c.m.Errors.Inc()
		}
		return resp, nil
	case <-pc.broken:
		cl.abandon()
		c.m.Errors.Inc()
		return wire.Response{}, pc.err()
	case <-cl.timer.C:
		pc.forget(req.ID)
		cl.abandon()
		c.m.Timeouts.Inc()
		return wire.Response{}, ErrTimeout
	}
}

// conn picks the next pool slot, redialing it if it is missing or dead.
func (c *Client) conn() (*poolConn, error) {
	slot := int(c.next.Add(1)) % len(c.conns)
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, ErrClosed
	}
	pc := c.conns[slot]
	if pc != nil && !pc.dead() {
		c.mu.Unlock()
		return pc, nil
	}
	c.mu.Unlock()
	// Dial outside the lock; a concurrent winner for the same slot is kept.
	fresh, err := c.dialSlot(slot)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		fresh.fail(ErrClosed)
		return nil, ErrClosed
	}
	if cur := c.conns[slot]; cur != nil && !cur.dead() {
		fresh.fail(ErrClosed)
		return cur, nil
	}
	c.conns[slot] = fresh
	return fresh, nil
}

func (c *Client) dialSlot(slot int) (*poolConn, error) {
	nc, err := net.Dial("tcp", c.addr)
	if err != nil {
		return nil, err
	}
	c.m.Dials.Inc()
	pc := &poolConn{nc: nc, broken: make(chan struct{}),
		pending: make(map[uint64]*call)}
	go pc.reader()
	return pc, nil
}

// call parks one request's caller. Scans receive many responses on ch;
// everything else exactly one. A call is recycled (release) once its final
// response is in the caller's hands — the reader dropped the id before
// delivering it and will not touch the call again. A caller that stops
// listening any earlier (timeout, dead connection) abandons the call
// instead: closing done releases a reader blocked on delivery, and the call
// is never reused, so a late delivery cannot reach another request.
type call struct {
	ch    chan reply
	done  chan struct{}
	timer *time.Timer // the response deadline, armed by acquireCall
}

// scanDepth is how many undelivered scan chunks a call buffers between the
// connection's reader and the consumer: enough that neither waits for the
// other while the socket has data, small enough to bound what a slow
// consumer holds.
const scanDepth = 16

var callPool = sync.Pool{New: func() any {
	t := time.NewTimer(time.Hour)
	t.Stop()
	return &call{ch: make(chan reply, scanDepth), done: make(chan struct{}), timer: t}
}}

// reply is one response on its way to a parked caller. A scan chunk's pairs
// come in chunk, which resp.Keys and resp.Vals alias; nil for every other
// response.
type reply struct {
	resp  wire.Response
	chunk *chunkBuf
}

// chunkBuf is one scan chunk's decoded pairs. The connection's reader
// decodes a chunk into a chunkBuf from chunkPool and gives it away with the
// reply; Scan puts it back once its loop over the chunk is done (an early
// stop, or draining after a cancel, included), so a scan in steady state
// decodes into the slices of chunks it has finished with and allocates only
// when none are free. A chunkBuf is in one hand at a time: the reader's, a
// reply's or the pool's, and nothing writes it while a consumer reads it.
// Between scans the pool holds them, so an idle connection keeps none alive
// across two collections.
type chunkBuf struct{ keys, vals []int64 }

var chunkPool = sync.Pool{New: func() any { return new(chunkBuf) }}

func (c *Client) acquireCall() *call {
	cl := callPool.Get().(*call)
	cl.timer.Reset(c.timeout)
	return cl
}

func (cl *call) release() {
	if !cl.timer.Stop() {
		<-cl.timer.C
	}
	callPool.Put(cl)
}

func (cl *call) abandon() {
	cl.timer.Stop()
	close(cl.done)
}

// poolConn is one pooled connection: a writer mutex serializing request
// frames, and a reader goroutine routing responses back by id.
type poolConn struct {
	nc     net.Conn
	broken chan struct{} // closed by fail: wakes every parked caller

	wmu  sync.Mutex
	wbuf []byte

	pmu     sync.Mutex
	pending map[uint64]*call
	failed  error
}

// issue registers the call and writes the request; on write failure the
// call is unregistered and the connection poisoned.
func (pc *poolConn) issue(id uint64, cl *call, req *wire.Request) error {
	pc.pmu.Lock()
	if pc.failed != nil {
		pc.pmu.Unlock()
		return pc.failed
	}
	pc.pending[id] = cl
	pc.pmu.Unlock()
	if err := pc.write(req); err != nil {
		pc.forget(id)
		pc.fail(err)
		return err
	}
	return nil
}

// write frames and sends one request (also used for cancels).
func (pc *poolConn) write(req *wire.Request) error {
	pc.wmu.Lock()
	defer pc.wmu.Unlock()
	pc.wbuf = wire.AppendRequest(pc.wbuf[:0], req)
	_, err := pc.nc.Write(pc.wbuf)
	return err
}

// forget drops a call (timeout, scan done); a response arriving later for
// its id is discarded by the reader.
func (pc *poolConn) forget(id uint64) {
	pc.pmu.Lock()
	delete(pc.pending, id)
	pc.pmu.Unlock()
}

func (pc *poolConn) dead() bool {
	pc.pmu.Lock()
	defer pc.pmu.Unlock()
	return pc.failed != nil
}

func (pc *poolConn) err() error {
	pc.pmu.Lock()
	defer pc.pmu.Unlock()
	if pc.failed == nil {
		return errors.New("client: connection closed")
	}
	return pc.failed
}

// fail poisons the connection: broken wakes every parked caller, and the
// pool redials on next use.
func (pc *poolConn) fail(err error) {
	pc.pmu.Lock()
	if pc.failed == nil {
		pc.failed = err
		clear(pc.pending)
		close(pc.broken)
	}
	pc.pmu.Unlock()
	_ = pc.nc.Close()
}

// reader routes response frames to their parked callers by id. The caller
// consumes the response asynchronously, so nothing it is handed may be
// decoded over: a chunk's pairs go with their chunkBuf and the next frame
// decodes into another, and the Blob (which aliases the frame buffer) is
// copied out.
func (pc *poolConn) reader() {
	br := bufio.NewReaderSize(pc.nc, 64<<10)
	var buf []byte
	var resp wire.Response
	for {
		payload, err := wire.ReadFrame(br, buf)
		if err != nil {
			pc.fail(fmt.Errorf("client: connection lost: %w", err))
			return
		}
		buf = payload
		// A payload opens with its status byte: a scan chunk decodes into
		// a recycled chunkBuf, every other response into nothing.
		var cb *chunkBuf
		resp.Keys, resp.Vals = nil, nil
		if payload[0] == wire.StatusScanChunk {
			cb = chunkPool.Get().(*chunkBuf)
			resp.Keys, resp.Vals = cb.keys, cb.vals
		}
		err = wire.DecodeResponse(payload, &resp)
		if cb != nil {
			cb.keys, cb.vals = resp.Keys, resp.Vals // keep what decoding grew
		}
		if err != nil {
			pc.fail(err)
			return
		}
		pc.pmu.Lock()
		cl := pc.pending[resp.ID]
		if cl != nil && (resp.Status != wire.StatusScanChunk) {
			// Final response for this id; scans keep the entry until their
			// StatusOK/StatusErr frame.
			delete(pc.pending, resp.ID)
		}
		pc.pmu.Unlock()
		if cl == nil {
			if cb != nil {
				chunkPool.Put(cb)
			}
			continue // timed-out or cancelled caller; drop
		}
		out := reply{resp: resp, chunk: cb}
		resp.Keys, resp.Vals = nil, nil
		if len(out.resp.Blob) > 0 {
			out.resp.Blob = append([]byte(nil), out.resp.Blob...)
		}
		// Blocking send preserves chunk order and applies backpressure to
		// the socket when a scan consumer is slow; cl.done releases the
		// reader if the caller stopped listening, and the chunk it was not
		// handed goes back to the pool.
		select {
		case cl.ch <- out:
		case <-cl.done:
			if cb != nil {
				chunkPool.Put(cb)
			}
		}
	}
}
