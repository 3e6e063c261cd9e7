package server

import (
	"errors"
	"io"
	"math"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pmago"
	"pmago/client"
	"pmago/internal/wire"
)

// testConn is a connection with a running writer whose peer discards
// everything; the test plays the reader goroutine and calls dispatch itself.
func testConn(t *testing.T, s *Server) *conn {
	t.Helper()
	a, b := net.Pipe()
	go io.Copy(io.Discard, b)
	c := newConn(s, a)
	go c.writer()
	t.Cleanup(func() {
		c.teardown()
		b.Close()
	})
	return c
}

// pausingStore counts the scan callback's runs and parks the scan once,
// after pauseAt pairs, until resume is closed.
type pausingStore struct {
	pmago.Store
	pauseAt int64
	paused  chan struct{}
	resume  chan struct{}
	calls   atomic.Int64
}

func (p *pausingStore) Scan(lo, hi int64, fn func(k, v int64) bool) {
	p.Store.Scan(lo, hi, func(k, v int64) bool {
		if p.calls.Add(1) == p.pauseAt+1 {
			close(p.paused)
			<-p.resume
		}
		return fn(k, v)
	})
}

// TestScanStopsWithinOneChunk pins the cancel granularity: the scan looks
// for a stop once per chunk, so after an OpCancel or a disconnect lands
// mid-chunk the store's callback runs on for less than one chunk more.
func TestScanStopsWithinOneChunk(t *testing.T) {
	const chunk, total, pauseAt = scanChunkPairs, scanChunkPairs * 50, scanChunkPairs*3 + 10
	keys := make([]int64, total)
	for i := range keys {
		keys[i] = int64(i)
	}
	for _, tc := range []struct {
		name string
		stop func(c *conn)
	}{
		{"cancel", func(c *conn) { c.dispatch(&wire.Request{Op: wire.OpCancel, ID: 1}, reqTimes{}) }},
		{"disconnect", func(c *conn) { c.teardown() }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p, err := pmago.BulkLoad(keys, keys)
			if err != nil {
				t.Fatal(err)
			}
			defer p.Close()
			store := &pausingStore{Store: p, pauseAt: pauseAt, paused: make(chan struct{}), resume: make(chan struct{})}
			s := New(store, Options{})
			defer s.Close()
			c := testConn(t, s)
			c.dispatch(&wire.Request{Op: wire.OpScan, ID: 1, Key: 0, Val: math.MaxInt64 - 1}, reqTimes{})
			<-store.paused
			tc.stop(c)
			close(store.resume)
			c.pending.Wait() // the scan answered: its goroutine is past the store call
			after := store.calls.Load() - pauseAt
			if after > chunk {
				t.Fatalf("callback ran %d times after the stop, more than one %d-pair chunk", after, chunk)
			}
			if got := s.Stats().Server.ScanCancels; got != 1 {
				t.Fatalf("ScanCancels = %d, want 1", got)
			}
		})
	}
}

// TestScanRunStopsWithinOneFrame is the same pin for a store read a run of
// whole chunks at a time: a *PMA, whose runs the test counts and pauses at
// the server's run reader. The stop lands just before a run; that run is
// still copied and none after it, so after an OpCancel or a disconnect the
// store copies at most one frame more — scanChunkPairs pairs plus one
// chunk.
func TestScanRunStopsWithinOneFrame(t *testing.T) {
	// Segments of 8 slots, the default 8 to a gate: a chunk holds at most 64
	// pairs.
	const chunkSlots, total, pauseAt = 8 * 8, scanChunkPairs * 50, 4
	keys := make([]int64, total)
	for i := range keys {
		keys[i] = int64(i)
	}
	for _, tc := range []struct {
		name string
		stop func(c *conn)
	}{
		{"cancel", func(c *conn) { c.dispatch(&wire.Request{Op: wire.OpCancel, ID: 1}, reqTimes{}) }},
		{"disconnect", func(c *conn) { c.teardown() }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p, err := pmago.BulkLoad(keys, keys, pmago.WithSegmentCapacity(8))
			if err != nil {
				t.Fatal(err)
			}
			defer p.Close()
			s := New(p, Options{})
			defer s.Close()
			read := s.readRun
			var runs, copied, atStop atomic.Int64
			paused, resume := make(chan struct{}), make(chan struct{})
			s.readRun = func(lo, hi int64, n int, ks, vs []int64) ([]int64, []int64, int64, bool) {
				if runs.Add(1) == pauseAt {
					atStop.Store(copied.Load())
					close(paused)
					<-resume
				}
				ks, vs, from, more := read(lo, hi, n, ks, vs)
				if more && (len(ks) < n || len(ks) >= n+chunkSlots) {
					t.Errorf("a run of %d pairs: a frame holds %d plus less than one chunk", len(ks), n)
				}
				copied.Add(int64(len(ks)))
				return ks, vs, from, more
			}
			c := testConn(t, s)
			c.dispatch(&wire.Request{Op: wire.OpScan, ID: 1, Key: 0, Val: math.MaxInt64 - 1}, reqTimes{})
			<-paused
			tc.stop(c)
			close(resume)
			c.pending.Wait() // the scan answered: its goroutine is past its last run
			if n := runs.Load(); n != pauseAt {
				t.Fatalf("%d runs read, %d of them after the stop; want the one in progress", n, n-pauseAt+1)
			}
			if after := copied.Load() - atStop.Load(); after >= scanChunkPairs+chunkSlots {
				t.Fatalf("%d pairs copied after the stop, more than one frame", after)
			}
			if got := s.Stats().Server.ScanCancels; got != 1 {
				t.Fatalf("ScanCancels = %d, want 1", got)
			}
		})
	}
}

// TestScanRunsResume: the runs of a store read through Scan (a wrapper hides
// the *PMA's run reader), each resumed where the last one ended, hand over
// every pair of the range once and in order, n pairs a run; a run whose
// n-th pair is hi reports nothing left, a range whose last run is full
// ends with an empty one, and an empty range reads nothing.
func TestScanRunsResume(t *testing.T) {
	const n = scanChunkPairs
	keys := make([]int64, 3*n) // key i at index i: a resume past the next key skips a pair
	for i := range keys {
		keys[i] = int64(i)
	}
	p, err := pmago.BulkLoad(keys, keys)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	read := scanRuns(struct{ pmago.Store }{p})
	for _, tc := range []struct {
		hi   int64
		runs int
	}{
		{keys[2*n-1], 2},           // the second run's n-th pair is hi
		{keys[len(keys)-1] + 1, 4}, // three full runs, then an empty one
		{keys[n+7], 2},             // the second run stops at hi
	} {
		hi := tc.hi
		var got []int64
		runs := 0
		for from, more := int64(0), true; more; runs++ {
			var ks []int64
			ks, _, from, more = read(from, hi, n, nil, nil)
			if more && len(ks) != n {
				t.Fatalf("hi %d: run %d holds %d pairs and more remain, want %d", hi, runs, len(ks), n)
			}
			got = append(got, ks...)
		}
		want := keys[:min(hi+1, int64(len(keys)))]
		if !slices.Equal(got, want) || runs != tc.runs {
			t.Fatalf("hi %d: %d runs read %d pairs, want %d runs of the %d in order", hi, runs, len(got), tc.runs, len(want))
		}
	}
	if ks, _, _, more := read(10, 5, n, nil, nil); len(ks) != 0 || more {
		t.Fatalf("empty range: %d pairs, more %v", len(ks), more)
	}
}

// meetingStore makes PutBatch and Delete wait for each other: each returns
// only once both are inside the store.
type meetingStore struct {
	pmago.Store
	putIn, delIn chan struct{}
	missed       atomic.Bool
}

func (m *meetingStore) meet(mine, theirs chan struct{}) {
	close(mine)
	select {
	case <-theirs:
	case <-time.After(5 * time.Second):
		m.missed.Store(true)
	}
}

func (m *meetingStore) PutBatch(keys, vals []int64) {
	m.meet(m.putIn, m.delIn)
	m.Store.PutBatch(keys, vals)
}

func (m *meetingStore) Delete(k int64) bool {
	m.meet(m.delIn, m.putIn)
	return m.Store.Delete(k)
}

// TestDrainRunsPutAndDeleteConcurrently: the committer makes one store call
// of a drain itself, but a drain's calls still overlap — a Put and a Delete
// drained together are both inside the store at once (their WAL appends
// share an fsync that way).
func TestDrainRunsPutAndDeleteConcurrently(t *testing.T) {
	p, err := pmago.New()
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	p.Put(2, 20)
	store := &meetingStore{Store: p, putIn: make(chan struct{}), delIn: make(chan struct{})}
	s := New(store, Options{})
	defer s.Close()
	c := testConn(t, s)
	d := drain{s: s}
	for range 2 { // what dispatch does per accepted request
		c.pending.Add(1)
		c.inflight.Add(1)
	}
	d.apply([]commitReq{
		{c: c, op: wire.OpPut, id: 1, key: 1, val: 10},
		{c: c, op: wire.OpDelete, id: 2, key: 2},
	})
	if store.missed.Load() {
		t.Fatal("the drain's Put and Delete did not overlap")
	}
	if v, ok := p.Get(1); !ok || v != 10 {
		t.Fatalf("Get(1) = %d,%v after the drain", v, ok)
	}
	if _, ok := p.Get(2); ok {
		t.Fatal("key 2 survived the drain's Delete")
	}
	if r := d.results[1]; r.err != nil || r.removed != 1 {
		t.Fatalf("delete result %+v, want one key removed", r)
	}
	c.pending.Wait() // both answered
}

// stalledStore parks every PutBatch (what the committer makes of Puts)
// until resume is called.
type stalledStore struct {
	pmago.Store
	gate chan struct{}
	once sync.Once
}

func (g *stalledStore) resume() { g.once.Do(func() { close(g.gate) }) }

func (g *stalledStore) PutBatch(keys, vals []int64) {
	<-g.gate
	g.Store.PutBatch(keys, vals)
}

// TestBusyBackpressure: while the store is stalled, one connection gets
// exactly maxConnInflight writes dispatched, and every write past that
// window is answered busy at once instead of being buffered; the
// dispatched ones complete when the store resumes.
func TestBusyBackpressure(t *testing.T) {
	p, err := pmago.New()
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	store := &stalledStore{Store: p, gate: make(chan struct{})}
	s := New(store, Options{})
	defer s.Close()
	defer store.resume() // before Close: a stalled committer would hold it up
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(ln)
	cl, err := client.Dial(ln.Addr().String(), client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	const n, over = maxConnInflight + 40, 40
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		go func() { errs <- cl.Put(int64(i), int64(i)) }()
	}
	for i := 0; i < over; i++ {
		select {
		case err := <-errs:
			if !errors.Is(err, client.ErrBusy) {
				t.Fatalf("Put past the window with the store stalled: %v, want ErrBusy", err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%d of %d writes past the window answered busy", i, over)
		}
	}
	store.resume()
	for i := 0; i < maxConnInflight; i++ {
		if err := <-errs; err != nil {
			t.Fatalf("dispatched Put: %v", err)
		}
	}
	if got := s.Stats().Server.Busy; got != over {
		t.Fatalf("Busy = %d, want %d", got, over)
	}
	if p.Flush(); p.Len() != maxConnInflight {
		t.Fatalf("%d keys stored, want the %d dispatched", p.Len(), maxConnInflight)
	}
}
