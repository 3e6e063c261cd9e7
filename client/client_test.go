package client

import (
	"errors"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pmago"
	"pmago/server"
)

// serverChunk is the pairs a server scan frame holds at least (every frame
// but the last): 1024, plus at most one chunk of the store.
const serverChunk = 1024

// serve fronts store with a server on loopback and dials one client.
func serve(t *testing.T, store pmago.Store) *Client {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(store, server.Options{})
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	cl, err := Dial(ln.Addr().String(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return cl
}

// loaded returns a store holding keys 0..n-1, key k valued -k.
func loaded(t *testing.T, n int) *pmago.PMA {
	t.Helper()
	keys, vals := make([]int64, n), make([]int64, n)
	for i := range keys {
		keys[i], vals[i] = int64(i), -int64(i)
	}
	p, err := pmago.BulkLoad(keys, vals)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	return p
}

// TestScanChunksIntactWhileReaderRunsAhead: the connection's reader hands a
// chunk's slices to the consumer and decodes the next frames into fresh
// ones. A consumer slower than the socket lets the reader get scanDepth
// chunks ahead; every pair it then reads from an older chunk must still be
// the pair the server sent (and the race detector must see no write to a
// slice the consumer is reading).
func TestScanChunksIntactWhileReaderRunsAhead(t *testing.T) {
	const chunk, n = serverChunk, serverChunk * 40
	cl := serve(t, loaded(t, n))
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ { // two scans share the connection's reader
		wg.Add(1)
		go func() {
			defer wg.Done()
			next := int64(0)
			err := cl.Scan(0, n, func(k, v int64) bool {
				if k != next || v != -k {
					t.Errorf("pair %d: got %d/%d", next, k, v)
					return false
				}
				if next++; next%chunk == 1 {
					time.Sleep(50 * time.Microsecond) // first pair of a chunk: let the reader run ahead
				}
				return true
			})
			if err != nil || next != n {
				t.Errorf("scan delivered %d of %d pairs: %v", next, n, err)
			}
		}()
	}
	wg.Wait()
}

// TestScanChunkDecodeDoesNotAllocate: once warm, the connection's reader
// decodes every chunk into the slices of chunks the scan has finished
// with, so what a whole Scan allocates — client and server together — is a
// few objects a scan, about as many for 64 chunks as for 4, not two slices
// a chunk.
func TestScanChunkDecodeDoesNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector")
	}
	const n = 1 << 16
	cl := serve(t, loaded(t, n))
	allocs := func(hi int64) float64 {
		return testing.AllocsPerRun(20, func() {
			got := int64(0)
			if err := cl.Scan(0, hi, func(k, v int64) bool { got++; return true }); err != nil || got != hi+1 {
				t.Fatalf("Scan[0,%d] delivered %d pairs: %v", hi, got, err)
			}
		})
	}
	short, whole := allocs(4*serverChunk-1), allocs(n-1)
	t.Logf("allocations a scan: %v of 4 chunks, %v of 64", short, whole)
	if whole > 16 || whole > short+4 {
		t.Fatalf("a scan of 4 chunks allocates %v times, of 64 chunks %v: decoding allocates per chunk", short, whole)
	}
}

// TestServedScanBesideWriter runs wide scans through the client while one
// writer overwrites every 8th key and inserts and deletes odd keys of the
// served store, whose small segments keep fences moving. The server reads a
// *PMA a run of whole chunks at a time and resumes each run at the next
// chunk's lower fence: a scan must be strictly ascending, see every loaded
// key exactly once (the writer overwrites some but deletes none), those the
// writer leaves alone with their loaded values, and read every other key
// with a value the writer wrote — a run resumed past a fence would skip
// pairs, one resumed at a stale fence repeat them.
func TestServedScanBesideWriter(t *testing.T) {
	const n, window = 1 << 17, 1 << 15 // even keys below n are loaded: 2^16 pairs
	var keys, vals []int64
	for k := int64(0); k < n; k += 2 {
		keys, vals = append(keys, k), append(vals, k)
	}
	p, err := pmago.BulkLoad(keys, vals, pmago.WithMode(pmago.ModeBatch), pmago.WithSegmentCapacity(8), pmago.WithTDelay(0))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	cl := serve(t, p)
	// Keys divisible by 8 are overwritten, odd keys come and go; a written
	// value carries its key in the low 32 bits and the round above them.
	touched := func(k int64) bool { return k%8 == 0 || k%2 != 0 }
	wrote := func(k, v int64) bool { return v&(1<<32-1) == k && v>>32 > 0 }

	var stop atomic.Bool
	var rounds atomic.Int64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(9))
		var odd []int64
		for r := int64(1); !stop.Load(); r++ {
			for k := int64(0); k < n; k += 8 << (r % 4) {
				p.Put(k, k|r<<32)
			}
			if len(odd) > 0 && r%2 == 0 {
				p.DeleteBatch(odd)
				p.Delete(odd[0] + 2*int64(len(odd)))
			}
			base := rng.Int63n(n/2) | 1
			odd = odd[:0]
			vs := make([]int64, 0, 512)
			for k := base; k < base+1024; k += 2 {
				odd, vs = append(odd, k), append(vs, k|r<<32)
			}
			p.PutBatch(odd, vs)
			p.Put(base+1024, (base+1024)|r<<32)
			rounds.Store(r)
		}
	}()
	defer func() { stop.Store(true); wg.Wait() }()

	rng := rand.New(rand.NewSource(10))
	// At least 24 scans, and as many as it takes for the writer to go
	// round 50 times beside them.
	for scan := 0; scan < 24 || rounds.Load() < 50; scan++ {
		lo := rng.Int63n(n - window)
		hi := lo + window - 1
		loadedSeen, last := 0, int64(pmago.KeyMin)
		var bad string
		err := cl.Scan(lo, hi, func(k, v int64) bool {
			switch {
			case k <= last || k < lo || k > hi:
				bad = "out of order or out of range"
			case !touched(k) && v != k:
				bad = "a key the writer leaves alone changed its value"
			case touched(k) && v != k && !wrote(k, v):
				bad = "a value nobody wrote"
			}
			if bad != "" {
				t.Errorf("Scan[%d,%d]: key %d (after %d) value %#x: %s", lo, hi, k, last, v, bad)
				return false
			}
			if k%2 == 0 {
				loadedSeen++
			}
			last = k
			return true
		})
		if err != nil {
			t.Fatalf("Scan[%d,%d]: %v", lo, hi, err)
		}
		if bad != "" {
			return
		}
		if want := int(hi/2 - (lo+1)/2 + 1); loadedSeen != want { // the even keys in [lo, hi], lo >= 0
			t.Fatalf("Scan[%d,%d] saw %d of its %d loaded keys", lo, hi, loadedSeen, want)
		}
	}
}

// TestScanEarlyStopDrains: a consumer that stops early still reads the
// stream to its final frame — the scan's RTT, observed only there, is
// recorded — so the recycled call carries no stale chunk into the next
// request and the connection stays in step.
func TestScanEarlyStopDrains(t *testing.T) {
	const n = 1 << 16
	cl := serve(t, loaded(t, n))
	const rounds = 50
	for i := 0; i < rounds; i++ {
		seen := 0
		if err := cl.Scan(0, n, func(k, v int64) bool {
			seen++
			return seen < serverChunk+100 // stops inside the second chunk
		}); err != nil {
			t.Fatalf("round %d: early-stop scan: %v", i, err)
		}
		if seen != serverChunk+100 {
			t.Fatalf("round %d: fn ran %d times, want %d", i, seen, serverChunk+100)
		}
		k := int64(i * 1000)
		if v, ok, err := cl.Get(k); err != nil || !ok || v != -k {
			t.Fatalf("round %d: Get(%d) after an early stop = %d,%v,%v", i, k, v, ok, err)
		}
	}
	st := cl.LocalStats()
	for _, op := range st.Ops {
		if op.Op == "scan" && op.RTT.Count != rounds {
			t.Fatalf("%d of %d scans reached their final frame", op.RTT.Count, rounds)
		}
	}
	if st.Dials != 1 || st.Timeouts != 0 || st.Errors != 0 {
		t.Fatalf("dials=%d timeouts=%d errors=%d, want 1/0/0", st.Dials, st.Timeouts, st.Errors)
	}
}

// gatedStore parks Gets, Scans and PutBatches (what the server's committer
// makes of Puts) until the gate opens.
type gatedStore struct {
	pmago.Store
	gate chan struct{}
	once sync.Once
}

func (g *gatedStore) open() { g.once.Do(func() { close(g.gate) }) }

func (g *gatedStore) Get(k int64) (int64, bool) {
	<-g.gate
	return g.Store.Get(k)
}

func (g *gatedStore) Scan(lo, hi int64, fn func(k, v int64) bool) {
	<-g.gate
	g.Store.Scan(lo, hi, fn)
}

func (g *gatedStore) PutBatch(keys, vals []int64) {
	<-g.gate
	g.Store.PutBatch(keys, vals)
}

// serveGated is serve over a gated store; the gate opens at the latest
// when the test ends, before the server is closed.
func serveGated(t *testing.T, s pmago.Store) (*Client, *gatedStore) {
	store := &gatedStore{Store: s, gate: make(chan struct{})}
	cl := serve(t, store)
	t.Cleanup(store.open)
	return cl, store
}

// TestTimedOutCallIsForgotten: a request that times out gives up its id;
// the response that arrives late is dropped — it reaches neither the caller
// that left nor the next request, which gets its own answer on the same
// connection.
func TestTimedOutCallIsForgotten(t *testing.T) {
	cl, store := serveGated(t, loaded(t, 100))
	cl.timeout = 50 * time.Millisecond
	if _, _, err := cl.Get(7); !errors.Is(err, ErrTimeout) {
		t.Fatalf("Get behind a closed gate: %v, want ErrTimeout", err)
	}
	pc := cl.conns[0]
	pc.pmu.Lock()
	waiting := len(pc.pending)
	pc.pmu.Unlock()
	if waiting != 0 {
		t.Fatalf("%d ids still pending after the timeout", waiting)
	}
	store.open() // the late response for Get(7) is on its way
	for k := int64(8); k < 40; k++ {
		if v, ok, err := cl.Get(k); err != nil || !ok || v != -k {
			t.Fatalf("Get(%d) after a timeout = %d,%v,%v", k, v, ok, err)
		}
	}
	if st := cl.LocalStats(); st.Dials != 1 || st.Timeouts != 1 {
		t.Fatalf("dials=%d timeouts=%d, want 1/1: a timeout must not cost the connection", st.Dials, st.Timeouts)
	}
}

// TestKilledConnectionFailsInflight: when the connection dies every call in
// flight on it fails promptly, none hangs to its timeout, and the next
// request dials a new one.
func TestKilledConnectionFailsInflight(t *testing.T) {
	p := loaded(t, 100)
	cl, store := serveGated(t, p)
	const inflight = 8
	errs := make(chan error, inflight+1)
	for i := 0; i < inflight; i++ {
		go func() { errs <- cl.Put(int64(1000+i), 1) }()
	}
	go func() {
		errs <- cl.Scan(0, 100, func(k, v int64) bool { return true })
	}()
	// An id is pending from before its frame is written until its final
	// response, and behind the gate nothing is answered: wait until every
	// call has got that far.
	pc := cl.conns[0]
	for deadline := time.Now().Add(5 * time.Second); ; {
		pc.pmu.Lock()
		waiting := len(pc.pending)
		pc.pmu.Unlock()
		if waiting == inflight+1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d calls pending, want %d", waiting, inflight+1)
		}
		time.Sleep(time.Millisecond)
	}
	pc.nc.Close() // the kill
	for i := 0; i < inflight+1; i++ {
		select {
		case err := <-errs:
			if err == nil || errors.Is(err, ErrTimeout) {
				t.Fatalf("in-flight call returned %v, want the connection's failure", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("call %d still parked after its connection died", i)
		}
	}
	store.open()
	if err := cl.Put(1, 2); err != nil {
		t.Fatalf("Put after the kill: %v", err)
	}
	if v, ok := p.Get(1); !ok || v != 2 {
		t.Fatalf("Put after the kill not applied: %d,%v", v, ok)
	}
	if st := cl.LocalStats(); st.Dials != 2 {
		t.Fatalf("dials = %d, want 2: the next request redials", st.Dials)
	}
}
