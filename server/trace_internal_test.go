package server

import (
	"net"
	"testing"
	"time"

	"pmago"
	"pmago/internal/obs"
	"pmago/internal/wire"
)

// TestServeRecordingDoesNotAllocate guards the instrumented request path:
// recordTrace — the per-request trace attribution including a slow-ring
// capture — must not allocate, keeping the server's hot path at the same
// zero-allocation contract the rest of the metric set holds.
func TestServeRecordingDoesNotAllocate(t *testing.T) {
	p, err := pmago.New()
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	s := New(p, Options{SlowOpThreshold: time.Nanosecond}) // force the slow-ring capture path
	defer s.Close()

	start := time.Now()
	rt := reqTimes{
		start:      start,
		decoded:    start.Add(1 * time.Microsecond),
		picked:     start.Add(2 * time.Microsecond),
		applyStart: start.Add(3 * time.Microsecond),
		applyEnd:   start.Add(9 * time.Microsecond),
	}
	end := start.Add(10 * time.Microsecond)
	if n := testing.AllocsPerRun(1000, func() {
		s.recordTrace(obs.ServerOpPut, rt, end)
	}); n != 0 {
		t.Fatalf("recordTrace allocates %v/op", n)
	}
}

// TestSlowOpSampling disables threshold capture: the recorder then holds
// exactly the uniform sample, one Sampled record per slowOpSampleEvery
// answered requests.
func TestSlowOpSampling(t *testing.T) {
	p, err := pmago.New()
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	s := New(p, Options{SlowOpThreshold: -1})
	defer s.Close()
	start := time.Now()
	rt := reqTimes{start: start, decoded: start.Add(time.Microsecond)}
	for i := 1; i <= 2*slowOpSampleEvery; i++ {
		s.recordTrace(obs.ServerOpGet, rt, start.Add(time.Duration(i)*time.Microsecond))
		if got, want := len(s.SlowOps()), i/slowOpSampleEvery; got != want {
			t.Fatalf("after %d requests the recorder holds %d records, want %d", i, got, want)
		}
	}
	for _, op := range s.SlowOps() {
		if !op.Sampled {
			t.Fatalf("sampler capture not marked sampled: %+v", op)
		}
	}
}

// TestScanChunkEncodeDoesNotAllocate guards the streamed-scan path: once
// the pools are warm, a frame is filled by a run of whole chunks into the
// recycled pairs, framed into a recycled buffer, queued and handed back
// after the write without a single allocation — what the store scans in 1
// ns a pair must not cost a 20 KB buffer per kilopair to send.
func TestScanChunkEncodeDoesNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector")
	}
	keys := make([]int64, 1<<14)
	for i := range keys {
		keys[i] = int64(i) << 20
	}
	p, err := pmago.BulkLoad(keys, keys)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	s := New(p, Options{})
	defer s.Close()
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	c := newConn(s, a) // no writer goroutine: the test plays its part
	send := func(chunk *wire.Response) {
		if !c.sendScanChunk(encodeFrame(chunk)) {
			t.Fatal("chunk refused")
		}
		// The writer's half: take the burst, recycle each frame.
		for i, f := range c.q {
			framePool.Put(f)
			c.q[i] = nil
		}
		c.q = c.q[:0]
	}

	vals := make([]int64, scanChunkPairs)
	for i := range vals {
		vals[i] = -int64(i) << 40
	}
	chunk := wire.Response{Status: wire.StatusScanChunk, Op: wire.OpScan, ID: 9, Keys: keys[:scanChunkPairs], Vals: vals}
	if n := testing.AllocsPerRun(1000, func() { send(&chunk) }); n != 0 {
		t.Fatalf("streaming a scan chunk allocates %v/chunk", n)
	}

	// What runScan does per frame, round and round the store.
	run := scanRunPool.Get().(*scanRun)
	defer scanRunPool.Put(run)
	from := int64(pmago.KeyMin + 1)
	if n := testing.AllocsPerRun(100, func() {
		var more bool
		run.keys, run.vals, from, more = s.readRun(from, pmago.KeyMax-1, scanChunkPairs, run.keys[:0], run.vals[:0])
		if !more {
			from = pmago.KeyMin + 1
		}
		send(&wire.Response{Status: wire.StatusScanChunk, Op: wire.OpScan, ID: 9, Keys: run.keys, Vals: run.vals})
	}); n != 0 {
		t.Fatalf("filling and streaming a frame from a run allocates %v/frame", n)
	}
}

// TestNanosBetween pins the stamp arithmetic's zero-handling.
func TestNanosBetween(t *testing.T) {
	var zero time.Time
	now := time.Now()
	if got := nanosBetween(zero, now); got != 0 {
		t.Fatalf("zero a: %d", got)
	}
	if got := nanosBetween(now, zero); got != 0 {
		t.Fatalf("zero b: %d", got)
	}
	if got := nanosBetween(now.Add(time.Second), now); got != 0 {
		t.Fatalf("negative: %d", got)
	}
	if got := nanosBetween(now, now.Add(time.Millisecond)); got != uint64(time.Millisecond) {
		t.Fatalf("positive: %d", got)
	}
}
