package server_test

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"pmago"
	"pmago/client"
	"pmago/server"
)

// TestTraceStageSumsApproxTotal pushes a pipelined durable write workload
// through the wire and checks the tentpole invariant: the per-stage windows
// partition each write's total handling time, so the windowed stage sums
// must add up to the windowed totals (small tolerance for rotation slop).
func TestTraceStageSumsApproxTotal(t *testing.T) {
	dir := t.TempDir()
	db, err := pmago.Open(dir, pmago.WithFsync(pmago.FsyncAlways))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	srv, addr := startServer(t, db, server.Options{})

	const clients, perClient = 4, 200
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl, err := client.Dial(addr, client.Options{})
			if err != nil {
				t.Error(err)
				return
			}
			defer cl.Close()
			for i := 0; i < perClient; i++ {
				if err := cl.Put(int64(c*perClient+i), int64(i)); err != nil {
					t.Errorf("put: %v", err)
					return
				}
			}
		}(c)
	}
	wg.Wait()

	// A request is acknowledged before it is recorded (the respond stage
	// covers the send), so the last acks can beat their records here: wait
	// for the count before judging the sums.
	tr := srv.Stats().Trace
	if tr == nil {
		t.Fatal("no trace section on server stats")
	}
	putCount := func() uint64 {
		for _, op := range tr.Ops {
			if op.Op == "put" {
				return op.Total.Count
			}
		}
		return 0
	}
	for deadline := time.Now().Add(2 * time.Second); putCount() < clients*perClient && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
		tr = srv.Stats().Trace
	}
	for _, op := range tr.Ops {
		if op.Op != "put" {
			continue
		}
		if op.Total.Count != clients*perClient {
			t.Fatalf("windowed put count = %d, want %d", op.Total.Count, clients*perClient)
		}
		var stageSum uint64
		for _, st := range op.Stages {
			if st.Window.Count != op.Total.Count {
				t.Fatalf("stage %s count = %d, total count = %d",
					st.Stage, st.Window.Count, op.Total.Count)
			}
			stageSum += st.Window.Sum
		}
		total := op.Total.Sum
		diff := int64(stageSum) - int64(total)
		if diff < 0 {
			diff = -diff
		}
		if total == 0 || float64(diff)/float64(total) > 0.02 {
			t.Fatalf("stage sums %d vs total %d: off by %.2f%%",
				stageSum, total, 100*float64(diff)/float64(total))
		}
		return
	}
	t.Fatal("no put section in trace snapshot")
}

// TestSlowOpsEndpoint sets a floor threshold so every request is captured,
// then reads the flight recorder both through the API and through the
// Handler's /slow endpoint.
func TestSlowOpsEndpoint(t *testing.T) {
	p, err := pmago.New()
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	srv, addr := startServer(t, p, server.Options{SlowOpThreshold: time.Nanosecond})
	cl, err := client.Dial(addr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	for i := 0; i < 50; i++ {
		if err := cl.Put(int64(i), int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := cl.Get(1); err != nil {
		t.Fatal(err)
	}

	ops := srv.SlowOps()
	if len(ops) == 0 {
		t.Fatal("no slow ops captured at 1ns threshold")
	}
	for _, op := range ops {
		if op.Sampled {
			t.Fatalf("threshold capture marked sampled: %+v", op)
		}
		if op.TotalNanos == 0 || op.UnixNanos == 0 {
			t.Fatalf("empty capture: %+v", op)
		}
	}
	for i := 1; i < len(ops); i++ {
		if ops[i-1].UnixNanos < ops[i].UnixNanos {
			t.Fatalf("slow ops not newest-first at %d", i)
		}
	}

	rec := httptest.NewRecorder()
	pmago.Handler(srv).ServeHTTP(rec, httptest.NewRequest("GET", "/debug/pmago/slow", nil))
	if rec.Code != 200 {
		t.Fatalf("GET /slow: %d", rec.Code)
	}
	var dump []map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &dump); err != nil {
		t.Fatalf("decode /slow: %v\n%s", err, rec.Body.String())
	}
	if len(dump) == 0 {
		t.Fatal("/slow returned empty array under load")
	}
	first := dump[0]
	for _, key := range []string{"op", "total_nanos", "apply_nanos", "respond_nanos"} {
		if _, ok := first[key]; !ok {
			t.Fatalf("/slow record missing %q: %v", key, first)
		}
	}
}

// syncBuffer is a goroutine-safe bytes.Buffer for capturing slog output.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestSummaryLogger checks the periodic summary line: ops/s plus windowed
// p99 per active op, emitted on the configured cadence.
func TestSummaryLogger(t *testing.T) {
	p, err := pmago.New()
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	var buf syncBuffer
	log := slog.New(slog.NewTextHandler(&buf, nil))
	srv, addr := startServer(t, p, server.Options{Logger: log, SummaryEvery: 10 * time.Millisecond})
	cl, err := client.Dial(addr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	for i := 0; i < 50; i++ {
		if err := cl.Put(int64(i), int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	// A tick can land between a request's Requests.Inc and its recordTrace,
	// so the first summary line may carry ops_per_sec but no p99 yet: wait
	// for a line that has both.
	deadline := time.Now().Add(2 * time.Second)
	for {
		out := buf.String()
		if strings.Contains(out, "summary") && strings.Contains(out, "ops_per_sec") &&
			strings.Contains(out, "p99_put") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no summary line with ops_per_sec and p99_put within deadline; log: %s", out)
		}
		time.Sleep(5 * time.Millisecond)
	}
	srv.Close()
}

// TestClientLocalStats checks the client-side mirror: per-op RTT windows
// and queue-wait recording.
func TestClientLocalStats(t *testing.T) {
	p, err := pmago.New()
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	_, addr := startServer(t, p, server.Options{})
	cl, err := client.Dial(addr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	for i := 0; i < 30; i++ {
		if err := cl.Put(int64(i), int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := cl.Get(1); err != nil {
		t.Fatal(err)
	}
	st := cl.LocalStats()
	if st.Dials == 0 {
		t.Fatal("no dials recorded")
	}
	if st.QueueWait.Count == 0 {
		t.Fatal("no queue-wait observations")
	}
	foundPut := false
	for _, op := range st.Ops {
		if op.Op == "put" {
			foundPut = true
			if op.Requests != 30 || op.RTT.Count != 30 {
				t.Fatalf("put: requests=%d rtt count=%d, want 30/30", op.Requests, op.RTT.Count)
			}
			if op.RTT.P99 <= 0 {
				t.Fatal("put RTT p99 not populated")
			}
		}
	}
	if !foundPut {
		t.Fatal("no put section in client stats")
	}
}
