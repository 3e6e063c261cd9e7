package server_test

import (
	"context"
	"errors"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"pmago"
	"pmago/client"
	"pmago/server"
)

// startServer serves store on a loopback listener and returns the server
// plus its address. Cleanup closes the server (not the store).
func startServer(tb testing.TB, store pmago.Store, opts server.Options) (*server.Server, string) {
	tb.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	srv := server.New(store, opts)
	go srv.Serve(ln)
	tb.Cleanup(func() { srv.Close() })
	return srv, ln.Addr().String()
}

// TestWireRoundTripProperty runs a random op sequence through the wire and
// mirrors every op on a model map: the served store and the model must
// agree at each step — the protocol adds no semantics to the store's own.
func TestWireRoundTripProperty(t *testing.T) {
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

	rng := rand.New(rand.NewSource(42))
	model := map[int64]int64{}
	key := func() int64 { return int64(rng.Intn(500)) } // small space: plenty of hits
	for i := 0; i < 3000; i++ {
		switch rng.Intn(10) {
		case 0, 1, 2: // put
			k, v := key(), rng.Int63()
			if err := cl.Put(k, v); err != nil {
				t.Fatalf("op %d: Put: %v", i, err)
			}
			model[k] = v
		case 3: // delete
			k := key()
			removed, err := cl.Delete(k)
			if err != nil {
				t.Fatalf("op %d: Delete: %v", i, err)
			}
			_, want := model[k]
			if removed != want {
				t.Fatalf("op %d: Delete(%d) removed=%v want %v", i, k, removed, want)
			}
			delete(model, k)
		case 4: // put batch
			n := rng.Intn(40) + 1
			keys := make([]int64, n)
			vals := make([]int64, n)
			for j := range keys {
				keys[j], vals[j] = key(), rng.Int63()
			}
			if err := cl.PutBatch(keys, vals); err != nil {
				t.Fatalf("op %d: PutBatch: %v", i, err)
			}
			for j := range keys {
				model[keys[j]] = vals[j]
			}
		case 5: // delete batch
			n := rng.Intn(20) + 1
			keys := make([]int64, n)
			for j := range keys {
				keys[j] = key()
			}
			got, err := cl.DeleteBatch(keys)
			if err != nil {
				t.Fatalf("op %d: DeleteBatch: %v", i, err)
			}
			want := 0
			seen := map[int64]bool{}
			for _, k := range keys {
				if _, ok := model[k]; ok && !seen[k] {
					want++
				}
				seen[k] = true
				delete(model, k)
			}
			if got != want {
				t.Fatalf("op %d: DeleteBatch removed %d want %d", i, got, want)
			}
		case 6, 7: // get
			k := key()
			v, found, err := cl.Get(k)
			if err != nil {
				t.Fatalf("op %d: Get: %v", i, err)
			}
			wantV, wantFound := model[k]
			if found != wantFound || (found && v != wantV) {
				t.Fatalf("op %d: Get(%d) = %d,%v want %d,%v", i, k, v, found, wantV, wantFound)
			}
		case 8: // range scan
			lo := int64(rng.Intn(500))
			hi := lo + int64(rng.Intn(100))
			var gotK, gotV []int64
			if err := cl.Scan(lo, hi, func(k, v int64) bool {
				gotK = append(gotK, k)
				gotV = append(gotV, v)
				return true
			}); err != nil {
				t.Fatalf("op %d: Scan: %v", i, err)
			}
			var wantK []int64
			for k := range model {
				if k >= lo && k <= hi {
					wantK = append(wantK, k)
				}
			}
			sort.Slice(wantK, func(a, b int) bool { return wantK[a] < wantK[b] })
			if len(gotK) != len(wantK) {
				t.Fatalf("op %d: Scan[%d,%d] %d pairs want %d", i, lo, hi, len(gotK), len(wantK))
			}
			for j := range gotK {
				if gotK[j] != wantK[j] || gotV[j] != model[wantK[j]] {
					t.Fatalf("op %d: Scan pair %d: %d/%d want %d/%d",
						i, j, gotK[j], gotV[j], wantK[j], model[wantK[j]])
				}
			}
		case 9: // scan with early stop (exercises OpCancel + drain)
			stopped := 0
			if err := cl.Scan(0, 499, func(k, v int64) bool {
				stopped++
				return stopped < 3
			}); err != nil {
				t.Fatalf("op %d: early-stop Scan: %v", i, err)
			}
		}
	}
}

// TestPipelinedGroupCommit hammers a durable FsyncAlways store from many
// pipelining goroutines and checks (a) every acknowledged write is
// readable, (b) the committer actually coalesced: more ops than group
// commits (batch size > 1 somewhere).
func TestPipelinedGroupCommit(t *testing.T) {
	dir := t.TempDir()
	db, err := pmago.Open(dir, pmago.WithFsync(pmago.FsyncAlways))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	srv, addr := startServer(t, db, server.Options{})
	cl, err := client.Dial(addr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	const writers, perWriter = 8, 100
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				k := int64(w*perWriter + i)
				for {
					err := cl.Put(k, k*2)
					if err == nil {
						break
					}
					if errors.Is(err, client.ErrBusy) {
						continue
					}
					t.Errorf("Put(%d): %v", k, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	for k := int64(0); k < writers*perWriter; k++ {
		v, found, err := cl.Get(k)
		if err != nil || !found || v != k*2 {
			t.Fatalf("Get(%d) = %d,%v,%v", k, v, found, err)
		}
	}
	st := srv.Stats()
	if st.Server == nil {
		t.Fatal("no server stats section")
	}
	co := st.Server.CommitOps
	if co.Count == 0 {
		t.Fatal("no group commits recorded")
	}
	if co.Sum <= co.Count {
		t.Errorf("no coalescing: %d ops over %d commits", co.Sum, co.Count)
	}
	t.Logf("group commit: %d ops over %d commits (avg %.1f)",
		co.Sum, co.Count, float64(co.Sum)/float64(co.Count))
}

// slowStore delays every group-commit apply so in-flight requests pile up
// deterministically.
type slowStore struct {
	pmago.Store
	delay time.Duration
}

func (s slowStore) PutBatch(keys, vals []int64) {
	time.Sleep(s.delay)
	s.Store.PutBatch(keys, vals)
}

// TestGracefulShutdown issues a write that the store applies slowly, then
// shuts the server down mid-flight: the dispatched write must still be
// acknowledged (and flushed) before the connection closes.
func TestGracefulShutdown(t *testing.T) {
	p, err := pmago.New()
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	srv, addr := startServer(t, slowStore{p, 100 * time.Millisecond}, server.Options{})
	cl, err := client.Dial(addr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	putDone := make(chan error, 1)
	go func() { putDone <- cl.Put(1, 2) }()
	time.Sleep(20 * time.Millisecond) // let the put reach the committer
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if err := <-putDone; err != nil {
		t.Fatalf("in-flight put lost by graceful shutdown: %v", err)
	}
	if v, ok := p.Get(1); !ok || v != 2 {
		t.Fatalf("acknowledged put missing after shutdown: %d,%v", v, ok)
	}
	if err := cl.Put(3, 4); err == nil {
		t.Fatal("put succeeded after shutdown")
	}
}

// TestScanCancellation checks both early-stop (OpCancel) and client
// disconnect stop a streaming scan server-side. The store is large enough
// (~20MB on the wire) that the stream cannot fit in socket buffers — the
// server is necessarily mid-scan when the cancel/disconnect lands.
func TestScanCancellation(t *testing.T) {
	keys := make([]int64, 2_000_000)
	vals := make([]int64, len(keys))
	for i := range keys {
		keys[i], vals[i] = int64(i), int64(i)
	}
	p, err := pmago.BulkLoad(keys, vals)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	srv, addr := startServer(t, p, server.Options{})

	// Early stop: fn returns false after the first chunk.
	cl, err := client.Dial(addr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	if err := cl.Scan(0, int64(len(keys)), func(k, v int64) bool {
		n++
		return false
	}); err != nil {
		t.Fatalf("early-stop scan: %v", err)
	}
	if n != 1 {
		t.Fatalf("fn called %d times after returning false", n)
	}
	cl.Close()
	waitCancels(t, srv, 1)

	// Disconnect: close the client mid-stream.
	cl2, err := client.Dial(addr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	scanDone := make(chan error, 1)
	go func() {
		scanDone <- cl2.Scan(0, int64(len(keys)), func(k, v int64) bool {
			if k == 1000 {
				cl2.Close()
			}
			return true
		})
	}()
	<-scanDone // error or nil both fine; the server side must notice
	waitCancels(t, srv, 2)
}

// waitCancels polls until the server has recorded at least n scan
// cancellations.
func waitCancels(t *testing.T, srv *server.Server, n uint64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if st := srv.Stats(); st.Server != nil && st.Server.ScanCancels >= n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("server never recorded scan cancellation #%d", n)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestKillServerMidBatch proves the durability contract over the wire:
// while pipelined clients hammer a FsyncAlways store through the server,
// the store directory is copied live (a crash image — the moral equivalent
// of kill -9 at an arbitrary instant). Every write acknowledged before the
// copy began must be present when the image is recovered.
func TestKillServerMidBatch(t *testing.T) {
	dir := t.TempDir()
	db, err := pmago.Open(dir, pmago.WithFsync(pmago.FsyncAlways), pmago.WithCompactRatio(0))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	_, addr := startServer(t, db, server.Options{})
	cl, err := client.Dial(addr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	var mu sync.Mutex
	acked := map[int64]int64{}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				k := int64(w*1_000_000 + i)
				if err := cl.Put(k, k+1); err != nil {
					if errors.Is(err, client.ErrBusy) {
						continue
					}
					t.Errorf("Put: %v", err)
					return
				}
				mu.Lock()
				acked[k] = k + 1
				mu.Unlock()
			}
		}(w)
	}

	time.Sleep(150 * time.Millisecond) // let writes accumulate
	// Snapshot the acked set STRICTLY BEFORE the copy starts: everything in
	// it was fsynced before any file read below.
	mu.Lock()
	ackedBefore := make(map[int64]int64, len(acked))
	for k, v := range acked {
		ackedBefore[k] = v
	}
	mu.Unlock()
	image := t.TempDir()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if e.IsDir() {
			continue
		}
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(image, e.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	if t.Failed() {
		return
	}
	if len(ackedBefore) == 0 {
		t.Fatal("no writes acknowledged before the crash image")
	}

	re, err := pmago.Open(image)
	if err != nil {
		t.Fatalf("recovering crash image: %v", err)
	}
	defer re.Close()
	missing := 0
	for k, v := range ackedBefore {
		got, ok := re.Get(k)
		if !ok || got != v {
			missing++
		}
	}
	if missing > 0 {
		t.Fatalf("%d of %d acknowledged writes missing after crash recovery", missing, len(ackedBefore))
	}
	t.Logf("crash image preserved all %d acknowledged writes", len(ackedBefore))
}

// TestStatsOverWire fetches the metrics snapshot through OpStats and
// checks the serving-layer section is attached and counting.
func TestStatsOverWire(t *testing.T) {
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
	if err := cl.Put(1, 2); err != nil {
		t.Fatal(err)
	}
	st, err := cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Server == nil {
		t.Fatal("stats over wire missing server section")
	}
	var putReqs uint64
	for _, op := range st.Server.Ops {
		if op.Op == "put" {
			putReqs = op.Requests
		}
	}
	if putReqs == 0 {
		t.Fatalf("put requests not counted: %+v", st.Server.Ops)
	}
}

// TestSentinelKeyRejected checks reserved keys come back as protocol
// errors, not store panics, carrying the store's own message, and that a
// delete of one is answered as the store answers it.
func TestSentinelKeyRejected(t *testing.T) {
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
	if err := cl.Put(pmago.KeyMin, 1); err == nil {
		t.Fatal("Put(KeyMin) accepted")
	}
	if err := cl.Put(pmago.KeyMax, 1); err == nil {
		t.Fatal("Put(KeyMax) accepted")
	}
	if err := cl.PutBatch([]int64{1, pmago.KeyMax}, []int64{1, 1}); err == nil || !strings.Contains(err.Error(), "core: cannot store sentinel key") {
		t.Fatalf("PutBatch with KeyMax: %v, want the store's rejection", err)
	}
	if found, err := cl.Delete(pmago.KeyMin); found || err != nil {
		t.Fatalf("Delete(KeyMin) = %v, %v; the store answers false, nil", found, err)
	}
	if n, err := cl.DeleteBatch([]int64{pmago.KeyMin, pmago.KeyMax}); n != 0 || err != nil {
		t.Fatalf("DeleteBatch of sentinels = %d, %v; the store answers 0, nil", n, err)
	}
	if p.Len() != 0 {
		t.Fatalf("store holds %d keys after rejected puts", p.Len())
	}
	// The connection and store survive the rejection.
	if err := cl.Put(1, 2); err != nil {
		t.Fatalf("put after rejected sentinel: %v", err)
	}
}
