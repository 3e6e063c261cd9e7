// Network status monitoring — another Section 1 motif ("network status
// monitoring ... require immediate and concurrent updates"). Device events
// arrive timestamp-ordered from many collectors (an append-heavy, skewed
// insert pattern: always at the right end of the array — historically the
// PMA's worst case, handled by the asynchronous batch mode). A dashboard
// goroutine continuously computes sliding-window aggregates with range
// scans, and old events are evicted concurrently.
//
// Part two makes the retained window durable: the events are ingested into
// a pmago.Open store, checkpointed with Snapshot, written to past the
// checkpoint (a WAL tail), and the process "restart" is simulated by
// closing and reopening the store — everything must survive. The store's
// own Stats report what the checkpoint and the recovery cost.
//
// Part three is the ops view: pmago.Handler mounted on a loopback HTTP
// server, scraped once in each exposition format — JSON for humans with
// curl, Prometheus text for the metrics agent.
package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pmago"
)

const (
	collectors = 4
	events     = 200_000
	windowSize = 10_000 // events per dashboard window
)

// key packs a logical timestamp with a collector id so keys stay unique.
func key(ts int64, collector int) int64 { return ts<<3 | int64(collector) }

func main() {
	p, err := pmago.New(pmago.WithMode(pmago.ModeBatch), pmago.WithTDelay(20*time.Millisecond))
	if err != nil {
		panic(err)
	}
	defer p.Close()

	var clock atomic.Int64 // logical time source
	var stop atomic.Bool

	// Dashboard: sliding-window aggregation via range scans.
	var dash sync.WaitGroup
	var windows atomic.Int64
	dash.Add(1)
	go func() {
		defer dash.Done()
		for !stop.Load() {
			now := clock.Load()
			lo, hi := key(now-windowSize, 0), key(now, 7)
			var count int64
			var errSum int64
			p.Scan(lo, hi, func(_, severity int64) bool {
				count++
				if severity >= 8 {
					errSum++
				}
				return true
			})
			windows.Add(1)
			_ = errSum
		}
	}()

	// Evictor: drop events older than 5 windows (concurrent deletes at
	// the array's left edge while inserts hammer the right edge).
	var evict sync.WaitGroup
	evict.Add(1)
	go func() {
		defer evict.Done()
		horizon := int64(0)
		for !stop.Load() {
			cutoff := clock.Load() - 5*windowSize
			for ; horizon < cutoff; horizon++ {
				for c := 0; c < collectors*2; c++ {
					p.Delete(key(horizon, c))
				}
			}
			time.Sleep(time.Millisecond)
		}
	}()

	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < collectors; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(c)))
			for i := 0; i < events/collectors; i++ {
				ts := clock.Add(1)
				p.Put(key(ts, c), int64(rng.Intn(10))) // value = severity
			}
		}(c)
	}
	wg.Wait()
	p.Flush()
	elapsed := time.Since(start)
	stop.Store(true)
	dash.Wait()
	evict.Wait()
	p.Flush()

	st := p.Stats()
	fmt.Printf("ingested %d events in %v (%.0f events/sec)\n",
		events, elapsed.Round(time.Millisecond), float64(events)/elapsed.Seconds())
	fmt.Printf("dashboard computed %d sliding windows concurrently\n", windows.Load())
	fmt.Printf("retained events after eviction: %d\n", p.Len())
	fmt.Printf("PMA handled the append skew with %d combined updates and %d deferred batches\n",
		st.Updates.CombinedOps, st.Updates.DeferredBatches)
	fmt.Printf("read path: %d chunks scanned optimistically, %d under the shared latch\n",
		st.Reads.ScanChunksOptimistic, st.Reads.ScanChunksLatched)
	if err := p.Validate(); err != nil {
		panic(err)
	}
	fmt.Println("structure validated")

	serveMetrics(p)
	durable(p)
}

// serveMetrics mounts pmago.Handler on a loopback HTTP server and scrapes
// both exposition formats once, the way a production deployment's metrics
// agent (or a human with curl) would.
func serveMetrics(src pmago.StatsSource) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		panic(err)
	}
	mux := http.NewServeMux()
	mux.Handle("/debug/pmago/", pmago.Handler(src))
	srv := &http.Server{Handler: mux}
	go srv.Serve(ln)
	defer srv.Close()

	get := func(path string) []byte {
		resp, err := http.Get("http://" + ln.Addr().String() + "/debug/pmago/" + path)
		if err != nil {
			panic(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			panic(err)
		}
		return body
	}

	jsonBody := get("")
	samples, families := 0, 0
	sc := bufio.NewScanner(bytes.NewReader(get("metrics")))
	for sc.Scan() {
		switch {
		case strings.HasPrefix(sc.Text(), "# TYPE"):
			families++
		case !strings.HasPrefix(sc.Text(), "#"):
			samples++
		}
	}
	fmt.Printf("HTTP stats endpoint: %d bytes of JSON, %d Prometheus samples in %d families\n",
		len(jsonBody), samples, families)
}

// durable persists the retained window into a pmago.Open store and proves
// it survives a restart: batch ingest, checkpoint, WAL-tail writes, close,
// reopen, verify. It reads through the Store interface, so the window could
// equally come from a DB or a Sharded store.
func durable(p pmago.Store) {
	dir, err := os.MkdirTemp("", "pmago-telemetry-*")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(dir)

	db, err := pmago.Open(dir, pmago.WithFsync(pmago.FsyncInterval))
	if err != nil {
		panic(err)
	}
	// Drain the in-memory window into the durable store in sorted batches
	// (each PutBatch is one WAL record + one batched merge).
	const chunk = 10_000
	keys := make([]int64, 0, chunk)
	vals := make([]int64, 0, chunk)
	flush := func() {
		if len(keys) > 0 {
			db.PutBatch(keys, vals)
			keys, vals = keys[:0], vals[:0]
		}
	}
	p.ScanAll(func(k, v int64) bool {
		keys = append(keys, k)
		vals = append(vals, v)
		if len(keys) == chunk {
			flush()
		}
		return true
	})
	flush()
	ingested := db.Len()

	// Checkpoint, then keep writing: the tail lives only in the WAL.
	if err := db.Snapshot(); err != nil {
		panic(err)
	}
	ck := db.Stats().Checkpoint
	if ck.Snapshots != 1 || ck.DurationNanos.Count != 1 || ck.PairsWritten != uint64(ingested) {
		panic(fmt.Sprintf("checkpoint stats: %+v, want one checkpoint of %d pairs", ck, ingested))
	}
	fmt.Printf("checkpoint: %d pairs, %d bytes in %v\n", ck.PairsWritten, ck.BytesWritten,
		time.Duration(ck.DurationNanos.Sum).Round(time.Microsecond))
	for c := 0; c < collectors; c++ {
		db.Put(key(int64(events+c+1), c), int64(c))
	}
	if err := db.Close(); err != nil {
		panic(err)
	}

	// "Restart": recover from snapshot + WAL tail.
	re, err := pmago.Open(dir)
	if err != nil {
		panic(err)
	}
	defer re.Close()
	if got, want := re.Len(), ingested+collectors; got != want {
		panic(fmt.Sprintf("restart lost events: %d, want %d", got, want))
	}
	// Spot-check: the first retained event must carry the same severity.
	var firstK, firstV int64
	p.ScanAll(func(k, v int64) bool { firstK, firstV = k, v; return false })
	if v, ok := re.Get(firstK); !ok || v != firstV {
		panic("restart corrupted an event")
	}
	if err := re.Validate(); err != nil {
		panic(err)
	}
	rec := re.Stats().Recovery
	if rec.SnapshotPairs != uint64(ingested) || rec.WALRecords != collectors {
		panic(fmt.Sprintf("recovery stats: %+v, want %d snapshot pairs and %d WAL records", rec, ingested, collectors))
	}
	fmt.Printf("durable store: %d events survived snapshot + WAL-tail restart\n", re.Len())
	fmt.Printf("recovery split: %d snapshot pairs loaded in %v, %d WAL records folded in %v\n",
		rec.SnapshotPairs, time.Duration(rec.SnapshotLoadNanos).Round(time.Microsecond),
		rec.WALRecords, time.Duration(rec.WALReplayNanos).Round(time.Microsecond))
}
