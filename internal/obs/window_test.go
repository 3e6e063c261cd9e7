package obs

import (
	"encoding/json"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestWindowRotationConcurrentFakeClock drives concurrent observers while a
// stepped fake clock, which they read and pass to ObserveAt, walks the
// window across slot boundaries — fewer boundaries than winSlots, so no slot
// is ever reused and every observation must survive into the final
// snapshot. Run under -race this also proves the rotation latch is
// data-race-free.
func TestWindowRotationConcurrentFakeClock(t *testing.T) {
	var w Window
	var clk atomic.Int64

	const (
		goroutines = 8
		perG       = 20000
		steps      = 6 // < winSlots: no slot reuse, zero loss tolerated
	)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() { // clock stepper: crosses a slot boundary every few µs
		defer wg.Done()
		for i := 1; i <= steps; i++ {
			time.Sleep(200 * time.Microsecond)
			clk.Store(int64(i) * winSlotNanos)
		}
		close(stop)
	}()
	var observed atomic.Uint64
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				w.ObserveAt(clk.Load(), uint64(g+1))
				observed.Add(1)
				if i%1024 == 0 {
					select {
					case <-stop:
						return
					default:
					}
				}
			}
		}(g)
	}
	wg.Wait()

	ws := w.SnapshotAt(clk.Load())
	if ws.Count != observed.Load() {
		t.Fatalf("windowed count = %d, want %d (no slot was reused, so no observation may be lost)",
			ws.Count, observed.Load())
	}
	var bucketTotal uint64
	for _, b := range ws.Buckets {
		bucketTotal += b.N
	}
	if bucketTotal != ws.Count {
		t.Fatalf("bucket total %d != count %d", bucketTotal, ws.Count)
	}
}

// TestWindowExpiry checks that observations roll out of the snapshot once
// the clock moves a full interval past them, and that a slot is cleanly
// reused on its next lap.
func TestWindowExpiry(t *testing.T) {
	var w Window
	const slot = winSlotNanos

	w.ObserveAt(0, 100)      // slot 0
	w.ObserveAt(3*slot, 200) // slot 3
	if got := w.SnapshotAt(3 * slot).Count; got != 2 {
		t.Fatalf("count before expiry = %d, want 2", got)
	}

	// Move past slot 0's coverage (snapshot keeps slots [cur-7, cur]).
	ws := w.SnapshotAt(9 * slot) // cur slot 9, oldest kept = 2
	if ws.Count != 1 || ws.Sum != 200 {
		t.Fatalf("after expiry: count=%d sum=%d, want 1/200", ws.Count, ws.Sum)
	}

	// Lap onto slot 0's ring position (slot 8): old contents must clear.
	w.ObserveAt(8*slot, 300)
	ws = w.SnapshotAt(9 * slot)
	if ws.Count != 2 || ws.Sum != 500 {
		t.Fatalf("after lap: count=%d sum=%d, want 2/500", ws.Count, ws.Sum)
	}
}

// TestWindowQuantileEdges covers the interpolation corner cases: empty
// window, a single bucket, the all-zero distribution, and quantile
// monotonicity up to the recorded max.
func TestWindowQuantileEdges(t *testing.T) {
	var empty Window
	ws := empty.Snapshot()
	if ws.P50 != 0 || ws.P99 != 0 || ws.P999 != 0 {
		t.Fatalf("empty window quantiles = %v/%v/%v, want all 0", ws.P50, ws.P99, ws.P999)
	}

	var single Window
	for i := 0; i < 100; i++ {
		single.ObserveAt(0, 100) // all in bucket (64,127]
	}
	ws = single.SnapshotAt(0)
	if ws.P50 < 65 || ws.P50 > 100 {
		t.Fatalf("single-bucket p50 = %v, want within (64, 100]", ws.P50)
	}
	if ws.P999 > float64(ws.Max) {
		t.Fatalf("p999 %v exceeds max %d", ws.P999, ws.Max)
	}

	var zeros Window
	for i := 0; i < 10; i++ {
		zeros.ObserveAt(0, 0)
	}
	ws = zeros.SnapshotAt(0)
	if ws.P50 != 0 || ws.P999 != 0 || ws.Max != 0 {
		t.Fatalf("all-zero quantiles = %v/%v max %d, want 0", ws.P50, ws.P999, ws.Max)
	}

	var mixed Window
	for i := uint64(1); i <= 1000; i++ {
		mixed.ObserveAt(0, i)
	}
	ws = mixed.SnapshotAt(0)
	if !(ws.P50 <= ws.P95 && ws.P95 <= ws.P99 && ws.P99 <= ws.P999) {
		t.Fatalf("quantiles not monotonic: %v %v %v %v", ws.P50, ws.P95, ws.P99, ws.P999)
	}
	if ws.P999 > float64(ws.Max) {
		t.Fatalf("p999 %v exceeds max %d", ws.P999, ws.Max)
	}
}

// TestDistributionQuantile pins the interpolation arithmetic on a
// hand-built distribution.
func TestDistributionQuantile(t *testing.T) {
	d := Distribution{
		Count: 100,
		Max:   3,
		Buckets: []HistBucket{
			{Le: 1, N: 50}, // values == 1
			{Le: 3, N: 50}, // values in [2, 3]
		},
	}
	if got := d.Quantile(0.5); got != 1 {
		t.Fatalf("Q(0.5) = %v, want 1", got)
	}
	// Rank 75 is halfway through the [2,3] bucket: 2 + 0.5*(3-2) = 2.5.
	if got := d.Quantile(0.75); got != 2.5 {
		t.Fatalf("Q(0.75) = %v, want 2.5", got)
	}
	if got := d.Quantile(1); got != 3 {
		t.Fatalf("Q(1) = %v, want 3 (clamped to max)", got)
	}
	if got := d.Quantile(-1); got != d.Quantile(0) {
		t.Fatalf("Q(-1) = %v, want clamp to Q(0) = %v", got, d.Quantile(0))
	}
}

// TestHistogramMaxClampRegression pins the torn max-vs-buckets repair: a
// snapshot whose max atomic lags the buckets (simulated directly) must
// still report Max at least the floor of the highest non-empty bucket.
func TestHistogramMaxClampRegression(t *testing.T) {
	var h Histogram
	h.Observe(1000) // bucket (512, 1023]
	h.max.Store(0)  // simulate the torn read: buckets updated, max not yet
	d := h.Snapshot()
	if d.Max < 512 {
		t.Fatalf("snapshot max = %d, want >= 512 (floor of highest non-empty bucket)", d.Max)
	}
	if q := d.Quantile(0.99); q > float64(d.Max) {
		t.Fatalf("quantile %v exceeds clamped max %d", q, d.Max)
	}
}

// TestWindowSnapshotMerge checks the sharded-store fold: counts merge
// exactly and quantiles are recomputed from merged buckets.
func TestWindowSnapshotMerge(t *testing.T) {
	var a, b Window
	for i := 0; i < 100; i++ {
		a.ObserveAt(0, 10)
		b.ObserveAt(0, 1000)
	}
	m := a.SnapshotAt(0).merge(b.SnapshotAt(0))
	if m.Count != 200 || m.Sum != 100*10+100*1000 {
		t.Fatalf("merged count/sum = %d/%d", m.Count, m.Sum)
	}
	if m.P50 > 16 {
		t.Fatalf("merged p50 = %v, want within the low bucket", m.P50)
	}
	if m.P99 < 513 {
		t.Fatalf("merged p99 = %v, want within the high bucket", m.P99)
	}
}

// TestSlowRingConcurrent hammers Record from many goroutines while a
// dumper keeps reading; every dumped record must be internally consistent
// (a torn record would mix op and stage values). Run under -race this also
// proves the try-lock protocol is data-race-free.
func TestSlowRingConcurrent(t *testing.T) {
	var r SlowRing
	const goroutines = 8
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				v := uint64(g*1_000_000 + i)
				var stages [NumTraceStages]uint64
				for s := range stages {
					stages[s] = v
				}
				r.Record(SlowOp{Op: "put", UnixNanos: int64(v), TotalNanos: v, Stages: stages})
			}
		}(g)
	}
	deadline := time.After(50 * time.Millisecond)
	for done := false; !done; {
		select {
		case <-deadline:
			done = true
		default:
		}
		for _, rec := range r.Dump() {
			if rec.TotalNanos != uint64(rec.UnixNanos) {
				t.Errorf("torn record: total %d vs unix %d", rec.TotalNanos, rec.UnixNanos)
			}
			for s := range rec.Stages {
				if rec.Stages[s] != rec.TotalNanos {
					t.Errorf("torn record: stage %d = %d, total %d", s, rec.Stages[s], rec.TotalNanos)
				}
			}
		}
		if t.Failed() {
			break
		}
	}
	close(stop)
	wg.Wait()

	dump := r.Dump()
	if len(dump) == 0 || len(dump) > slowRingSize {
		t.Fatalf("dump size = %d, want (0, %d]", len(dump), slowRingSize)
	}
	for i := 1; i < len(dump); i++ {
		if dump[i-1].UnixNanos < dump[i].UnixNanos {
			t.Fatalf("dump not newest-first at %d", i)
		}
	}
}

// TestSlowOpJSON pins the self-describing /slow dump shape.
func TestSlowOpJSON(t *testing.T) {
	op := SlowOp{Op: "put", UnixNanos: 42, TotalNanos: 100, Sampled: true}
	op.Stages[StageApply] = 70
	data, err := json.Marshal(op)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	if m["op"] != "put" || m["apply_nanos"] != float64(70) || m["sampled"] != true {
		t.Fatalf("slow-op JSON = %s", data)
	}
	if _, ok := m["decode_nanos"]; !ok {
		t.Fatalf("missing stage key in %s", data)
	}
}

// TestTraceSnapshot checks the trace fold.
func TestTraceSnapshot(t *testing.T) {
	tr := &TraceMetrics{}
	var stages [NumTraceStages]uint64
	stages[StageApply] = 900
	stages[StageRespond] = 100
	tr.Record(ServerOpPut, time.Now().UnixNano(), &stages, 1000)
	tr.Record(ServerOp(-1), 0, &stages, 1) // out of range: dropped
	s := tr.Snapshot()
	if len(s.Ops) != int(NumServerOps) {
		t.Fatalf("ops = %d, want %d", len(s.Ops), NumServerOps)
	}
	put := s.Ops[ServerOpPut]
	if put.Total.Count != 1 || put.Stages[StageApply].Window.Sum != 900 {
		t.Fatalf("trace fold: total count %d, apply sum %d",
			put.Total.Count, put.Stages[StageApply].Window.Sum)
	}
}

// TestTraceRecordDoesNotAllocate guards the instrumented request path's
// zero-allocation contract: window observes, trace records, and slow-ring
// captures must all run without allocating.
func TestTraceRecordDoesNotAllocate(t *testing.T) {
	var w Window
	now := time.Now().UnixNano()
	if n := testing.AllocsPerRun(1000, func() { w.ObserveAt(now, 123) }); n != 0 {
		t.Fatalf("Window.ObserveAt allocates %v/op", n)
	}
	tr := &TraceMetrics{}
	var stages [NumTraceStages]uint64
	if n := testing.AllocsPerRun(1000, func() {
		tr.Record(ServerOpPut, now, &stages, 1000)
	}); n != 0 {
		t.Fatalf("TraceMetrics.Record allocates %v/op", n)
	}
	rec := SlowOp{Op: "put", UnixNanos: now, TotalNanos: 1000}
	if n := testing.AllocsPerRun(1000, func() { tr.Slow.Record(rec) }); n != 0 {
		t.Fatalf("SlowRing.Record allocates %v/op", n)
	}
}

// TestWritePrometheusWindowSummary checks the summary exposition of
// windowed points: quantile series plus windowed _sum/_count.
func TestWritePrometheusWindowSummary(t *testing.T) {
	tr := &TraceMetrics{}
	var stages [NumTraceStages]uint64
	stages[StageApply] = 1000
	tr.Record(ServerOpPut, time.Now().UnixNano(), &stages, 1000)
	var sb strings.Builder
	if err := WritePrometheus(&sb, "pmago", Snapshot{Trace: tr.Snapshot()}); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TYPE pmago_trace_request_window_seconds summary",
		`pmago_trace_request_window_seconds{op="put",quantile="0.99"}`,
		`pmago_trace_request_window_seconds_count{op="put"} 1`,
		`pmago_trace_stage_window_seconds{op="put",stage="apply",quantile="0.5"}`,
		"# TYPE pmago_trace_flush_window_seconds summary",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus output missing %q", want)
		}
	}
	if t.Failed() {
		t.Logf("output:\n%s", out)
	}
}
