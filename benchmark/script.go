package main

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	rtmetrics "runtime/metrics"
	"runtime/pprof"
	"sync/atomic"
	"time"

	"pmago"
	"pmago/client"
)

// The script: after set-up, three timed phases (rw, scan, ingest), an
// untimed checkpoint on the durable stack, and verify. The load is a closed
// loop from exactly two goroutines, G0 and G1: each waits for its reply
// before sending the next request, so a stall in the system lowers the load
// it receives and the latency percentiles under-count it (coordinated
// omission); the *_max_ms layer metrics expose the stalls themselves.

// phaseTimes are the time boxes of the three timed phases.
type phaseTimes struct{ rw, scan, ingest time.Duration }

// splitSeconds divides a run's measuring time over the phases in the
// script's fixed 10:6:6 proportion.
func splitSeconds(seconds float64) phaseTimes {
	d := func(share float64) time.Duration {
		return time.Duration(seconds * share / 22 * float64(time.Second))
	}
	return phaseTimes{rw: d(10), scan: d(6), ingest: d(6)}
}

// untimedDeadline bounds every step that has no time box of its own
// (set-up, checkpoint, verify, reopen).
const untimedDeadline = 60 * time.Second

// sampleStride is the deterministic stride at which point ops are timed:
// two clock reads per eight ops keep the timer cost below 2 % of a 300 ns
// Get. Scans and batches are all timed.
const sampleStride = 8

// runSpec says what one script run does.
type runSpec struct {
	workload string // labels the output
	stack    string // the stack to build; differs from workload for the base rung
	seed     uint64
	n        int64 // preloaded pairs
	times    phaseTimes
	reps     int     // repetitions of the script, each on a freshly built stack
	tmp      string  // directory for durable state
	tracer   *tracer // nil for an untraced run
	verifyN  int     // sampled Gets in verify
	// wrapKV, when not nil, decorates what the load goroutines call. The
	// tests use it to inject wrong answers and hangs.
	wrapKV func(kv) kv
}

// loader is one load goroutine.
type loader struct {
	id  int
	run *scriptRun
	kv  kv

	attempted, failed int64
	firstErr          string
	// attempted and failed as of the last timed op: what the watchdog may
	// read while the goroutine is stuck in a call.
	pubAttempted, pubFailed atomic.Int64

	lat [numPhases]*latencies // point ops (G0: updates and Puts; G1: Gets)
	win [numPhases]*windows

	// G1 only.
	latShort, latLong, latBatch *latencies
}

// scriptRun is the state of one repetition of the script against one
// freshly built stack.
type scriptRun struct {
	spec  runSpec
	rep   int
	bufs  *buffers
	prev  *stack // the previous repetition's stack, torn down once this one is built
	ks    keyScheme
	base  time.Time
	st    *stack
	g     [2]*loader
	upd   *updateStream
	cnt   opCounts
	snaps map[string]*snapshot

	setupS       float64
	checkpointS  float64
	reopenS      float64
	heapAtScan   uint64 // live heap after the scan phase: this store plus the benchmark's own
	lenAtHeap    int
	replayRecs   uint64
	ckptKeys     int64 // keys written up to the start of the checkpoint
	phaseReached string
	hung         int64 // goroutines stuck in a call when the watchdog fired
	hungErr      string
	shortAllocs  float64 // sharded only: mallocs per short scan, store quiesced
	peakHeap     atomic.Uint64
	peakGor      atomic.Int64
}

func (r *scriptRun) now() int64 { return int64(time.Since(r.base)) }

// snapshot is everything read from outside the program at a phase boundary.
type snapshot struct {
	at     int64
	stats  pmago.Stats
	client [2]client.ClientStats
	mem    runtime.MemStats
	gcCPU  float64 // cumulative GC CPU seconds
}

func (r *scriptRun) snap(name string) {
	s := &snapshot{at: r.now(), stats: r.st.stats()}
	for i, c := range r.st.clients {
		if c != nil {
			s.client[i] = c.LocalStats()
		}
	}
	runtime.ReadMemStats(&s.mem)
	sample := []rtmetrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	rtmetrics.Read(sample)
	if sample[0].Value.Kind() == rtmetrics.KindFloat64 {
		s.gcCPU = sample[0].Value.Float64()
	}
	r.snaps[name] = s
}

func (l *loader) fail(format string, args ...any) {
	l.failed++
	if l.firstErr == "" {
		l.firstErr = fmt.Sprintf("G%d: ", l.id) + fmt.Sprintf(format, args...)
	}
}

// errAborted reports a phase that hung or panicked: the run stops, what
// finished is printed and the process exits non-zero.
var errAborted = errors.New("run aborted")

// watchdog is the deadline of a timed phase: three times its time box.
func watchdog(box time.Duration) time.Duration { return 3 * box }

// phase runs f0 and f1 as G0 and G1 and waits for both. A goroutine that
// panics in a store call, or is still running at the deadline, has one op
// in flight, which is counted as failed.
func (r *scriptRun) phase(name string, deadline time.Duration, f0, f1 func(l *loader)) error {
	r.phaseReached = name
	type outcome struct {
		g        int
		panicked any
	}
	done := make(chan outcome, 2)
	for g, f := range []func(*loader){f0, f1} {
		go func() {
			var o outcome
			o.g = g
			defer func() {
				o.panicked = recover()
				done <- o
			}()
			if f != nil {
				f(r.g[g])
			}
		}()
	}
	expired := time.NewTimer(deadline)
	defer expired.Stop()
	var err error
	for finished := 0; finished < 2; {
		select {
		case o := <-done:
			finished++
			if o.panicked != nil {
				l := r.g[o.g]
				l.attempted++
				l.fail("panic in %s: %v", name, o.panicked)
				err = errAborted
			}
		case <-expired.C:
			fmt.Fprintf(os.Stderr, "benchmark: phase %s of %s passed its deadline of %v; goroutine stacks follow\n", name, r.spec.workload, deadline)
			_ = pprof.Lookup("goroutine").WriteTo(os.Stderr, 2)
			// The stuck goroutines still own their counters; totals reads
			// what they last published and counts their ops in flight.
			r.hung = int64(2 - finished)
			r.hungErr = fmt.Sprintf("phase %s hung: %d op(s) in flight at the deadline", name, r.hung)
			return errAborted
		}
	}
	return err
}

// publish tells the tracer which request the goroutine is about to wait
// for, so the backend calls it causes can be linked to it.
func (l *loader) publish(key int64) {
	if t := l.run.spec.tracer; t != nil {
		t.begin(l.id, key)
	}
}

// finish is the bookkeeping after every timed call: latency, window credit,
// span.
func (l *loader) finish(span, phase int, t0 int64, lat *latencies, win *windows, work int64) int64 {
	t1 := l.run.now()
	lat.add(t1-t0, t1)
	if win != nil {
		win.add(t1, work)
	}
	if t := l.run.spec.tracer; t != nil {
		t.end(l.id)
		t.bufs[l.id].add(span, phase, t0, t1)
	}
	l.pubAttempted.Store(l.attempted)
	l.pubFailed.Store(l.failed)
	return t1
}

// updates is G0 in rw, scan and checkpoint: the update stream, timed every
// sampleStride-th op (every op when traced or when all is set), until the
// deadline or until stop is set.
func (l *loader) updates(phase int, end int64, stop *atomic.Bool, all bool) {
	r := l.run
	all = all || r.spec.tracer != nil
	lat, win := l.lat[phase], l.win[phase]
	pending := int64(0)
	for i := 0; ; i++ {
		if stop != nil && stop.Load() {
			return
		}
		timed := all || i%sampleStride == 0
		var t0 int64
		if timed {
			if t0 = r.now(); t0 >= end {
				return
			}
		}
		del, k := r.upd.next()
		if timed {
			l.publish(k)
		}
		var err error
		span := spPut
		if del {
			span = spDelete
			_, err = l.kv.Delete(k)
		} else {
			err = l.kv.Put(k, r.ks.val(k))
		}
		r.cnt.updates++
		l.attempted++
		pending++
		if err != nil {
			l.fail("update %d: %v", k, err)
		}
		if timed {
			l.finish(span, phase, t0, lat, win, pending)
			pending = 0
		}
	}
}

// gets is G1 in rw: every answer is checked against the key scheme.
func (l *loader) gets(end int64) {
	r := l.run
	all := r.spec.tracer != nil
	gs := newGetStream(r.ks)
	lat, win := l.lat[phRW], l.win[phRW]
	pending := int64(0)
	for i := 0; ; i++ {
		timed := all || i%sampleStride == 0
		var t0 int64
		if timed {
			if t0 = r.now(); t0 >= end {
				return
			}
		}
		k, hit := gs.next()
		if timed {
			l.publish(k)
		}
		v, ok, err := l.kv.Get(k)
		l.attempted++
		pending++
		switch {
		case err != nil:
			l.fail("get %d: %v", k, err)
		case ok != hit:
			l.fail("get %d: found=%v, want %v", k, ok, hit)
		case hit && v != r.ks.val(k):
			l.fail("get %d: value %d, want %d", k, v, r.ks.val(k))
		}
		if timed {
			l.finish(spGet, phRW, t0, lat, win, pending)
			pending = 0
		}
	}
}

// checkScan runs one window scan and checks it: keys ascending and in
// range, exactly the window's preloaded keys among them (no even key is
// ever added or removed), and preloaded values intact on a sample.
func (l *loader) checkScan(lo, hi, width int64) (pairs int64) {
	ks := l.run.ks
	prev, evens := lo-1, int64(0)
	bad := ""
	err := l.kv.Scan(lo, hi, func(k, v int64) bool {
		if k <= prev || k > hi {
			bad = fmt.Sprintf("key %d after %d", k, prev)
			return false
		}
		prev = k
		pairs++
		if k&1 == 0 {
			evens++
			if k&0x70 == 0 && v != ks.val(k) {
				bad = fmt.Sprintf("key %d has value %d, want %d", k, v, ks.val(k))
				return false
			}
		}
		return true
	})
	l.attempted++
	switch {
	case err != nil:
		l.fail("scan [%d,%d]: %v", lo, hi, err)
	case bad != "":
		l.fail("scan [%d,%d]: %s", lo, hi, bad)
	case evens != width:
		l.fail("scan [%d,%d]: %d preloaded keys, want %d", lo, hi, evens, width)
	}
	return pairs
}

// scans is G1 in scan: one short and one long window in turn, all timed.
func (l *loader) scans(end int64) {
	r := l.run
	ss := newScanStream(r.ks)
	for {
		t0 := r.now()
		if t0 >= end {
			return
		}
		lo, hi, width, long := ss.next()
		span, lat := spScanShort, l.latShort
		if long {
			span, lat = spScanLong, l.latLong
		}
		l.publish(lo)
		pairs := l.checkScan(lo, hi, width)
		l.finish(span, phScan, t0, lat, l.win[phScan], pairs)
	}
}

// ingestPoints is G0 in ingest: point Puts at Zipf-drawn clusters.
func (l *loader) ingestPoints(end int64) {
	r := l.run
	all := r.spec.tracer != nil
	is := newIngestStream(r.ks, tagIngestPoint)
	lat, win := l.lat[phIngest], l.win[phIngest]
	pending := int64(0)
	for i := 0; ; i++ {
		// The key is drawn before the clock is read: a Zipf draw costs as
		// much as a fast Put and is not the system's time.
		k := is.point()
		timed := all || i%sampleStride == 0
		var t0 int64
		if timed {
			if t0 = r.now(); t0 >= end {
				return
			}
			l.publish(k)
		}
		err := l.kv.Put(k, r.ks.val(k))
		r.cnt.ingestPoints++
		l.attempted++
		pending++
		if err != nil {
			l.fail("ingest put %d: %v", k, err)
		}
		if timed {
			l.finish(spPut, phIngest, t0, lat, win, pending)
			pending = 0
		}
	}
}

// ingestBatches is G1 in ingest: sorted clustered batches, all timed.
func (l *loader) ingestBatches(end int64) {
	r := l.run
	is := newIngestStream(r.ks, tagIngestBatch)
	for {
		keys, vals := is.nextBatch()
		t0 := r.now()
		if t0 >= end {
			return
		}
		l.publish(keys[0])
		err := l.kv.PutBatch(keys, vals)
		r.cnt.ingestBatches++
		l.attempted++
		if err != nil {
			l.fail("ingest batch at %d: %v", keys[0], err)
		}
		l.finish(spPutBatch, phIngest, t0, l.latBatch, l.win[phIngest], int64(len(keys)))
	}
}

// setup builds the stack, timed, and then tears down the previous
// repetition's. Building before tearing down puts every repetition's store
// on memory of its own: on this class of machine where a store lands moves
// its speed by more than anything inside a run, and the median over
// repetitions is what evens that out.
func (r *scriptRun) setup() error {
	keys, vals := r.ks.preload()
	var wrap func(pmago.Store) pmago.Store
	if t := r.spec.tracer; t != nil {
		wrap = func(s pmago.Store) pmago.Store { return spanStore{s, t} }
	}
	t0 := time.Now()
	st, err := build(r.spec.stack, keys, vals, r.spec.tmp, wrap)
	if err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	r.setupS = time.Since(t0).Seconds()
	r.st = st
	if r.prev != nil {
		err = r.prev.teardown()
		r.prev = nil
		if err != nil {
			return fmt.Errorf("teardown of the previous repetition: %w", err)
		}
		// Collect the old store now: left to the background collector,
		// freeing it would take a core from the timed phases.
		runtime.GC()
		runtime.GC()
	}
	return nil
}

// window gives both goroutines their windows for a phase starting now, and
// ties the phase's point-op latency samples to them.
func (r *scriptRun) window(phase int, start int64, box time.Duration) {
	for _, l := range r.g {
		l.win[phase] = newWindows(start, int64(box))
		if l.lat[phase] != nil {
			l.lat[phase].win = l.win[phase]
		}
	}
	if phase == phScan {
		r.g[1].latShort.win = r.g[1].win[phScan]
	}
}

// bind points the load goroutines at the stack.
func (r *scriptRun) bind() {
	for g, l := range r.g {
		l.kv = r.st.kv[g]
		if r.spec.wrapKV != nil {
			l.kv = r.spec.wrapKV(l.kv)
		}
	}
}

// heapNow is the live heap after two collections.
func heapNow() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// sampler tracks the peaks no phase boundary can see.
func (r *scriptRun) sampler(stop <-chan struct{}, done chan<- struct{}) {
	defer close(done)
	tick := time.NewTicker(50 * time.Millisecond)
	defer tick.Stop()
	sample := []rtmetrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
			rtmetrics.Read(sample)
			if sample[0].Value.Kind() == rtmetrics.KindUint64 {
				if v := sample[0].Value.Uint64(); v > r.peakHeap.Load() {
					r.peakHeap.Store(v)
				}
			}
			if n := int64(runtime.NumGoroutine()); n > r.peakGor.Load() {
				r.peakGor.Store(n)
			}
		}
	}
}

// execute runs the whole script once. It returns errAborted after a hang or
// a panic, another error when a step outside the store failed; wrong
// answers are not errors here, they are failed ops. On success the stack is
// left up in r.st for the caller to tear down.
func (r *scriptRun) execute() (err error) {
	r.base = time.Now()
	r.ks = keyScheme{seed: mix(r.spec.seed, uint64(r.rep)), n: r.spec.n}
	r.snaps = map[string]*snapshot{}
	if t := r.spec.tracer; t != nil {
		t.reset(r.base)
	}
	r.bufs.reset()
	g0, g1 := &loader{id: 0, run: r}, &loader{id: 1, run: r}
	g0.lat = r.bufs.g0
	g1.lat[phRW], g1.lat[phCheckpoint] = r.bufs.g1rw, r.bufs.g1ckpt
	g1.latShort, g1.latLong, g1.latBatch = r.bufs.short, r.bufs.long, r.bufs.batch
	r.g = [2]*loader{g0, g1}

	stopSampler, samplerDone := make(chan struct{}), make(chan struct{})
	go r.sampler(stopSampler, samplerDone)
	defer func() {
		close(stopSampler)
		<-samplerDone
		if err == nil {
			return // the stack stays up until the next repetition is built
		}
		for _, st := range []*stack{r.prev, r.st} {
			switch {
			case st == nil:
			case r.hung > 0:
				// Goroutines are stuck inside the store: closing it
				// could hang too. Only the durable state is removed.
				if st.dir != "" {
					os.RemoveAll(st.dir)
				}
			default:
				_ = st.teardown() // the run already failed; report that error
			}
		}
		r.prev, r.st = nil, nil
	}()

	if err := r.bounded("setup", r.setup); err != nil {
		return err
	}
	r.bind()
	r.upd = newUpdateStream(r.ks)
	r.snap("setup")

	// rw: G0 updates, G1 Gets.
	start := r.now()
	end := start + int64(r.spec.times.rw)
	r.window(phRW, start, r.spec.times.rw)
	if err := r.phase("rw", watchdog(r.spec.times.rw),
		func(l *loader) { l.updates(phRW, end, nil, false) },
		func(l *loader) { l.gets(end) }); err != nil {
		return err
	}
	r.snap("rw")

	// scan: G0 keeps updating, G1 scans.
	start = r.now()
	end = start + int64(r.spec.times.scan)
	r.window(phScan, start, r.spec.times.scan)
	if err := r.phase("scan", watchdog(r.spec.times.scan),
		func(l *loader) { l.updates(phScan, end, nil, false) },
		func(l *loader) { l.scans(end) }); err != nil {
		return err
	}
	r.snap("scan")

	// checkpoint: one Snapshot while G0 keeps updating, every op timed.
	r.ckptKeys = r.cnt.updates
	if db := r.st.db; db != nil {
		var stop atomic.Bool
		var snapErr error
		if err := r.phase("checkpoint", untimedDeadline,
			func(l *loader) { l.updates(phCheckpoint, r.now()+int64(untimedDeadline), &stop, true) },
			func(l *loader) {
				defer stop.Store(true)
				t0 := r.now()
				snapErr = db.Snapshot()
				l.attempted++
				t1 := l.finish(spCheckpoint, phCheckpoint, t0, l.lat[phCheckpoint], nil, 0)
				r.checkpointS = float64(t1-t0) / 1e9
			}); err != nil {
			return err
		}
		if snapErr != nil {
			r.g[1].fail("checkpoint: %v", snapErr)
		}
		r.snap("checkpoint")
	}

	// The store's heap is taken here, where the script fixes the store's
	// size; after ingest the size depends on the measured speed.
	r.st.store.Flush()
	r.lenAtHeap = r.st.store.Len()
	r.heapAtScan = heapNow()
	r.snap("heap")

	// ingest: two writers on the same hot key ranges.
	start = r.now()
	end = start + int64(r.spec.times.ingest)
	r.window(phIngest, start, r.spec.times.ingest)
	if err := r.phase("ingest", watchdog(r.spec.times.ingest),
		func(l *loader) { l.ingestPoints(end) },
		func(l *loader) { l.ingestBatches(end) }); err != nil {
		return err
	}
	r.snap("ingest")

	if err := r.bounded("verify", func() error { return r.verify("verify") }); err != nil {
		return err
	}
	r.snap("verify")

	if r.spec.stack == stackSharded {
		if err := r.bounded("short scans", r.shortScanAllocs); err != nil {
			return err
		}
	}

	if r.st.db == nil || r.rep != r.spec.reps-1 {
		return nil
	}
	// durable, once per run: Sync, Close, timed reopen, the same checks
	// again.
	return r.bounded("reopen", func() error {
		if err := r.st.db.Sync(); err != nil {
			return fmt.Errorf("sync: %w", err)
		}
		if err := r.st.close(); err != nil {
			return fmt.Errorf("close: %w", err)
		}
		r.st.close = nil
		t0 := time.Now()
		if err := r.st.open(); err != nil {
			return err
		}
		r.reopenS = time.Since(t0).Seconds()
		r.replayRecs = r.st.stats().Recovery.WALRecords
		r.bind()
		return r.verify("verify after reopen")
	})
}

// shortScanAllocs counts the heap allocations of a short scan on the
// quiesced store: the fixed per-call cost of the sharded fan-out.
func (r *scriptRun) shortScanAllocs() error {
	const scans = 1000
	ss := newScanStream(r.ks)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < 2*scans; i++ {
		if lo, hi, width, long := ss.next(); !long {
			r.g[0].checkScan(lo, hi, width)
		}
	}
	runtime.ReadMemStats(&after)
	r.shortAllocs = float64(after.Mallocs-before.Mallocs) / scans
	return nil
}

// bounded runs a step that has no time box under the untimed deadline.
func (r *scriptRun) bounded(name string, f func() error) error {
	var ferr error
	if err := r.phase(name, untimedDeadline, func(*loader) { ferr = f() }, nil); err != nil {
		return err
	}
	return ferr
}

// verify checks the quiesced store against the benchmark's own model:
// structure, size, one full ordered scan, and sampled Gets of fresh keys.
// Every check is one attempted op of G0.
func (r *scriptRun) verify(step string) error {
	l := r.g[0]
	st := r.st
	check := func(ok bool, format string, args ...any) {
		l.attempted++
		if !ok {
			l.fail(step+": "+format, args...)
		}
	}
	st.store.Flush()
	verr := st.store.Validate()
	check(verr == nil, "Validate: %v", verr)

	m := replay(r.ks, r.cnt)
	want := int(r.ks.n + m.count)
	check(st.store.Len() == want, "Len %d, want %d", st.store.Len(), want)

	prev, n, bad := int64(-1), 0, ""
	err := l.kv.Scan(0, r.ks.span(), func(k, v int64) bool {
		n++
		switch {
		case k <= prev:
			bad = fmt.Sprintf("key %d after %d", k, prev)
		case v != r.ks.val(k):
			bad = fmt.Sprintf("key %d has value %d", k, v)
		case k&1 == 1 && !m.has(k):
			bad = fmt.Sprintf("fresh key %d is not in the model", k)
		case k&1 == 0 && r.ks.classify(k) != classPreloaded:
			bad = fmt.Sprintf("even key %d was never preloaded", k)
		}
		prev = k
		return bad == ""
	})
	check(err == nil && bad == "", "full scan: %v %s", err, bad)
	check(n == want, "full scan delivered %d pairs, want %d", n, want)

	// Sampled Gets of fresh keys: half drawn from keys the write streams
	// produced (mostly present), half uniform odd keys (mostly absent).
	p := newIngestStream(r.ks, tagIngestPoint)
	rnd := rng{mix(r.ks.seed, tagVerify)}
	for i := 0; i < r.spec.verifyN; i++ {
		k := r.ks.freshKey(rnd.next())
		if i%2 == 0 {
			k = p.point()
		}
		v, ok, err := l.kv.Get(k)
		check(err == nil && ok == m.has(k) && (!ok || v == r.ks.val(k)),
			"get %d: (%d, %v, %v), model has=%v", k, v, ok, err, m.has(k))
	}
	return nil
}

// attempted and failed sum both goroutines.
func (r *scriptRun) totals() (attempted, failed int64, firstErr string) {
	for _, l := range r.g {
		switch {
		case l == nil:
		case r.hung > 0:
			attempted += l.pubAttempted.Load()
			failed += l.pubFailed.Load()
		default:
			attempted += l.attempted
			failed += l.failed
			if firstErr == "" {
				firstErr = l.firstErr
			}
		}
	}
	if r.hung > 0 {
		return attempted + r.hung, failed + r.hung, r.hungErr
	}
	return attempted, failed, firstErr
}

// buffers are the latency sample buffers of a run: sized for the fastest
// stack, allocated once before the first set-up and reused by every
// repetition, so the timed phases allocate nothing of the benchmark's own
// and the benchmark's own heap is the same whenever it is measured.
type buffers struct {
	g0                 [numPhases]*latencies
	g1rw, g1ckpt       *latencies
	short, long, batch *latencies
}

func newBuffers(times phaseTimes, traced bool) *buffers {
	perSecond := 2 << 20
	if !traced {
		perSecond /= sampleStride / 2
	}
	buf := func(d time.Duration) *latencies {
		return newLatencies(int(d.Seconds()*float64(perSecond)) + 1024)
	}
	return &buffers{
		g0: [numPhases]*latencies{phRW: buf(times.rw), phScan: buf(times.scan),
			phCheckpoint: newLatencies(1 << 20), phIngest: buf(times.ingest)},
		g1rw: buf(times.rw), g1ckpt: newLatencies(1),
		short: newLatencies(1 << 18), long: newLatencies(1 << 18), batch: newLatencies(1 << 18),
	}
}

func (b *buffers) reset() {
	for _, l := range append(b.g0[:], b.g1rw, b.g1ckpt, b.short, b.long, b.batch) {
		l.ns, l.starts, l.dropped, l.win = l.ns[:0], l.starts[:0], 0, nil
	}
}
