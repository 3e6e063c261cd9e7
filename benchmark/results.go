package main

import (
	"encoding/json"
	"math"
	"runtime"
	"slices"
)

// metrics maps metric name to value; NaN means the metric does not apply
// to the workload (JSON null).
type metrics map[string]float64

func (m metrics) MarshalJSON() ([]byte, error) {
	out := make(map[string]*float64, len(m))
	for k, v := range m {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			out[k] = nil
		} else {
			out[k] = &v
		}
	}
	return json.Marshal(out)
}

func (m *metrics) UnmarshalJSON(b []byte) error {
	var in map[string]*float64
	if err := json.Unmarshal(b, &in); err != nil {
		return err
	}
	*m = make(metrics, len(in))
	for k, v := range in {
		if v == nil {
			(*m)[k] = math.NaN()
		} else {
			(*m)[k] = *v
		}
	}
	return nil
}

// sampleInfo is the count behind a percentile, and the percentile the
// count supported when that is not the one in the metric's name.
type sampleInfo struct {
	N          int     `json:"n"`
	Percentile float64 `json:"percentile,omitempty"`
	Dropped    int64   `json:"dropped,omitempty"`
}

// failStep counts a failed step outside the store's ops (set-up, teardown,
// the drives, the span file) as one failed op.
func (r *workloadResult) failStep(err error) {
	r.Failed++
	r.Correct = false
	if r.FirstError == "" {
		r.FirstError = err.Error()
	}
}

// value looks a metric up among the end-to-end and the per-layer metrics.
func (r *workloadResult) value(name string) float64 {
	if v, ok := r.E2E[name]; ok {
		return v
	}
	if v, ok := r.Layers[name]; ok {
		return v
	}
	return math.NaN()
}

// workloadResult is everything one workload reports.
type workloadResult struct {
	Correct      bool                   `json:"correct"`
	Attempted    int64                  `json:"attempted"`
	Failed       int64                  `json:"failed"`
	FirstError   string                 `json:"first_error,omitempty"`
	PhaseReached string                 `json:"phase_reached"`
	E2E          metrics                `json:"e2e"`
	Layers       metrics                `json:"layers"`
	Samples      map[string]sampleInfo  `json:"samples"`
	Windows      map[string]windowStats `json:"windows"`
	SelfTime     map[string]selfTime    `json:"self_time,omitempty"`
	// Reps holds each repetition's value of every end-to-end metric; the
	// value in E2E is their median.
	Reps map[string][]float64 `json:"reps,omitempty"`

	// What aggregate needs from one repetition.
	heapAtScan uint64
	lenAtHeap  int
	shortScans [][]int64 // short-scan samples by window, each sorted
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// summarise turns one finished (or aborted) repetition into its result: the
// end-to-end metrics and the per-layer metrics read from outside the
// program at the phase boundaries. Phases that did not run leave NaN.
func (r *scriptRun) summarise() *workloadResult {
	res := &workloadResult{
		PhaseReached: r.phaseReached,
		E2E:          metrics{},
		Layers:       metrics{},
		Samples:      map[string]sampleInfo{},
		Windows:      map[string]windowStats{},
	}
	res.Attempted, res.Failed, res.FirstError = r.totals()
	if res.Attempted == 0 {
		res.Attempted = 1 // set-up itself failed: one attempt, failed
		res.Failed = 1
	}
	for _, d := range append(append([]metricDef{}, e2eCatalog...), compareCatalog...) {
		res.E2E[d.Name] = math.NaN()
	}
	for _, d := range layerCatalog {
		res.Layers[d.Name] = math.NaN()
	}
	e, g0, g1 := res.E2E, r.g[0], r.g[1]
	if g0 == nil || r.setupS == 0 {
		return res
	}
	e["setup_s"] = r.setupS
	res.Samples["setup_s"] = sampleInfo{N: 1}

	window := func(name string, ws ...*windows) float64 {
		for _, w := range ws {
			if w == nil {
				return math.NaN()
			}
		}
		st := rate(ws...)
		res.Windows[name] = st
		return st.Median
	}
	p50 := func(name string, sorted []int64) {
		e[name] = quantile(sorted, 0.5) / 1e3
		res.Samples[name] = sampleInfo{N: len(sorted)}
	}
	p99 := func(name string, v, q float64, n int, dropped int64) {
		e[name] = v / 1e3
		info := sampleInfo{N: n, Dropped: dropped}
		if q != 0.99 {
			info.Percentile = q
		}
		res.Samples[name] = info
	}
	reached := func(snap string) bool { return r.snaps[snap] != nil }

	if reached("rw") {
		e["update_ops_s"] = window("update_ops_s", g0.win[phRW])
		e["get_ops_s"] = window("get_ops_s", g1.win[phRW])
		p50("get_p50_us", pooled(g1.lat[phRW]))
		v, q, n := windowedTail(g1.lat[phRW])
		p99("get_p99_us", v, q, n, g1.lat[phRW].dropped)
	}
	if reached("scan") {
		p50("update_p50_us", pooled(g0.lat[phRW], g0.lat[phScan]))
		v, q, n := windowedTail(g0.lat[phRW], g0.lat[phScan])
		p99("update_p99_us", v, q, n, g0.lat[phRW].dropped+g0.lat[phScan].dropped)
		e["scan_pairs_s"] = window("scan_pairs_s", g1.win[phScan])
		res.shortScans = g1.latShort.perWindow()
		p50("scan_short_p50_us", pooled(g1.latShort))
		v, q, n = groupedTail(res.shortScans)
		p99("scan_short_p99_us", v, q, n, g1.latShort.dropped)
		res.Samples["scan_long"] = sampleInfo{N: len(g1.latLong.ns)}
	}
	res.heapAtScan, res.lenAtHeap = r.heapAtScan, r.lenAtHeap
	if reached("ingest") {
		e["ingest_keys_s"] = window("ingest_keys_s", g0.win[phIngest], g1.win[phIngest])
		v, q, n := windowedTail(g0.lat[phIngest])
		p99("ingest_put_p99_us", v, q, n, g0.lat[phIngest].dropped)
		res.Samples["ingest_batch"] = sampleInfo{N: len(g1.latBatch.ns)}
	}
	r.statLayers(res)
	return res
}

// medianFinite is the median of the values that are numbers, NaN if none.
func medianFinite(v []float64) float64 {
	var s []float64
	for _, x := range v {
		if !math.IsNaN(x) {
			s = append(s, x)
		}
	}
	slices.Sort(s)
	return median(s)
}

// aggregate folds the repetitions of one run into the run's result. Every
// metric is the median of the repetitions' values, with two exceptions:
// the short-scan tail is read over the windows of all repetitions together,
// because one repetition may have too few short scans to support a tail,
// and heap_bytes_per_pair needs ownHeap, the benchmark's own live heap, which
// can only be measured once the last store is closed.
func aggregate(reps []*workloadResult, ownHeap uint64) *workloadResult {
	out := &workloadResult{
		Correct: true, E2E: metrics{}, Layers: metrics{}, Reps: map[string][]float64{},
		Samples: map[string]sampleInfo{}, Windows: map[string]windowStats{},
	}
	var short [][]int64
	for _, r := range reps {
		out.Correct = out.Correct && r.Correct
		out.Attempted += r.Attempted
		out.Failed += r.Failed
		if out.FirstError == "" {
			out.FirstError = r.FirstError
		}
		out.PhaseReached = r.PhaseReached
		if ownHeap > 0 && r.lenAtHeap > 0 {
			r.E2E["heap_bytes_per_pair"] = (float64(r.heapAtScan) - float64(ownHeap)) / float64(r.lenAtHeap)
		}
		short = append(short, r.shortScans...)
		for name, si := range r.Samples {
			acc := out.Samples[name]
			acc.N += si.N
			acc.Dropped += si.Dropped
			acc.Percentile = max(acc.Percentile, si.Percentile)
			out.Samples[name] = acc
		}
		for name, ws := range r.Windows {
			acc, seen := out.Windows[name]
			if !seen {
				acc.Min = ws.Min
			}
			acc.Min, acc.Max, acc.N = min(acc.Min, ws.Min), max(acc.Max, ws.Max), acc.N+ws.N
			acc.Rates = append(acc.Rates, ws.Rates...)
			out.Windows[name] = acc
		}
	}
	for name := range reps[0].E2E {
		for _, r := range reps {
			out.Reps[name] = append(out.Reps[name], r.E2E[name])
		}
		out.E2E[name] = medianFinite(out.Reps[name])
		if slices.ContainsFunc(out.Reps[name], math.IsNaN) {
			delete(out.Reps, name) // not every repetition has it
		}
	}
	for name := range reps[0].Layers {
		var v []float64
		for _, r := range reps {
			v = append(v, r.Layers[name])
		}
		out.Layers[name] = medianFinite(v)
	}
	for name, ws := range out.Windows {
		ws.Median = out.E2E[name]
		out.Windows[name] = ws
	}
	if len(reps) > 1 && len(short) > 0 {
		v, q, n := groupedTail(short)
		out.E2E["scan_short_p99_us"] = v / 1e3
		info := sampleInfo{N: n}
		if q != 0.99 {
			info.Percentile = q
		}
		out.Samples["scan_short_p99_us"] = info
		delete(out.Reps, "scan_short_p99_us")
	}
	out.E2E["failed_ops_ratio"] = float64(out.Failed) / float64(out.Attempted)
	return out
}

// maxMs is the largest sample, in ms.
func maxMs(ls ...*latencies) float64 {
	var m int64
	for _, l := range ls {
		if len(l.ns) > 0 {
			m = max(m, slices.Max(l.ns))
		}
	}
	return float64(m) / 1e6
}

// statLayers fills the per-layer metrics whose source is S: deltas of
// Stats(), LocalStats() and the runtime between phase boundaries.
func (r *scriptRun) statLayers(res *workloadResult) {
	L, g0, g1 := res.Layers, r.g[0], r.g[1]
	s := r.snaps
	if s["setup"] == nil || s["ingest"] == nil {
		return
	}
	// d is the growth of a counter between two boundaries.
	d := func(from, to string, f func(*snapshot) float64) float64 { return f(s[to]) - f(s[from]) }
	opsG0RW := windowSum(g0.win[phRW])
	opsG0Scan := windowSum(g0.win[phScan])
	getsRW := windowSum(g1.win[phRW])
	pairsScan := windowSum(g1.win[phScan])
	scans := float64(len(g1.latShort.ns) + len(g1.latLong.ns))
	ingestKeys := windowSum(g0.win[phIngest]) + windowSum(g1.win[phIngest])
	mops := func(n float64) float64 { return n / 1e6 }
	wall := func(from, to string) float64 { return float64(s[to].at - s[from].at) }

	// core
	L["core.rebalances_local_per_mop"] = ratio(d("setup", "scan", func(x *snapshot) float64 { return float64(x.stats.Rebalance.Local) }), mops(opsG0RW+opsG0Scan))
	L["core.rebalances_global_per_mop"] = ratio(d("setup", "scan", func(x *snapshot) float64 { return float64(x.stats.Rebalance.Global) }), mops(opsG0RW+opsG0Scan))
	L["core.resizes"] = d("setup", "ingest", func(x *snapshot) float64 { return float64(x.stats.Rebalance.Resizes) })
	L["core.rebalance_busy_share"] = ratio(d("setup", "rw", func(x *snapshot) float64 { return float64(x.stats.Rebalance.RebalanceNanos.Sum) }), wall("setup", "rw"))
	L["core.rebalance_max_ms"] = float64(s["ingest"].stats.Rebalance.RebalanceNanos.Max) / 1e6
	L["core.resize_max_ms"] = float64(s["ingest"].stats.Rebalance.ResizeNanos.Max) / 1e6
	L["core.combined_ops_ratio"] = ratio(d("heap", "ingest", func(x *snapshot) float64 { return float64(x.stats.Updates.CombinedOps) }), windowSum(g0.win[phIngest]))
	L["core.deferred_batches_per_mop"] = ratio(d("heap", "ingest", func(x *snapshot) float64 { return float64(x.stats.Updates.DeferredBatches) }), mops(ingestKeys))
	allGets := d("setup", "rw", func(x *snapshot) float64 { return float64(x.stats.Reads.GetOptimistic + x.stats.Reads.GetLatched) })
	L["core.get_fallback_ratio"] = ratio(d("setup", "rw", func(x *snapshot) float64 { return float64(x.stats.Reads.GetLatched) }), allGets)
	L["core.get_probe_fails_per_get"] = ratio(d("setup", "rw", func(x *snapshot) float64 { return float64(x.stats.Reads.GetProbeFails) }), allGets)
	allChunks := d("rw", "scan", func(x *snapshot) float64 {
		return float64(x.stats.Reads.ScanChunksOptimistic + x.stats.Reads.ScanChunksLatched)
	})
	L["core.scan_fallback_ratio"] = ratio(d("rw", "scan", func(x *snapshot) float64 { return float64(x.stats.Reads.ScanChunksLatched) }), allChunks)
	L["core.update_max_ms"] = maxMs(g0.lat[phRW], g0.lat[phScan])
	L["core.ingest_put_max_ms"] = maxMs(g0.lat[phIngest])

	// compressed layout
	L["core.seg_decodes_per_get"] = ratio(d("setup", "rw", func(x *snapshot) float64 { return float64(x.stats.Compression.SegDecodes) }), getsRW)
	L["core.seg_decodes_per_scan_pair"] = ratio(d("rw", "scan", func(x *snapshot) float64 { return float64(x.stats.Compression.SegDecodes) }), pairsScan)
	L["core.reencode_bytes_per_update"] = ratio(d("setup", "rw", func(x *snapshot) float64 { return float64(x.stats.Compression.ReencodeBytes) }), opsG0RW)

	// persist and durable.go
	fs := func(x *snapshot) float64 { return float64(x.stats.WAL.Fsyncs) }
	L["persist.fsyncs"] = d("setup", "ingest", fs)
	L["persist.fsync_mean_ms"] = ratio(d("setup", "ingest", func(x *snapshot) float64 { return float64(x.stats.WAL.FsyncNanos.Sum) }),
		d("setup", "ingest", func(x *snapshot) float64 { return float64(x.stats.WAL.FsyncNanos.Count) })) / 1e6
	L["persist.fsync_max_ms"] = float64(s["ingest"].stats.WAL.FsyncNanos.Max) / 1e6
	L["persist.group_commit_mean_recs"] = ratio(d("setup", "ingest", func(x *snapshot) float64 { return float64(x.stats.WAL.GroupCommitRecords.Sum) }),
		d("setup", "ingest", func(x *snapshot) float64 { return float64(x.stats.WAL.GroupCommitRecords.Count) }))
	L["persist.rotations"] = d("setup", "ingest", func(x *snapshot) float64 { return float64(x.stats.WAL.Rotations) })
	L["persist.replay_recs"] = float64(r.replayRecs)
	if r.st != nil && r.st.db != nil && r.reopenS == 0 {
		L["persist.replay_recs"] = math.NaN() // only the last repetition reopens
	}
	L["db.checkpoint_s"] = r.checkpointS
	L["db.checkpoint_stall_max_ms"] = maxMs(g0.lat[phCheckpoint])
	keysWritten := float64(r.cnt.updates + r.cnt.ingestPoints + r.cnt.ingestBatches*batchKeys)
	if r.spec.stack == stackDurable {
		bytes := d("setup", "ingest", func(x *snapshot) float64 {
			return float64(x.stats.WAL.AppendBytes + x.stats.Checkpoint.BytesWritten)
		})
		res.E2E["write_amp"] = ratio(bytes, 16*keysWritten)
		if r.reopenS > 0 && s["verify"] != nil {
			since := keysWritten - float64(r.ckptKeys)
			pairs := float64(s["ingest"].stats.Checkpoint.PairsWritten - s["setup"].stats.Checkpoint.PairsWritten)
			res.E2E["recover_keys_s"] = (pairs + since) / r.reopenS
		}
	}

	// sharded.go
	if sh0, sh1 := s["setup"].stats.Shards, s["ingest"].stats.Shards; len(sh1) > 0 && len(sh0) == len(sh1) {
		var sum, most float64
		for i := range sh1 {
			ops := float64(sh1[i].Ops - sh0[i].Ops)
			sum += ops
			most = max(most, ops)
		}
		L["sharded.shard_imbalance"] = ratio(most, sum/float64(len(sh1)))
	} else {
		L["sharded.shard_imbalance"] = 0
	}
	L["sharded.bulkload_ns_per_pair"], L["sharded.allocs_per_short_scan"] = 0, r.shortAllocs
	if r.spec.stack == stackSharded {
		L["sharded.bulkload_ns_per_pair"] = r.setupS * 1e9 / float64(r.spec.n)
	}

	// server and client
	for _, name := range []string{"decode", "queue", "commit_wait", "apply", "respond"} {
		L["server.stage_"+name+"_p50_us"] = 0
	}
	if tr := s["scan"].stats.Trace; tr != nil {
		for _, op := range tr.Ops {
			if op.Op != "put" {
				continue
			}
			for _, st := range op.Stages {
				L["server.stage_"+st.Stage+"_p50_us"] = st.Window.P50 / 1e3
			}
		}
	}
	for _, name := range []string{"group_commit_mean_ops", "group_commit_mean_keys", "bytes_per_op", "scan_chunks_per_scan", "busy", "errors"} {
		L["server."+name] = 0
	}
	if s["setup"].stats.Server != nil && s["ingest"].stats.Server != nil {
		L["server.group_commit_mean_ops"] = ratio(d("setup", "ingest", func(x *snapshot) float64 { return float64(x.stats.Server.CommitOps.Sum) }),
			d("setup", "ingest", func(x *snapshot) float64 { return float64(x.stats.Server.CommitOps.Count) }))
		L["server.group_commit_mean_keys"] = ratio(d("setup", "ingest", func(x *snapshot) float64 { return float64(x.stats.Server.CommitKeys.Sum) }),
			d("setup", "ingest", func(x *snapshot) float64 { return float64(x.stats.Server.CommitKeys.Count) }))
		L["server.bytes_per_op"] = ratio(d("setup", "rw", func(x *snapshot) float64 { return float64(x.stats.Server.BytesRead + x.stats.Server.BytesWritten) }), opsG0RW+getsRW)
		L["server.scan_chunks_per_scan"] = ratio(d("rw", "scan", func(x *snapshot) float64 { return float64(x.stats.Server.ScanChunks) }), scans)
		L["server.busy"] = d("setup", "ingest", func(x *snapshot) float64 { return float64(x.stats.Server.Busy) })
		L["server.errors"] = d("setup", "ingest", func(x *snapshot) float64 { return float64(x.stats.Server.Errors) })
	}
	L["client.queue_wait_p50_us"] = s["rw"].client[1].QueueWait.P50 / 1e3
	L["client.timeouts"] = float64(s["ingest"].client[0].Timeouts + s["ingest"].client[1].Timeouts)
	L["client.dials"] = float64(s["ingest"].client[0].Dials + s["ingest"].client[1].Dials)

	// the process
	L["rt.allocs_per_op"] = ratio(d("setup", "rw", func(x *snapshot) float64 { return float64(x.mem.Mallocs) }), opsG0RW+getsRW)
	L["rt.gc_cpu_share"] = ratio(d("setup", "ingest", func(x *snapshot) float64 { return x.gcCPU })*1e9, wall("setup", "ingest")*float64(gomaxprocs()))
	L["rt.gc_pause_max_ms"] = float64(maxPause(s["setup"].mem.NumGC, &s["ingest"].mem)) / 1e6
	L["rt.heap_peak_mb"] = float64(r.peakHeap.Load()) / (1 << 20)
	L["rt.goroutines_peak"] = float64(r.peakGor.Load())
}

// maxPause is the longest collection pause after collection number since.
// MemStats keeps the last 256 pauses, the pause of collection n at
// PauseNs[(n+255)%256]; older ones are out of reach.
func maxPause(since uint32, m *runtime.MemStats) uint64 {
	first := since + 1
	if m.NumGC > 256 {
		first = max(first, m.NumGC-255)
	}
	var pause uint64
	for n := first; n <= m.NumGC; n++ {
		pause = max(pause, m.PauseNs[(n+255)%256])
	}
	return pause
}

// windowSum is the work a window set counted over the whole phase.
func windowSum(w *windows) float64 {
	if w == nil {
		return 0
	}
	var n int64
	for _, c := range w.counts {
		n += c
	}
	return float64(n)
}
