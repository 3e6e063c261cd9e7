package obs

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// Point is one flattened metric from a Snapshot: either a scalar counter
// (Dist nil) or a distribution. The flat form backs the Prometheus text
// writer below, so the metric catalog lives in exactly one place (Points).
type Point struct {
	Name   string            // metric name without the exporter prefix
	Labels map[string]string // nil for most points; shard index for routing
	Value  uint64            // scalar value (counters/gauges)
	Dist   *Distribution     // non-nil for histogram points (Value unused)
	Win    *WindowSnapshot   // non-nil for sliding-window points (summary exposition)
	Scale  float64           // exposition multiplier: 1e-9 for ns→seconds, else 0 (=1)
	Gauge  bool              // TYPE gauge instead of counter
}

// Points flattens the snapshot into the full metric catalog. Zero-valued
// scalar points are included — a scrape of a fresh store should show the
// whole catalog, not a shape that changes as counters first tick.
func (s Snapshot) Points() []Point {
	c := func(name string, v uint64) Point { return Point{Name: name, Value: v} }
	d := func(name string, dist Distribution, scale float64) Point {
		dd := dist
		return Point{Name: name, Dist: &dd, Scale: scale}
	}
	win := func(name string, ws WindowSnapshot, scale float64, labels map[string]string) Point {
		ww := ws
		return Point{Name: name, Win: &ww, Scale: scale, Labels: labels}
	}
	pts := []Point{
		c("reads_get_optimistic_total", s.Reads.GetOptimistic),
		c("reads_get_latched_total", s.Reads.GetLatched),
		c("reads_get_probe_fails_total", s.Reads.GetProbeFails),
		c("reads_scan_chunks_optimistic_total", s.Reads.ScanChunksOptimistic),
		c("reads_scan_chunks_latched_total", s.Reads.ScanChunksLatched),
		c("reads_scan_probe_fails_total", s.Reads.ScanProbeFails),
		c("updates_combined_ops_total", s.Updates.CombinedOps),
		c("updates_deferred_batches_total", s.Updates.DeferredBatches),
		d("updates_drain_size_ops", s.Updates.DrainSize, 0),
		c("rebalance_local_total", s.Rebalance.Local),
		c("rebalance_global_total", s.Rebalance.Global),
		c("rebalance_resizes_total", s.Rebalance.Resizes),
		d("rebalance_duration_seconds", s.Rebalance.RebalanceNanos, 1e-9),
		d("resize_duration_seconds", s.Rebalance.ResizeNanos, 1e-9),
	}
	if s.Compression.Enabled {
		pts = append(pts,
			c("compressed_seg_decodes_total", s.Compression.SegDecodes),
			c("compressed_reencode_bytes_total", s.Compression.ReencodeBytes),
			Point{Name: "compressed_encoded_bytes", Value: s.Compression.EncodedBytes, Gauge: true},
			Point{Name: "compressed_pairs", Value: s.Compression.Pairs, Gauge: true},
		)
	}
	if s.Durable {
		pts = append(pts,
			c("wal_appends_total", s.WAL.Appends),
			c("wal_append_bytes_total", s.WAL.AppendBytes),
			c("wal_rotations_total", s.WAL.Rotations),
			c("wal_fsyncs_total", s.WAL.Fsyncs),
			d("wal_fsync_duration_seconds", s.WAL.FsyncNanos, 1e-9),
			d("wal_group_commit_records", s.WAL.GroupCommitRecords, 0),
			win("wal_append_window_seconds", s.WAL.AppendWindow, 1e-9, nil),
			win("wal_fsync_window_seconds", s.WAL.FsyncWindow, 1e-9, nil),
			c("checkpoint_snapshots_total", s.Checkpoint.Snapshots),
			c("checkpoint_pairs_written_total", s.Checkpoint.PairsWritten),
			c("checkpoint_bytes_written_total", s.Checkpoint.BytesWritten),
			c("recovery_runs_total", s.Recovery.Recoveries),
			c("recovery_snapshot_pairs_total", s.Recovery.SnapshotPairs),
			c("recovery_snapshot_bytes_total", s.Recovery.SnapshotBytes),
			Point{Name: "recovery_snapshot_load_seconds", Value: s.Recovery.SnapshotLoadNanos, Scale: 1e-9, Gauge: true},
			c("recovery_wal_records_total", s.Recovery.WALRecords),
			Point{Name: "recovery_wal_replay_seconds", Value: s.Recovery.WALReplayNanos, Scale: 1e-9, Gauge: true},
		)
	}
	for i, sh := range s.Shards {
		lbl := map[string]string{"shard": fmt.Sprint(i)}
		pts = append(pts,
			Point{Name: "shard_ops_total", Labels: lbl, Value: sh.Ops},
			Point{Name: "shard_batch_keys_total", Labels: lbl, Value: sh.BatchKeys},
		)
	}
	// Health gauge: 1 with the first background durability failure latched,
	// 0 while healthy — the alerting-friendly mirror of the Err string.
	var unhealthy uint64
	if s.Err != "" {
		unhealthy = 1
	}
	pts = append(pts, Point{Name: "unhealthy", Value: unhealthy, Gauge: true})
	if sv := s.Server; sv != nil {
		pts = append(pts,
			c("server_conns_opened_total", sv.ConnsOpened),
			c("server_conns_closed_total", sv.ConnsClosed),
			c("server_bytes_read_total", sv.BytesRead),
			c("server_bytes_written_total", sv.BytesWritten),
			c("server_busy_total", sv.Busy),
			c("server_errors_total", sv.Errors),
			c("server_scan_chunks_total", sv.ScanChunks),
			c("server_scan_cancels_total", sv.ScanCancels),
			d("server_commit_ops", sv.CommitOps, 0),
			d("server_commit_keys", sv.CommitKeys, 0),
		)
		for _, op := range sv.Ops {
			pts = append(pts, Point{Name: "server_requests_total",
				Labels: map[string]string{"op": op.Op}, Value: op.Requests})
		}
	}
	if tr := s.Trace; tr != nil {
		for _, op := range tr.Ops {
			pts = append(pts, win("trace_request_window_seconds", op.Total, 1e-9,
				map[string]string{"op": op.Op}))
			for _, st := range op.Stages {
				pts = append(pts, win("trace_stage_window_seconds", st.Window, 1e-9,
					map[string]string{"op": op.Op, "stage": st.Stage}))
			}
		}
		pts = append(pts, win("trace_flush_window_seconds", tr.Flush, 1e-9, nil))
	}
	return pts
}

// WritePrometheus writes the snapshot in Prometheus text exposition format
// (version 0.0.4), hand-rolled to keep the module dependency-free. Scalars
// become counters (or gauges), distributions become native histogram
// series: cumulative `_bucket{le="..."}` plus `_sum` and `_count`, with
// nanosecond distributions scaled to seconds via Point.Scale. Sliding
// windows become summary series — precomputed `{quantile="0.99"}` values
// plus `_sum`/`_count` — with the caveat that, unlike a textbook summary,
// sum and count cover the trailing window, not the process lifetime.
func WritePrometheus(w io.Writer, prefix string, s Snapshot) error {
	if prefix != "" && !strings.HasSuffix(prefix, "_") {
		prefix += "_"
	}
	// The text format requires all series of one metric family to be
	// contiguous; shard points with the same name arrive adjacent already,
	// but emit TYPE headers once per name regardless.
	typed := make(map[string]bool)
	ew := &errWriter{w: w}
	for _, p := range s.Points() {
		name := prefix + p.Name
		kind := "counter"
		if p.Gauge {
			kind = "gauge"
		}
		if p.Dist != nil {
			kind = "histogram"
		}
		if p.Win != nil {
			kind = "summary"
		}
		if !typed[name] {
			typed[name] = true
			fmt.Fprintf(ew, "# TYPE %s %s\n", name, kind)
		}
		scale := p.Scale
		if scale == 0 {
			scale = 1
		}
		switch {
		case p.Win != nil:
			for _, qv := range [...]struct {
				q string
				v float64
			}{{"0.5", p.Win.P50}, {"0.95", p.Win.P95}, {"0.99", p.Win.P99}, {"0.999", p.Win.P999}} {
				fmt.Fprintf(ew, "%s%s %g\n", name, labelString(p.Labels, "quantile", qv.q), qv.v*scale)
			}
			fmt.Fprintf(ew, "%s_sum%s %s\n", name, labelString(p.Labels, "", ""), formatScaled(p.Win.Sum, scale))
			fmt.Fprintf(ew, "%s_count%s %d\n", name, labelString(p.Labels, "", ""), p.Win.Count)
		case p.Dist != nil:
			var cum uint64
			for _, b := range p.Dist.Buckets {
				cum += b.N
				fmt.Fprintf(ew, "%s_bucket%s %d\n", name, labelString(p.Labels, "le", formatScaled(b.Le, scale)), cum)
			}
			fmt.Fprintf(ew, "%s_bucket%s %d\n", name, labelString(p.Labels, "le", "+Inf"), p.Dist.Count)
			fmt.Fprintf(ew, "%s_sum%s %s\n", name, labelString(p.Labels, "", ""), formatScaled(p.Dist.Sum, scale))
			fmt.Fprintf(ew, "%s_count%s %d\n", name, labelString(p.Labels, "", ""), p.Dist.Count)
		default:
			fmt.Fprintf(ew, "%s%s %s\n", name, labelString(p.Labels, "", ""), formatScaled(p.Value, scale))
		}
	}
	return ew.err
}

// labelString renders a label set ({shard="3",le="0.001"} or empty). The
// extra pair — le for histogram buckets, quantile for summaries — is
// appended last when non-empty, per Prometheus convention.
func labelString(labels map[string]string, extraKey, extraVal string) string {
	if len(labels) == 0 && extraVal == "" {
		return ""
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", k, labels[k])
	}
	if extraVal != "" {
		if len(keys) > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", extraKey, extraVal)
	}
	b.WriteByte('}')
	return b.String()
}

// formatScaled renders v (optionally scaled, e.g. ns→s) without trailing
// float noise for the scale==1 integer case.
func formatScaled(v uint64, scale float64) string {
	if scale == 1 {
		return fmt.Sprintf("%d", v)
	}
	return fmt.Sprintf("%g", float64(v)*scale)
}

// errWriter latches the first write error so the exposition loop doesn't
// need two dozen error checks.
type errWriter struct {
	w   io.Writer
	err error
}

func (e *errWriter) Write(p []byte) (int, error) {
	if e.err != nil {
		return len(p), nil
	}
	n, err := e.w.Write(p)
	e.err = err
	return n, err
}
