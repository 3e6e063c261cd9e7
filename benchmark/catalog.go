package main

// The metric catalog: every metric the benchmark prints, with its unit,
// direction, where the number comes from and which end-to-end metric it is
// expected to move. BENCHMARK.json and the README table are checked against
// it by the tests.

// Sources of a per-layer metric.
const (
	srcE2E   = "E" // end to end: the script, timed by the load goroutines
	srcDrive = "D" // layer drive: the layer's functions called directly, single goroutine
	srcDelta = "Δ" // rung difference against the mem stack on the identical script
	srcStats = "S" // Stats()/LocalStats()/runtime deltas at phase boundaries
	srcTrace = "T" // spans of the traced run
)

type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Source string
	Layer  string
	Moves  string // the end-to-end metric it should move, and where
}

// e2eCatalog lists the end-to-end metrics every workload reports.
var e2eCatalog = []metricDef{
	{"setup_s", "s", "lower", srcE2E, "all", "construct + preload + serve/dial, median of the run's set-ups"},
	{"update_ops_s", "1/s", "higher", srcE2E, "all", "G0 Put/Delete rate in rw"},
	{"update_p50_us", "us", "lower", srcE2E, "all", "G0 point update latency, rw+scan"},
	{"get_ops_s", "1/s", "higher", srcE2E, "all", "G1 Get rate in rw, beside the writer"},
	{"scan_pairs_s", "1/s", "higher", srcE2E, "all", "pairs delivered per second in scan"},
	{"scan_short_p50_us", "us", "lower", srcE2E, "all", "128-key scan latency: the fixed per-call cost"},
	{"ingest_keys_s", "1/s", "higher", srcE2E, "all", "G0 Put + G1 PutBatch keys per second in ingest"},
	{"heap_bytes_per_pair", "B", "lower", srcE2E, "all", "store heap per stored pair after rw+scan churn"},
}

// compareCatalog lists the end-to-end metrics BENCHMARK.json cannot bound,
// so it lists them with the per-layer metrics: the Get median and the four
// tails, whose run-to-run spread on the 2-core sandbox is at times wider
// than the 0.25 a bound there may be (see README, "Spread"), and the two
// only the durable workload can report (a metric bounded there must exist
// on every workload). -compare gates them with compareBounds.
var compareCatalog = []metricDef{
	{"get_p50_us", "us", "lower", srcE2E, "all", "G1 Get latency in rw; on served it sits between two scheduling modes"},
	{"update_p99_us", "us", "lower", srcE2E, "all", "G0 point update tail, rw+scan"},
	{"get_p99_us", "us", "lower", srcE2E, "all", "G1 Get tail in rw"},
	{"scan_short_p99_us", "us", "lower", srcE2E, "all", "128-key scan tail under the writer; on sharded it grows with the slowest shard"},
	{"ingest_put_p99_us", "us", "lower", srcE2E, "all", "G0 point Put tail while both writers load the store: the bounded-stall property"},
	{"write_amp", "ratio", "lower", srcStats, "persist", "(WAL bytes + checkpoint bytes) / (16 B x keys written), durable only"},
	{"recover_keys_s", "1/s", "higher", srcE2E, "persist", "(snapshot pairs + keys written since the checkpoint began) / reopen wall, durable only"},
}

// compareBounds are the regression bounds -compare applies to the metrics of
// compareCatalog, by workload: 1.5 times the widest same-code spread the
// metric has shown on that workload (README, "Spread"), rounded up to a
// twentieth, and no less than 0.10. The spreads differ tenfold between
// workloads, so one bound per metric would gate nothing where the metric is
// steady.
var compareBounds = map[string]map[string]float64{
	"get_p50_us":        {"mem": 0.15, "mem-compressed": 0.15, "durable": 0.25, "sharded": 0.20, "served": 0.40},
	"update_p99_us":     {"mem": 0.30, "mem-compressed": 0.30, "durable": 0.50, "sharded": 0.25, "served": 0.20},
	"get_p99_us":        {"mem": 0.15, "mem-compressed": 0.30, "durable": 0.70, "sharded": 0.20, "served": 0.20},
	"scan_short_p99_us": {"mem": 0.50, "mem-compressed": 0.55, "durable": 0.65, "sharded": 0.30, "served": 0.15},
	"ingest_put_p99_us": {"mem": 0.35, "mem-compressed": 1.00, "durable": 0.30, "sharded": 0.25, "served": 0.15},
	"write_amp":         {"durable": 0.10},
	"recover_keys_s":    {"durable": 0.35},
}

// layerCatalog lists the per-layer metrics.
var layerCatalog = []metricDef{
	// internal/core (with sindex, epoch, rewire)
	{"core.put_ns", "ns", "lower", srcDrive, "core", "update_ops_s everywhere; nearly all of it on mem"},
	{"core.delete_ns", "ns", "lower", srcDrive, "core", "update_ops_s everywhere"},
	{"core.get_ns", "ns", "lower", srcDrive, "core", "get_ops_s @mem"},
	{"core.scan_ns_per_pair", "ns", "lower", srcDrive, "core", "scan_pairs_s @mem"},
	{"core.putbatch_ns_per_key", "ns", "lower", srcDrive, "core", "ingest_keys_s"},
	{"core.bulkload_ns_per_pair", "ns", "lower", srcDrive, "core", "setup_s"},
	{"core.rebalances_local_per_mop", "1/Mop", "lower", srcStats, "core", "update_ops_s (rw+scan)"},
	{"core.rebalances_global_per_mop", "1/Mop", "lower", srcStats, "core", "update_p99_us (rw+scan)"},
	{"core.resizes", "count", "lower", srcStats, "core", "ingest_put_p99_us"},
	{"core.rebalance_busy_share", "ratio", "lower", srcStats, "core", "get_ops_s @mem rw: on two cores this CPU is taken from G1"},
	{"core.rebalance_max_ms", "ms", "lower", srcStats, "core", "ingest_put_p99_us, update_p99_us"},
	{"core.resize_max_ms", "ms", "lower", srcStats, "core", "ingest_put_p99_us"},
	{"core.combined_ops_ratio", "ratio", "higher", srcStats, "core", "ingest_keys_s (combined / G0 Puts in ingest)"},
	{"core.deferred_batches_per_mop", "1/Mop", "lower", srcStats, "core", "ingest_keys_s"},
	{"core.get_fallback_ratio", "ratio", "lower", srcStats, "core", "get_p99_us under the writer (latched / all Gets in rw)"},
	{"core.get_probe_fails_per_get", "ratio", "lower", srcStats, "core", "get_p99_us under the writer"},
	{"core.scan_fallback_ratio", "ratio", "lower", srcStats, "core", "scan_pairs_s under the writer"},
	{"core.update_max_ms", "ms", "lower", srcStats, "core", "the worst timed G0 update in rw+scan: the stall a closed loop hides"},
	{"core.ingest_put_max_ms", "ms", "lower", srcStats, "core", "the worst timed G0 Put in ingest"},
	// internal/codec and the compressed layout (cgate.go)
	{"codec.encode_ns_per_pair", "ns", "lower", srcDrive, "codec", "update_ops_s @mem-compressed"},
	{"codec.decode_ns_per_pair", "ns", "lower", srcDrive, "codec", "get_ops_s, scan_pairs_s @mem-compressed"},
	{"codec.bytes_per_pair", "B", "lower", srcDrive, "codec", "heap_bytes_per_pair @mem-compressed"},
	{"core.seg_decodes_per_get", "ratio", "lower", srcStats, "codec", "get_ops_s @mem-compressed (all segment decodes in rw, the writer's too, per Get)"},
	{"core.seg_decodes_per_scan_pair", "ratio", "lower", srcStats, "codec", "scan_pairs_s @mem-compressed (all decodes in scan per pair delivered)"},
	{"core.reencode_bytes_per_update", "B", "lower", srcStats, "codec", "update_ops_s @mem-compressed"},
	{"compressed.get_slowdown", "ratio", "lower", srcDelta, "codec", "get_ops_s @mem-compressed"},
	{"compressed.scan_slowdown", "ratio", "lower", srcDelta, "codec", "scan_pairs_s @mem-compressed"},
	{"compressed.update_slowdown", "ratio", "lower", srcDelta, "codec", "update_ops_s @mem-compressed"},
	{"compressed.heap_ratio", "ratio", "lower", srcDelta, "codec", "heap_bytes_per_pair @mem-compressed"},
	// internal/persist
	{"persist.append_ns_per_rec", "ns", "lower", srcDrive, "persist", "update_ops_s @durable"},
	{"persist.appendbatch_ns_per_key", "ns", "lower", srcDrive, "persist", "ingest_keys_s @durable"},
	{"persist.wal_bytes_per_rec", "B", "lower", srcDrive, "persist", "write_amp @durable"},
	{"persist.snapshot_write_s", "s", "lower", srcDrive, "persist", "db.checkpoint_s, write_amp @durable"},
	{"persist.snapshot_bytes_per_pair", "B", "lower", srcDrive, "persist", "write_amp @durable"},
	{"persist.snapshot_load_s", "s", "lower", srcDrive, "persist", "recover_keys_s, setup_s @durable"},
	{"persist.replay_krecs_s", "k/s", "higher", srcDrive, "persist", "recover_keys_s @durable"},
	{"persist.fsyncs", "count", "lower", srcStats, "persist", "update_p99_us @durable"},
	{"persist.fsync_mean_ms", "ms", "lower", srcStats, "persist", "update_p99_us @durable"},
	{"persist.fsync_max_ms", "ms", "lower", srcStats, "persist", "update_p99_us @durable: latency rises before throughput falls"},
	{"persist.group_commit_mean_recs", "count", "higher", srcStats, "persist", "update_ops_s @durable"},
	{"persist.rotations", "count", "lower", srcStats, "persist", "update_p99_us @durable"},
	{"persist.replay_recs", "count", "lower", srcStats, "persist", "recover_keys_s @durable"},
	// durable.go
	{"db.put_added_ns", "ns", "lower", srcDelta, "db", "update_ops_s @durable"},
	{"db.get_added_ns", "ns", "lower", srcDelta, "db", "get_ops_s @durable"},
	{"db.scan_added_ns_per_pair", "ns", "lower", srcDelta, "db", "scan_pairs_s @durable"},
	{"db.glue_put_ns", "ns", "lower", srcDelta, "db", "update_ops_s @durable: put_added minus the WAL append, i.e. the RLock and hook hand-off"},
	{"db.checkpoint_s", "s", "lower", srcStats, "db", "update_p99_us @durable"},
	{"db.checkpoint_stall_max_ms", "ms", "lower", srcStats, "db", "update_p99_us @durable: G0's worst update while Snapshot runs"},
	// internal/placement and sharded.go
	{"placement.route_ns_per_key", "ns", "lower", srcDrive, "placement", "update_ops_s, get_ops_s @sharded"},
	{"sharded.put_added_ns", "ns", "lower", srcDelta, "sharded", "update_ops_s @sharded"},
	{"sharded.get_added_ns", "ns", "lower", srcDelta, "sharded", "get_ops_s @sharded"},
	{"sharded.scan_slowdown", "ratio", "lower", srcDelta, "sharded", "scan_pairs_s @sharded: the per-pair merge"},
	{"sharded.scan_short_added_us", "us", "lower", srcDelta, "sharded", "scan_short_p50_us @sharded: the per-call fan-out"},
	{"sharded.ingest_speedup", "ratio", "higher", srcDelta, "sharded", "ingest_keys_s @sharded"},
	{"sharded.shard_imbalance", "ratio", "lower", srcStats, "sharded", "scan_short_p99_us @sharded (max / mean routed ops)"},
	{"sharded.allocs_per_short_scan", "count", "lower", srcStats, "sharded", "scan_short_p50_us @sharded"},
	{"sharded.bulkload_ns_per_pair", "ns", "lower", srcStats, "sharded", "setup_s @sharded"},
	// internal/wire, server, client
	{"wire.encode_req_ns", "ns", "lower", srcDrive, "wire", "get_p50_us, update_ops_s @served"},
	{"wire.decode_req_ns", "ns", "lower", srcDrive, "wire", "get_p50_us, update_ops_s @served"},
	{"wire.encode_resp_ns", "ns", "lower", srcDrive, "wire", "get_p50_us @served"},
	{"wire.decode_resp_ns", "ns", "lower", srcDrive, "wire", "get_p50_us @served"},
	{"wire.scanchunk_ns_per_pair", "ns", "lower", srcDrive, "wire", "scan_pairs_s @served"},
	{"served.get_added_us", "us", "lower", srcDelta, "server", "get_ops_s @served"},
	{"served.put_added_us", "us", "lower", srcDelta, "server", "update_ops_s @served"},
	{"served.scan_added_ns_per_pair", "ns", "lower", srcDelta, "server", "scan_pairs_s @served"},
	{"server.store_share_get", "ratio", "higher", srcTrace, "server", "get_p50_us @served: store time / client round trip"},
	{"server.store_share_put", "ratio", "higher", srcTrace, "server", "update_ops_s @served"},
	{"server.store_share_scan", "ratio", "higher", srcTrace, "server", "scan_pairs_s @served"},
	{"server.stage_decode_p50_us", "us", "lower", srcStats, "server", "update_ops_s @served (put stages)"},
	{"server.stage_queue_p50_us", "us", "lower", srcStats, "server", "update_ops_s @served"},
	{"server.stage_commit_wait_p50_us", "us", "lower", srcStats, "server", "update_ops_s @served"},
	{"server.stage_apply_p50_us", "us", "lower", srcStats, "server", "update_ops_s @served"},
	{"server.stage_respond_p50_us", "us", "lower", srcStats, "server", "update_ops_s @served"},
	{"server.group_commit_mean_ops", "count", "higher", srcStats, "server", "ingest_keys_s @served"},
	{"server.group_commit_mean_keys", "count", "higher", srcStats, "server", "ingest_keys_s @served"},
	{"server.bytes_per_op", "B", "lower", srcStats, "server", "get_ops_s, update_ops_s @served"},
	{"server.scan_chunks_per_scan", "count", "lower", srcStats, "server", "scan_pairs_s @served"},
	{"server.busy", "count", "lower", srcStats, "server", "failed ops @served"},
	{"server.errors", "count", "lower", srcStats, "server", "failed ops @served"},
	{"client.queue_wait_p50_us", "us", "lower", srcStats, "client", "get_p50_us @served"},
	{"client.timeouts", "count", "lower", srcStats, "client", "failed ops @served"},
	{"client.dials", "count", "lower", srcStats, "client", "setup_s @served"},
	// the process
	{"rt.allocs_per_op", "count", "lower", srcStats, "runtime", "get_ops_s, update_ops_s (mallocs per op in rw)"},
	{"rt.gc_cpu_share", "ratio", "lower", srcStats, "runtime", "every throughput metric on two cores"},
	{"rt.gc_pause_max_ms", "ms", "lower", srcStats, "runtime", "every p99"},
	{"rt.heap_peak_mb", "MB", "lower", srcStats, "runtime", "heap_bytes_per_pair"},
	{"rt.goroutines_peak", "count", "lower", srcStats, "runtime", "scan_short_p50_us @sharded, @served"},
	{"trace.overhead_ratio", "ratio", "lower", srcTrace, "benchmark", "untraced / traced update_ops_s and get_ops_s (geometric mean)"},
	{"trace.spans", "count", "higher", srcTrace, "benchmark", "spans recorded by the traced run"},
}

// perLayerCatalog is what a traced run reports: the compareCatalog end-to-end
// metrics and the per-layer metrics.
func perLayerCatalog() []metricDef {
	return append(append([]metricDef{}, compareCatalog...), layerCatalog...)
}

// workloadDef names one stack the script is pushed through.
type workloadDef struct {
	Name string
	Why  string
}

var workloadCatalog = []workloadDef{
	{"mem", "pmago.New defaults, 2^22 pairs: internal/core does all the work; the must-not-move control for durability, shard and wire changes"},
	{"mem-compressed", "WithCompressedChunks, 2^22 pairs: cgate.go + internal/codec on every read and write; where compressed Get/Scan work can show"},
	{"durable", "Open with interval fsync and explicit checkpoint, 2^22 pairs: durable.go + internal/persist on every op; only workload with write_amp and recovery"},
	{"sharded", "NewSharded with 4 straw2 shards, 2^22 pairs: placement routing on point ops, partition on batches, merge on scans"},
	{"served", "server + two clients on loopback over a 2^16-pair store that fits L2: wire, server and client are most of every round trip"},
}
