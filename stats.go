package pmago

import (
	"encoding/json"
	"net/http"
	"strings"

	"pmago/internal/obs"
)

// Stats is the typed metrics snapshot every store variant returns from
// Stats(): the core section (read path, combining queues, rebalancer) is
// always populated; Durable, WAL, Checkpoint and Recovery are filled by
// durable stores (Open); Shards is filled by sharded stores with one
// routing entry per shard. See the README's metric catalog and the field
// docs in internal/obs for exact tick semantics.
type Stats = obs.Snapshot

// StatsSource is anything whose metrics Handler can serve: *PMA, *DB,
// *Sharded, *Graph all implement it.
type StatsSource interface {
	Stats() Stats
}

// SlowOp is one captured slow-op flight-recorder record: a request that
// crossed the server's slow threshold (or was uniformly sampled), with its
// total handling time and full per-stage breakdown in nanoseconds.
type SlowOp = obs.SlowOp

// SlowOpSource is optionally implemented by a StatsSource (the network
// server implements it); Handler then serves the slow-op flight recorder
// at paths ending in "/slow".
type SlowOpSource interface {
	SlowOps() []SlowOp
}

// Handler returns an http.Handler exposing src's live metrics. A request
// path ending in "/metrics" gets Prometheus text exposition (hand-rolled,
// format version 0.0.4, metric prefix "pmago_"); a path ending in "/slow"
// gets the slow-op flight recorder's captured requests as a JSON array,
// newest first (empty unless src implements SlowOpSource — the network
// server does); any other path gets the Stats snapshot as indented JSON,
// expvar-style. Mount it wherever the operations endpoint lives:
//
//	mux.Handle("/debug/pmago/", pmago.Handler(db))
//
// Each request takes one Stats() snapshot — cheap (microseconds), safe
// under full load, and allocation only at scrape frequency.
func Handler(src StatsSource) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasSuffix(r.URL.Path, "/slow") {
			ops := []SlowOp{}
			if sp, ok := src.(SlowOpSource); ok {
				if got := sp.SlowOps(); got != nil {
					ops = got
				}
			}
			w.Header().Set("Content-Type", "application/json; charset=utf-8")
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			_ = enc.Encode(ops)
			return
		}
		st := src.Stats()
		if strings.HasSuffix(r.URL.Path, "/metrics") {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
			_ = obs.WritePrometheus(w, "pmago", st)
			return
		}
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(st)
	})
}
