// Command pmaserve fronts any pmago store variant with the framed TCP
// protocol: an in-memory PMA, a durable DB, or a horizontally sharded
// store, selected by flags — the serving layer consumes the pmago.Store
// interface, so one binary covers all three. A side HTTP port exposes the
// live metrics (JSON and Prometheus text) via pmago.Handler, including the
// serving-layer section (request latencies, windowed per-stage tail
// percentiles, group-commit batch sizes), plus net/http/pprof profiling
// under /debug/pprof/.
//
// -slow sets the slow-op flight recorder's capture threshold: any request
// whose total handling time reaches it is recorded with its full stage
// breakdown (decode, queue, commit wait, apply, respond), readable as JSON
// at /debug/pmago/slow on the -http port; a 1-in-4096 uniform sample rides
// along for baseline comparison, and a periodic summary line (ops/s and
// windowed p99 per op) is logged. -slow 0 keeps the default 20ms
// threshold; a negative value disables threshold capture.
//
// Examples:
//
//	pmaserve -addr :7070 -http :7071                       # in-memory
//	pmaserve -addr :7070 -dir /var/lib/pmago               # durable, fsync always
//	pmaserve -addr :7070 -dir /var/lib/pmago -shards 4     # sharded durable
//	pmaserve -addr :7070 -dir /var/lib/pmago -fsync none   # fast, no power-loss guarantee
//	pmaserve -addr :7070 -http :7071 -slow 5ms             # record requests over 5ms
//
// SIGINT/SIGTERM trigger a graceful shutdown: in-flight requests complete
// and flush (bounded by -drain), then the store closes cleanly.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"pmago"
	"pmago/server"
)

func main() {
	var (
		addr     = flag.String("addr", ":7070", "TCP listen address for the KV protocol")
		httpAddr = flag.String("http", "", "side HTTP listen address for /debug/pmago metrics (off when empty)")
		dir      = flag.String("dir", "", "store directory; empty serves a non-durable in-memory store")
		fsync    = flag.String("fsync", "always", "WAL fsync policy of a durable store (needs -dir): always|interval|none")
		shards   = flag.Int("shards", 0, "shard count; 0 serves an unsharded store")
		drain    = flag.Duration("drain", 10*time.Second, "graceful-shutdown drain budget")
		slow     = flag.Duration("slow", 0, "slow-op flight-recorder threshold (0 = default 20ms, negative disables)")
	)
	flag.Parse()
	// An in-memory store has no WAL: an explicit -fsync there would be
	// dropped, so it is a usage error.
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "fsync" && *dir == "" {
			fmt.Fprintln(os.Stderr, "pmaserve: -fsync applies only to a durable store (-dir)")
			flag.Usage()
			os.Exit(2)
		}
	})
	log := slog.New(slog.NewTextHandler(os.Stderr, nil))

	store, closeStore, err := openStore(*dir, *fsync, *shards)
	if err != nil {
		log.Error("open store", "err", err)
		os.Exit(1)
	}

	srv := server.New(store, server.Options{
		Logger:          log,
		SlowOpThreshold: *slow,
		SummaryEvery:    10 * time.Second,
	})
	if *httpAddr != "" {
		mux := http.NewServeMux()
		mux.Handle("/debug/pmago/", pmago.Handler(srv))
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		hs := &http.Server{Addr: *httpAddr, Handler: mux}
		go func() {
			if err := hs.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				log.Error("http endpoint", "err", err)
			}
		}()
		defer hs.Close()
		log.Info("metrics endpoint", "addr", *httpAddr, "path", "/debug/pmago/")
	}

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, syscall.SIGINT, syscall.SIGTERM)
	done := make(chan error, 1)
	go func() { done <- srv.ListenAndServe(*addr) }()
	log.Info("serving", "addr", *addr, "dir", *dir, "fsync", *fsync, "shards", *shards)

	select {
	case sig := <-stop:
		log.Info("shutting down", "signal", sig.String())
		ctx, cancel := context.WithTimeout(context.Background(), *drain)
		err := srv.Shutdown(ctx)
		cancel()
		if err != nil {
			log.Warn("drain incomplete", "err", err)
		}
		<-done
	case err := <-done:
		if err != nil {
			log.Error("serve", "err", err)
		}
	}
	if err := closeStore(); err != nil {
		log.Error("close store", "err", err)
		os.Exit(1)
	}
}

// openStore builds the backend the flags describe, returning it behind the
// Store interface plus its close function.
func openStore(dir, fsync string, shards int) (pmago.Store, func() error, error) {
	var policy pmago.FsyncPolicy
	switch fsync {
	case "always":
		policy = pmago.FsyncAlways
	case "interval":
		policy = pmago.FsyncInterval
	case "none":
		policy = pmago.FsyncNone
	default:
		return nil, nil, fmt.Errorf("unknown -fsync policy %q", fsync)
	}
	switch {
	case dir == "" && shards <= 0:
		p, err := pmago.New()
		if err != nil {
			return nil, nil, err
		}
		return p, func() error { p.Close(); return nil }, nil
	case dir == "":
		s, err := pmago.NewSharded(pmago.WithShards(shards))
		if err != nil {
			return nil, nil, err
		}
		return s, s.Close, nil
	case shards <= 0:
		db, err := pmago.Open(dir, pmago.WithFsync(policy))
		if err != nil {
			return nil, nil, err
		}
		return db, db.Close, nil
	default:
		s, err := pmago.OpenSharded(dir, pmago.WithShards(shards), pmago.WithFsync(policy))
		if err != nil {
			return nil, nil, err
		}
		return s, s.Close, nil
	}
}
