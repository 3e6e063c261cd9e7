package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"time"

	"pmago"
	"pmago/client"
	"pmago/internal/persist"
	"pmago/server"
)

// kv is what a load goroutine calls. client.Client has exactly this shape;
// embedded stores are adapted by storeKV.
type kv interface {
	Put(k, v int64) error
	Get(k int64) (int64, bool, error)
	Delete(k int64) (bool, error)
	PutBatch(keys, vals []int64) error
	Scan(lo, hi int64, fn func(k, v int64) bool) error
}

// storeKV adapts an embedded store, whose calls cannot fail with an error
// (they panic; the load goroutine recovers that into a failed op).
type storeKV struct{ s pmago.Store }

func (a storeKV) Put(k, v int64) error             { a.s.Put(k, v); return nil }
func (a storeKV) Get(k int64) (int64, bool, error) { v, ok := a.s.Get(k); return v, ok, nil }
func (a storeKV) Delete(k int64) (bool, error)     { return a.s.Delete(k), nil }
func (a storeKV) PutBatch(keys, vals []int64) error {
	a.s.PutBatch(keys, vals)
	return nil
}
func (a storeKV) Scan(lo, hi int64, fn func(k, v int64) bool) error {
	a.s.Scan(lo, hi, fn)
	return nil
}

// Stack names. A workload is a stack plus a preload size.
const (
	stackMem        = "mem"
	stackCompressed = "mem-compressed"
	stackDurable    = "durable"
	stackSharded    = "sharded"
	stackServed     = "served"
)

const shards = 4

// durableOptions is the flush policy of the durable stack, the same on both
// sides of every comparison: interval fsync at the default 50 ms, no
// automatic compaction (the script checkpoints explicitly).
func durableOptions() []pmago.Option {
	return []pmago.Option{pmago.WithFsync(pmago.FsyncInterval), pmago.WithCompactRatio(0)}
}

// stack is one built system under test.
type stack struct {
	kv    [2]kv       // what G0 and G1 call
	store pmago.Store // the backend: Flush, Validate, Len
	stats func() pmago.Stats
	db    *pmago.DB // durable only
	dir   string    // durable only

	srv     *server.Server
	served  chan error // Serve's return
	clients [2]*client.Client
	close   func() error // closes the backend store
}

// preloadSize is the number of preloaded pairs of a workload.
func preloadSize(workload, scale string) int64 {
	full, small := int64(1<<22), int64(1<<16)
	if scale == "tiny" {
		full, small = 1<<14, 1<<12
	}
	if workload == stackServed {
		return small
	}
	return full
}

// build constructs the named stack over the preloaded pairs using the
// stack's bulk path, and for served starts the server and dials. wrap, when
// not nil, decorates the backend the server fronts (the traced run's span
// recorder). tmp is the directory durable state goes under.
func build(name string, keys, vals []int64, tmp string, wrap func(pmago.Store) pmago.Store) (*stack, error) {
	s := &stack{}
	switch name {
	case stackMem, stackServed:
		p, err := pmago.BulkLoad(keys, vals)
		if err != nil {
			return nil, err
		}
		s.store, s.close = p, func() error { p.Close(); return nil }
	case stackCompressed:
		p, err := pmago.BulkLoad(keys, vals, pmago.WithCompressedChunks())
		if err != nil {
			return nil, err
		}
		s.store, s.close = p, func() error { p.Close(); return nil }
	case stackSharded:
		p, err := pmago.BulkLoadSharded(keys, vals, pmago.WithShards(shards))
		if err != nil {
			return nil, err
		}
		s.store, s.close = p, p.Close
	case stackDurable:
		// DB has no bulk constructor; its bulk path is recovery from a
		// snapshot, so set-up writes the preloaded pairs as the snapshot a
		// checkpoint would have left and opens the directory.
		dir, err := os.MkdirTemp(tmp, "durable-")
		if err != nil {
			return nil, err
		}
		s.dir = dir
		_, _, err = persist.WriteSnapshot(dir, 1, func(yield func(k, v int64) bool) error {
			for i, k := range keys {
				if !yield(k, vals[i]) {
					break
				}
			}
			return nil
		}, persist.DefaultOptions())
		if err != nil {
			os.RemoveAll(dir)
			return nil, fmt.Errorf("write preload snapshot: %w", err)
		}
		if err := s.open(); err != nil {
			os.RemoveAll(dir)
			return nil, err
		}
	default:
		return nil, fmt.Errorf("unknown stack %q", name)
	}
	s.stats = s.store.Stats
	s.kv = [2]kv{storeKV{s.store}, storeKV{s.store}}
	if name == stackServed {
		if err := s.serve(wrap); err != nil {
			s.teardown()
			return nil, err
		}
	}
	return s, nil
}

// open opens the durable directory (set-up, and the timed reopen).
func (s *stack) open() error {
	db, err := pmago.Open(s.dir, durableOptions()...)
	if err != nil {
		return fmt.Errorf("open %s: %w", s.dir, err)
	}
	s.db, s.store, s.close, s.stats = db, db, db.Close, db.Stats
	s.kv = [2]kv{storeKV{db}, storeKV{db}}
	return nil
}

// serve fronts the backend with a server on loopback and dials one
// single-connection client per load goroutine.
func (s *stack) serve(wrap func(pmago.Store) pmago.Store) error {
	backend := s.store
	if wrap != nil {
		backend = wrap(backend)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	s.srv = server.New(backend, server.Options{})
	s.served = make(chan error, 1)
	go func() { s.served <- s.srv.Serve(ln) }()
	s.stats = s.srv.Stats
	for i := range s.clients {
		c, err := client.Dial(ln.Addr().String(), client.Options{Conns: 1})
		if err != nil {
			return fmt.Errorf("dial: %w", err)
		}
		s.clients[i] = c
		s.kv[i] = c
	}
	return nil
}

// teardown stops everything the stack started and waits for it, then
// removes durable state. It is safe on a partly built stack.
func (s *stack) teardown() error {
	var errs []error
	for _, c := range s.clients {
		if c != nil {
			errs = append(errs, c.Close())
		}
	}
	if s.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		errs = append(errs, s.srv.Shutdown(ctx))
		cancel()
		errs = append(errs, <-s.served)
		s.srv = nil
	}
	if s.close != nil {
		errs = append(errs, s.close())
		s.close = nil
	}
	if s.dir != "" {
		errs = append(errs, os.RemoveAll(s.dir))
	}
	// A closed store must not stay reachable through its stack: the
	// benchmark's own heap is measured after this.
	s.store, s.db, s.stats, s.kv, s.clients = nil, nil, nil, [2]kv{}, [2]*client.Client{}
	return errors.Join(errs...)
}
