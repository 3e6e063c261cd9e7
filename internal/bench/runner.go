package bench

import (
	"sync"
	"sync/atomic"
	"time"

	"pmago/internal/core"
	"pmago/internal/workload"
)

// Workload describes one benchmark run: how to preload the store, how many
// update operations to apply with how many threads, and how many threads
// continuously scan meanwhile — the experiment structure of Figure 3.
type Workload struct {
	Dist workload.Distribution
	// LoadN preloads the store with uniform keys before timing (the 1G
	// base of plots d-f, scaled).
	LoadN int
	// Ops is the total number of timed update operations across all
	// update threads.
	Ops int
	// Mixed alternates insert and delete phases over the same keys
	// (plots d-f); otherwise all ops are insertions (plots a-c).
	Mixed bool
	// MixedChunk is the per-thread phase length in Mixed mode (the
	// paper's 16M-insert/16M-delete rounds, scaled). Default 16384.
	MixedChunk int
	// UpdateThreads and ScanThreads partition the workers (16 = the
	// paper's thread count).
	UpdateThreads int
	ScanThreads   int
	Domain        int64
	Seed          int64
}

// Result reports one run's throughput.
type Result struct {
	Store string
	Dist  workload.Distribution

	UpdatesPerSec float64 // update operations per second
	ScansPerSec   float64 // elements visited by scan threads per second
	Wall          time.Duration
	FinalLen      int
}

// Run executes the workload against a fresh store from the factory.
func Run(f Factory, w Workload) Result {
	if w.UpdateThreads <= 0 {
		w.UpdateThreads = 1
	}
	if w.Domain <= 0 {
		w.Domain = workload.DefaultDomain
	}
	if w.MixedChunk <= 0 {
		w.MixedChunk = 16384
	}
	s := f.New()
	defer func() {
		if c, ok := s.(Closer); ok {
			c.Close()
		}
	}()

	if w.LoadN > 0 {
		load(s, w)
	}

	stop := make(chan struct{})
	var scanned atomic.Int64
	var scanWG sync.WaitGroup
	for i := 0; i < w.ScanThreads; i++ {
		scanWG.Add(1)
		go func() {
			defer scanWG.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				n := int64(0)
				s.ScanAll(func(_, _ int64) bool {
					n++
					// Abort long scans promptly at shutdown.
					if n&0xFFFF == 0 {
						select {
						case <-stop:
							return false
						default:
						}
					}
					return true
				})
				scanned.Add(n)
			}
		}()
	}

	perThread := w.Ops / w.UpdateThreads
	start := time.Now()
	core.Fan(w.UpdateThreads, w.UpdateThreads, func(t int) error {
		seed := w.Seed + int64(t)*7919
		if !w.Mixed {
			gen := workload.NewGenerator(w.Dist, w.Domain, seed)
			for i := 0; i < perThread; i++ {
				k := gen.Next()
				s.Put(k, k)
			}
			return nil
		}
		// Mixed: rounds of MixedChunk inserts followed by the
		// same keys deleted (replayed from the same seed), so
		// the store size stays near the preloaded base.
		done := 0
		round := int64(0)
		for done < perThread {
			chunk := w.MixedChunk
			if rem := (perThread - done) / 2; rem < chunk {
				chunk = rem
			}
			if chunk == 0 {
				break
			}
			rs := seed + round*104729
			gen := workload.NewGenerator(w.Dist, w.Domain, rs)
			for i := 0; i < chunk; i++ {
				k := gen.Next()
				s.Put(k, k)
			}
			gen = workload.NewGenerator(w.Dist, w.Domain, rs)
			for i := 0; i < chunk; i++ {
				s.Delete(gen.Next())
			}
			done += 2 * chunk
			round++
		}
		return nil
	})
	if fl, ok := s.(Flusher); ok {
		fl.Flush()
	}
	wall := time.Since(start)
	close(stop)
	scanWG.Wait()

	secs := wall.Seconds()
	return Result{
		Store:         f.Name,
		Dist:          w.Dist,
		UpdatesPerSec: float64(w.Ops) / secs,
		ScansPerSec:   float64(scanned.Load()) / secs,
		Wall:          wall,
		FinalLen:      s.Len(),
	}
}

// load preloads the store with uniform keys in parallel (untimed).
func load(s Store, w Workload) {
	threads := w.UpdateThreads + w.ScanThreads
	if threads < 1 {
		threads = 1
	}
	per := w.LoadN / threads
	core.Fan(threads, threads, func(t int) error {
		gen := workload.NewGenerator(workload.Uniform(), w.Domain, w.Seed^int64(t*31+1))
		for i := 0; i < per; i++ {
			k := gen.Next()
			s.Put(k, k)
		}
		return nil
	})
	if fl, ok := s.(Flusher); ok {
		fl.Flush()
	}
}
