// Ride sharing — the paper's first motivating application (Section 1), also
// exercising the space-filling-curve ordering the introduction recommends
// for spatial locality. Driver positions are keyed by their Hilbert-curve
// distance, so geographically close drivers are close in the sorted array
// and a pickup search is a handful of short range scans; position updates
// (delete old cell, insert new cell) stream in concurrently.
package main

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"pmago"
)

const (
	order    = 12 // 4096 x 4096 grid
	grid     = 1 << order
	drivers  = 20_000
	moves    = 200_000
	searches = 2_000
)

// cellKey packs a Hilbert distance with a driver id (several drivers can
// share a cell).
func cellKey(d uint64, driver uint32) int64 {
	return int64(d<<20) | int64(driver&0xFFFFF)
}

func main() {
	p, err := pmago.New()
	if err != nil {
		panic(err)
	}
	defer p.Close()

	// Place the fleet.
	rng := rand.New(rand.NewSource(1))
	posX := make([]uint32, drivers)
	posY := make([]uint32, drivers)
	var mu sync.Mutex // guards posX/posY bookkeeping only
	for i := range posX {
		posX[i], posY[i] = rng.Uint32()%grid, rng.Uint32()%grid
		d := hilbertEncode(order, posX[i], posY[i])
		p.Put(cellKey(d, uint32(i)), int64(i))
	}
	p.Flush()
	fmt.Printf("placed %d drivers on a %dx%d grid (%d elements)\n", drivers, grid, grid, p.Len())

	// Dispatcher: find candidate drivers near random riders while the
	// fleet moves. Nearby in Hilbert order ~ nearby in space, so a
	// window scan around the rider's cell finds candidates cheaply.
	var found atomic.Int64
	var dispatchWG sync.WaitGroup
	stop := make(chan struct{})
	dispatchWG.Add(1)
	go func() {
		defer dispatchWG.Done()
		rng := rand.New(rand.NewSource(7))
		for s := 0; s < searches; s++ {
			select {
			case <-stop:
				return
			default:
			}
			rx, ry := rng.Uint32()%grid, rng.Uint32()%grid
			d := hilbertEncode(order, rx, ry)
			const window = 1 << 14 // Hilbert-distance radius
			lo, hi := uint64(0), d+window
			if d > window {
				lo = d - window
			}
			n := int64(0)
			p.Scan(cellKey(lo, 0), cellKey(hi, 0xFFFFF), func(_, _ int64) bool {
				n++
				return n < 16 // first 16 candidates suffice
			})
			found.Add(n)
		}
	}()

	// The fleet moves: each move is a delete at the old cell plus an
	// insert at the new one.
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < moves/4; i++ {
				id := uint32(rng.Intn(drivers))
				mu.Lock()
				ox, oy := posX[id], posY[id]
				nx := (ox + uint32(rng.Intn(17))) % grid
				ny := (oy + uint32(rng.Intn(17))) % grid
				posX[id], posY[id] = nx, ny
				mu.Unlock()
				p.Delete(cellKey(hilbertEncode(order, ox, oy), id))
				p.Put(cellKey(hilbertEncode(order, nx, ny), id), int64(id))
			}
		}(int64(w))
	}
	wg.Wait()
	p.Flush()
	close(stop)
	dispatchWG.Wait()
	elapsed := time.Since(start)

	fmt.Printf("processed %d position updates in %v (%.0f moves/sec)\n",
		moves, elapsed.Round(time.Millisecond), float64(moves)/elapsed.Seconds())
	fmt.Printf("dispatcher examined %d candidate drivers across %d searches\n", found.Load(), searches)
	fmt.Printf("fleet index holds %d entries (expected ~%d; transient duplicates possible mid-move)\n",
		p.Len(), drivers)
	if err := p.Validate(); err != nil {
		panic(err)
	}
	fmt.Println("structure validated")
}
