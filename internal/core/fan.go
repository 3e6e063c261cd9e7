package core

import (
	"errors"
	"sync"
	"sync/atomic"
)

// Fan runs fn(0) … fn(n-1) on the caller and at most min(n, limit)-1
// goroutines, which take the indices in turn, and returns once every index
// has finished, with their errors joined. A panic is recovered where it
// happens, so it cannot kill the process from a spawned goroutine, and
// once every index has finished the lowest-indexed one is raised again on
// the caller.
func Fan(n, limit int, fn func(i int) error) error {
	errs, panics := make([]error, n), make([]any, n)
	var next atomic.Int64
	work := func() {
		for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
			func() {
				defer func() { panics[i] = recover() }()
				errs[i] = fn(i)
			}()
		}
	}
	var wg sync.WaitGroup
	for g := 1; g < min(n, limit); g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	for _, p := range panics {
		if p != nil {
			panic(p)
		}
	}
	return errors.Join(errs...)
}
