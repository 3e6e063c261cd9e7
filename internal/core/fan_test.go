package core

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"
)

// TestFanRunsEachIndexOnceWithinLimit: every index runs exactly once, never
// more than min(n, limit) at a time (at least one, on the caller), and the
// errors come back joined.
func TestFanRunsEachIndexOnceWithinLimit(t *testing.T) {
	for _, c := range []struct{ n, limit int }{{0, 4}, {1, 4}, {5, 1}, {5, 0}, {3, 8}, {40, 3}} {
		ran := make([]atomic.Int32, c.n)
		var live, peak atomic.Int32
		errs := make([]error, c.n)
		err := Fan(c.n, c.limit, func(i int) error {
			l := live.Add(1)
			for p := peak.Load(); l > p && !peak.CompareAndSwap(p, l); p = peak.Load() {
			}
			time.Sleep(100 * time.Microsecond)
			live.Add(-1)
			ran[i].Add(1)
			if i%3 == 1 {
				errs[i] = fmt.Errorf("index %d", i)
				return errs[i]
			}
			return nil
		})
		for i := range ran {
			if r := ran[i].Load(); r != 1 {
				t.Fatalf("n=%d limit=%d: index %d ran %d times", c.n, c.limit, i, r)
			}
			if errs[i] != nil && !errors.Is(err, errs[i]) {
				t.Fatalf("n=%d limit=%d: %v does not hold index %d's error", c.n, c.limit, err, i)
			}
		}
		if want := int32(max(min(c.n, c.limit), 1)); peak.Load() > want {
			t.Fatalf("n=%d limit=%d: %d indices ran at once, want at most %d", c.n, c.limit, peak.Load(), want)
		}
	}
}

// TestFanRaisesLowestPanicAfterAll: a panic does not stop the other
// indices, and once all have finished the lowest-indexed panic is raised
// on the caller.
func TestFanRaisesLowestPanicAfterAll(t *testing.T) {
	var ran atomic.Int32
	got := func() (r any) {
		defer func() { r = recover() }()
		Fan(16, 4, func(i int) error {
			ran.Add(1)
			if i == 11 || i == 6 {
				panic(i)
			}
			return nil
		})
		return nil
	}()
	if got != 6 || ran.Load() != 16 {
		t.Fatalf("Fan raised %v after %d of 16 indices, want 6 after all", got, ran.Load())
	}
}
