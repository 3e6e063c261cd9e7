package main

import (
	"math"
	"runtime"
	"testing"
)

func TestTailPercentileRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{0, 0}, {19, 0}, {20, 0.5}, {99, 0.5}, {100, 0.9}, {199, 0.9}, {200, 0.95}, {999, 0.95}, {1000, 0.99}, {1 << 20, 0.99}} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	// 1..1000: p99 is 990 with exactly ten samples beyond it.
	s := make([]int64, 1000)
	for i := range s {
		s[i] = int64(i + 1)
	}
	if v, q := tail(s); v != 990 || q != 0.99 {
		t.Errorf("tail(1..1000) = %v at p%v, want 990 at p99", v, q*100)
	}
	if v, q := tail(s[:500]); v != 475 || q != 0.95 {
		t.Errorf("tail(1..500) = %v at p%v, want 475 at p95", v, q*100)
	}
	// Too few samples for any percentile: the largest is reported as such.
	if v, q := tail(s[:5]); v != 5 || q != 1 {
		t.Errorf("tail(1..5) = %v at %v, want the maximum", v, q)
	}
	if got := quantile(s, 0.5); got != 500 {
		t.Errorf("median of 1..1000 = %v, want 500", got)
	}
}

func TestWindowMedianDiscardsFirstWindow(t *testing.T) {
	w := newWindows(1000, int64(6e9)) // six 1 s windows starting at t=1000
	if len(w.counts) != 6 || w.width != 1e9 {
		t.Fatalf("6 s phase gave %d windows of %d ns", len(w.counts), w.width)
	}
	for i, n := range []int64{1, 50, 40, 1000, 30, 20} {
		w.add(1000+int64(i)*1e9+5, n)
	}
	w.add(1000+int64(7e9), 999) // after the phase: not counted
	w.add(0, 999)               // before the phase: not counted
	st := rate(w)
	if st.N != 5 || st.Median != 40 || st.Min != 20 || st.Max != 1000 {
		t.Fatalf("rate = %+v, want median 40 of the last five windows, min 20, max 1000", st)
	}
	// Two goroutines' windows are summed index by index.
	v := newWindows(1000, int64(6e9))
	for i := range v.counts {
		v.counts[i] = 10
	}
	if st := rate(w, v); st.Median != 50 {
		t.Fatalf("summed median = %v, want 50", st.Median)
	}
	// Short phases are still cut into minWindows windows.
	if s := newWindows(0, int64(3e9)); len(s.counts) != 6 || s.width != 5e8 {
		t.Fatalf("3 s phase gave %d windows of %d ns", len(s.counts), s.width)
	}
}

// quartiles must agree with Python's statistics.quantiles(v, n=4), which is
// what the driver computes spreads with.
// A burst that lands in one window must not set the run's tail.
func TestWindowedTailIgnoresOneBadWindow(t *testing.T) {
	w := newWindows(0, int64(6e9))
	l := newLatencies(1 << 16)
	l.win = w
	for win := 0; win < 6; win++ {
		for i := 0; i < 2000; i++ {
			d := int64(100 + i%50)
			if win == 3 && i%10 == 0 {
				d = 1e6 // a stall burst in window 3
			}
			l.add(d, int64(win)*1e9+int64(i)*1000)
		}
	}
	v, q, n := windowedTail(l)
	if q != 0.99 || n != 10000 || v > 200 {
		t.Fatalf("windowed tail = %v at p%v over %d samples, want about 149 at p99 over the 10000 samples after the first window", v, q*100, n)
	}
	if pooledTail, _ := tail(pooled(l)); pooledTail < 1e6 {
		t.Fatalf("the pooled tail %v should have been set by the burst", pooledTail)
	}
	// Windows too small for p99 are merged until they support it: five
	// windows of 600 samples become groups of 1200 and 1800.
	s := newLatencies(1 << 12)
	s.win = newWindows(0, int64(6e9))
	for win := 0; win < 6; win++ {
		for i := 0; i < 600; i++ {
			s.add(int64(i), int64(win)*1e9+int64(i))
		}
	}
	if g := s.perWindow(); len(g) != 2 || len(g[0]) != 1200 || len(g[1]) != 1800 {
		t.Fatalf("merged into %d groups, want 1200 + 1800 samples", len(g))
	}
	// A stream too thin for two such groups is pooled and read at the
	// percentile the pool supports.
	thin := newLatencies(1 << 12)
	thin.win = newWindows(0, int64(6e9))
	for win := 0; win < 6; win++ {
		for i := 0; i < 60; i++ {
			thin.add(int64(i), int64(win)*1e9+int64(i))
		}
	}
	if _, q, n := windowedTail(thin); q != 0.95 || n != 300 {
		t.Fatalf("thin stream read at p%v over %d samples, want p95 over 300", q*100, n)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	v := []float64{10, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	q1, q2, q3 := quartiles(v)
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles(1..10) = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	q1, q2, q3 = quartiles([]float64{1, 2, 4, 8, 16})
	if q1 != 1.5 || q2 != 4 || q3 != 12 {
		t.Fatalf("quartiles(1,2,4,8,16) = %v %v %v, want 1.5 4 12", q1, q2, q3)
	}
	q1, q2, q3 = quartiles([]float64{3, 5})
	if math.Abs(q1-2.5) > 1e-12 || q2 != 4 || math.Abs(q3-5.5) > 1e-12 {
		t.Fatalf("quartiles(3,5) = %v %v %v, want 2.5 4 5.5", q1, q2, q3)
	}
}

// The longest pause is read over the collections since set-up, or over the
// 256 the runtime keeps when there were more.
func TestMaxPause(t *testing.T) {
	var m runtime.MemStats
	pauseOf := func(n uint32) *uint64 { return &m.PauseNs[(n+255)%256] }
	m.NumGC = 40
	*pauseOf(10), *pauseOf(30) = 900, 500 // collection 10 was before set-up
	if got := maxPause(20, &m); got != 500 {
		t.Errorf("few collections: %d, want 500", got)
	}
	m = runtime.MemStats{NumGC: 1000}
	*pauseOf(800) = 700
	if got := maxPause(20, &m); got != 700 {
		t.Errorf("more than 256 collections since set-up: %d, want 700", got)
	}
}
