package main

import (
	"math"
	"slices"
)

// latencies is a preallocated sample buffer of one goroutine in one phase.
// When it is full further samples are counted but not kept. Samples arrive
// in time order, so remembering where each time window starts is enough to
// recover the window a sample belongs to.
type latencies struct {
	ns      []int64
	dropped int64
	win     *windows // the phase's windows; nil when tails are pooled
	starts  []int    // starts[w] is len(ns) when window w began
}

func newLatencies(capacity int) *latencies {
	return &latencies{ns: make([]int64, 0, capacity)}
}

// add records a sample of d ns that ended at time now.
func (l *latencies) add(d, now int64) {
	if w := l.win; w != nil {
		for i := (now - w.start) / w.width; int64(len(l.starts)) <= i && len(l.starts) <= len(w.counts); {
			l.starts = append(l.starts, len(l.ns))
		}
	}
	if len(l.ns) < cap(l.ns) {
		l.ns = append(l.ns, d)
	} else {
		l.dropped++
	}
}

// tailGroup is the least number of samples a tail percentile is read from:
// p99 with ten samples beyond it.
const tailGroup = 1000

// perWindow returns the samples of each window but the first, each sorted.
// Neighbouring windows with fewer than tailGroup samples are merged until
// they hold that many, so a slow stack is read at the same percentile as a
// fast one.
func (l *latencies) perWindow() [][]int64 {
	if len(l.starts) < 2 {
		return nil
	}
	var out [][]int64
	emit := func(from, to int) {
		s := slices.Clone(l.ns[from:to])
		slices.Sort(s)
		out = append(out, s)
	}
	from := l.starts[1]
	for w := 1; w < len(l.starts) && w < len(l.win.counts); w++ {
		end := len(l.ns)
		if w+1 < len(l.starts) && w+1 < len(l.win.counts) {
			end = l.starts[w+1]
		}
		// Close the group here if it is large enough and what is left
		// can fill another; otherwise the rest joins it.
		if end-from >= tailGroup && (len(l.ns)-end >= tailGroup || end == len(l.ns)) {
			emit(from, end)
			from = end
		}
	}
	if from < len(l.ns) {
		emit(from, len(l.ns))
	}
	return out
}

// windowedTail is the tail latency of a stream of timed calls: the median
// over the windows of each window's own p99, so a burst of outside
// interference that lands in one window does not set the run's tail. When
// some window is too small to support p99 the samples are pooled and read
// at the highest percentile the pool supports.
func windowedTail(ls ...*latencies) (value, q float64, n int) {
	var groups [][]int64
	for _, l := range ls {
		groups = append(groups, l.perWindow()...)
	}
	return groupedTail(groups)
}

// groupedTail is windowedTail over sorted sample groups.
func groupedTail(groups [][]int64) (value, q float64, n int) {
	windowed := len(groups) >= 2
	for _, g := range groups {
		n += len(g)
		windowed = windowed && tailPercentile(len(g)) == 0.99
	}
	if !windowed {
		all := make([]int64, 0, n)
		for _, g := range groups {
			all = append(all, g...)
		}
		slices.Sort(all)
		value, q = tail(all)
		return value, q, n
	}
	tails := make([]float64, len(groups))
	for i, g := range groups {
		tails[i] = quantile(g, 0.99)
	}
	slices.Sort(tails)
	return median(tails), 0.99, n
}

// pooled returns the sorted samples of several buffers.
func pooled(ls ...*latencies) []int64 {
	n := 0
	for _, l := range ls {
		n += len(l.ns)
	}
	out := make([]int64, 0, n)
	for _, l := range ls {
		out = append(out, l.ns...)
	}
	slices.Sort(out)
	return out
}

// quantile returns the q-quantile of sorted samples (nearest rank).
func quantile(sorted []int64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(q*float64(len(sorted))-1e-9)) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return float64(sorted[i])
}

// tailPercentile applies the rule for reporting a tail: a percentile is
// reported only when at least ten samples lie beyond it. It returns the
// highest of p99, p95, p90 and p50 that n samples support, and 0 when not
// even p50 is supported.
func tailPercentile(n int) float64 {
	for _, pct := range []int{99, 95, 90, 50} {
		if n*(100-pct) >= 10*100 {
			return float64(pct) / 100
		}
	}
	return 0
}

// tail returns the tail latency of sorted samples under that rule, with the
// percentile it used; with too few samples for any percentile it returns
// the largest sample, as percentile 1.
func tail(sorted []int64) (value, q float64) {
	if len(sorted) == 0 {
		return math.NaN(), 0
	}
	q = tailPercentile(len(sorted))
	if q == 0 {
		q = 1
	}
	return quantile(sorted, q), q
}

// minWindows is the least number of windows a phase is cut into: windows
// are 1 s wide, or narrower when the phase is shorter than minWindows
// seconds.
const minWindows = 6

// windows counts work per fixed-width time window of one phase.
type windows struct {
	start, width int64 // ns on the run clock
	counts       []int64
}

func newWindows(start, phase int64) *windows {
	n := max(minWindows, int(phase/1e9))
	return &windows{start: start, width: phase / int64(n), counts: make([]int64, n)}
}

// add credits n units of work finished at time now; work finished after the
// phase's last window is not counted.
func (w *windows) add(now, n int64) {
	if i := (now - w.start) / w.width; i >= 0 && i < int64(len(w.counts)) {
		w.counts[i] += n
	}
}

// windowStats is the throughput of a phase: the median of the per-window
// rates after discarding the first window, with the slowest and fastest
// window beside it.
type windowStats struct {
	Min    float64   `json:"min"`
	Median float64   `json:"median"`
	Max    float64   `json:"max"`
	N      int       `json:"n"`
	Rates  []float64 `json:"rates"` // in time order
}

// rate sums the given window sets index by index and summarises them as
// work per second.
func rate(ws ...*windows) windowStats {
	n := len(ws[0].counts)
	rates := make([]float64, 0, n)
	for i := 1; i < n; i++ {
		var c int64
		for _, w := range ws {
			c += w.counts[i]
		}
		rates = append(rates, float64(c)*1e9/float64(ws[0].width))
	}
	sorted := slices.Clone(rates)
	slices.Sort(sorted)
	return windowStats{Min: sorted[0], Median: median(sorted), Max: sorted[len(sorted)-1], N: len(rates), Rates: rates}
}

// median of sorted values.
func median(sorted []float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

// quartiles returns the first quartile, median and third quartile as
// Python's statistics.quantiles(values, n=4) gives them (exclusive method),
// which is how the driver computes spread.
func quartiles(values []float64) (q1, q2, q3 float64) {
	s := slices.Clone(values)
	slices.Sort(s)
	n := len(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(k int) float64 {
		// Position k*(n+1)/4, 1-based and clamped, then interpolated (or
		// extrapolated, as Python does, when the clamp moved it).
		j := min(max(k*(n+1)/4, 1), n-1)
		d := k*(n+1) - 4*j
		return (s[j-1]*float64(4-d) + s[j]*float64(d)) / 4
	}
	return at(1), at(2), at(3)
}
