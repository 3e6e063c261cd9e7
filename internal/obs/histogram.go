package obs

import (
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// histBuckets is the bucket count of a Histogram: one per possible
// bits.Len64 result (0 for v == 0, up to 64), i.e. power-of-two bucket
// boundaries. Log2 bucketing costs one LZCNT on the observe path and needs
// no configuration: the same histogram shape serves nanosecond latencies,
// byte sizes and op counts.
const histBuckets = 65

// Histogram is a concurrent log2-bucketed histogram. Observe places v in
// bucket bits.Len64(v), so bucket i (i >= 1) covers [2^(i-1), 2^i - 1] and
// bucket 0 covers exactly 0. The zero value is ready to use. Like Counter,
// it is updated with plain atomics and snapshotted racily: a snapshot taken
// under concurrent observes is approximate, and exact once writers quiesce.
type Histogram struct {
	count   atomic.Uint64
	sum     atomic.Uint64
	max     atomic.Uint64
	buckets [histBuckets]atomic.Uint64
}

// Observe records one value.
func (h *Histogram) Observe(v uint64) {
	h.count.Add(1)
	h.sum.Add(v)
	for {
		cur := h.max.Load()
		if cur >= v || h.max.CompareAndSwap(cur, v) {
			break
		}
	}
	h.buckets[bits.Len64(v)].Add(1)
}

// ObserveDuration records a duration in nanoseconds (negative clamps to 0).
func (h *Histogram) ObserveDuration(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.Observe(uint64(d))
}

// Snapshot copies the histogram into a Distribution, dropping empty
// buckets.
func (h *Histogram) Snapshot() Distribution {
	var t tally
	t.add(h)
	return t.dist()
}

// reset zeroes the histogram (a Window slot starting a new lap).
func (h *Histogram) reset() {
	h.count.Store(0)
	h.sum.Store(0)
	h.max.Store(0)
	for i := range h.buckets {
		h.buckets[i].Store(0)
	}
}

// tally sums the loaded counters of one or more Histograms: Histogram.Snapshot
// folds one, Window.SnapshotAt the slots still inside its interval.
type tally struct {
	count, sum, max uint64
	buckets         [histBuckets]uint64
}

func (t *tally) add(h *Histogram) {
	t.count += h.count.Load()
	t.sum += h.sum.Load()
	t.max = max(t.max, h.max.Load())
	for i := range h.buckets {
		t.buckets[i] += h.buckets[i].Load()
	}
}

// dist turns the tally into a Distribution of its non-empty buckets. The
// loads are racy by contract, so Max is clamped up to the floor of the
// highest non-empty bucket: a torn max-vs-buckets read can otherwise report
// Max below values the buckets prove were observed (even Max < Mean).
func (t *tally) dist() Distribution {
	d := Distribution{Count: t.count, Sum: t.sum, Max: t.max}
	for i, n := range t.buckets {
		if n > 0 {
			d.Buckets = append(d.Buckets, HistBucket{Le: bucketBound(i), N: n})
		}
	}
	if n := len(d.Buckets); n > 0 {
		d.Max = max(d.Max, bucketFloor(d.Buckets[n-1].Le))
	}
	return d
}

// bucketBound is the inclusive upper bound of bucket i: 0, 1, 3, 7, ...,
// 2^i - 1 (saturating at MaxUint64 for i = 64).
func bucketBound(i int) uint64 {
	if i >= 64 {
		return math.MaxUint64
	}
	return 1<<uint(i) - 1
}

// bucketFloor is the inclusive lower bound of the bucket whose upper bound
// is le: 0 for the zero bucket, otherwise 2^(i-1) — le/2+1 works for every
// le = 2^i - 1 including the saturated top bucket.
func bucketFloor(le uint64) uint64 {
	if le == 0 {
		return 0
	}
	return le/2 + 1
}

// HistBucket is one non-empty bucket of a Distribution: N observations
// with value <= Le (and greater than the previous bucket's bound).
type HistBucket struct {
	Le uint64 `json:"le"`
	N  uint64 `json:"n"`
}

// Distribution is the immutable snapshot of a Histogram, embedded in the
// Stats snapshot types. Buckets hold only the non-empty log2 buckets in
// ascending bound order.
type Distribution struct {
	Count   uint64       `json:"count"`
	Sum     uint64       `json:"sum"`
	Max     uint64       `json:"max"`
	Buckets []HistBucket `json:"buckets,omitempty"`
}

// Mean returns Sum/Count (0 when empty).
func (d Distribution) Mean() float64 {
	if d.Count == 0 {
		return 0
	}
	return float64(d.Sum) / float64(d.Count)
}

// Quantile returns the q-quantile (q clamped to [0, 1]) by walking the
// cumulative bucket counts to the target rank and interpolating linearly
// within the log2 bucket that contains it, clamped to the recorded Max so a
// wide top bucket cannot report a value nothing reached. Empty
// distributions return 0. Because bucket counts merge exactly, quantiles of
// a merged (e.g. sharded) distribution are computed the same way — never by
// averaging per-shard quantiles.
func (d Distribution) Quantile(q float64) float64 {
	if d.Count == 0 {
		return 0
	}
	switch {
	case q < 0:
		q = 0
	case q > 1:
		q = 1
	}
	rank := q * float64(d.Count)
	if rank < 1 {
		rank = 1
	}
	var cum uint64
	for _, b := range d.Buckets {
		if float64(cum)+float64(b.N) < rank {
			cum += b.N
			continue
		}
		lo := float64(bucketFloor(b.Le))
		frac := (rank - float64(cum)) / float64(b.N)
		v := lo + frac*(float64(b.Le)-lo)
		if d.Max > 0 && v > float64(d.Max) {
			v = float64(d.Max)
		}
		return v
	}
	return float64(d.Max)
}

// merge folds o into d (sharded stores sum their shards' snapshots).
// Bucket lists are merged by bound; Max takes the larger.
func (d Distribution) merge(o Distribution) Distribution {
	d.Count += o.Count
	d.Sum += o.Sum
	if o.Max > d.Max {
		d.Max = o.Max
	}
	if len(o.Buckets) == 0 {
		return d
	}
	if len(d.Buckets) == 0 {
		d.Buckets = append([]HistBucket(nil), o.Buckets...)
		return d
	}
	merged := make([]HistBucket, 0, len(d.Buckets)+len(o.Buckets))
	i, j := 0, 0
	for i < len(d.Buckets) && j < len(o.Buckets) {
		switch {
		case d.Buckets[i].Le < o.Buckets[j].Le:
			merged = append(merged, d.Buckets[i])
			i++
		case d.Buckets[i].Le > o.Buckets[j].Le:
			merged = append(merged, o.Buckets[j])
			j++
		default:
			merged = append(merged, HistBucket{Le: d.Buckets[i].Le, N: d.Buckets[i].N + o.Buckets[j].N})
			i++
			j++
		}
	}
	merged = append(merged, d.Buckets[i:]...)
	merged = append(merged, o.Buckets[j:]...)
	d.Buckets = merged
	return d
}
