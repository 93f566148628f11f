// Package metrics provides the measurement toolkit for experiments:
// log-scale latency histograms with percentile queries, throughput
// counters, aligned text tables, and ASCII Gantt charts for rendering
// resource-occupancy figures.
package metrics

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
)

// subBuckets controls histogram resolution: each power-of-two range is
// split into this many linear sub-buckets, bounding relative error to
// about 1/subBuckets.
const subBuckets = 32

// Histogram records int64 samples (typically latencies in nanoseconds)
// in logarithmic buckets. The zero value is ready to use.
type Histogram struct {
	counts map[int]int64
	keys   []int // occupied buckets, always sorted ascending
	n      int64
	sum    int64
	sumsq  float64 // sum of squared samples, for Variance
	min    int64
	max    int64
}

const log2SubBuckets = 5 // log2(subBuckets)

// bucketOf maps a value to its bucket index. Values below subBuckets map
// to themselves; a value with highest set bit exp lands in bucket
// (exp-log2SubBuckets+2)*subBuckets + linear-offset-within-its-octave.
func bucketOf(v int64) int {
	if v < subBuckets {
		return int(v)
	}
	exp := 63 - bits.LeadingZeros64(uint64(v))
	offset := int((v >> uint(exp-log2SubBuckets)) - subBuckets)
	return (exp-log2SubBuckets+2)*subBuckets + offset
}

// bucketLow returns the smallest value mapping to bucket b, the inverse
// of bucketOf up to bucket granularity.
func bucketLow(b int) int64 {
	if b < 2*subBuckets {
		return int64(b)
	}
	exp := b/subBuckets + log2SubBuckets - 2
	within := b % subBuckets
	return (int64(subBuckets) + int64(within)) << uint(exp-log2SubBuckets)
}

// addBucket credits c samples to bucket b, keeping the sorted key list
// current. New buckets are rare after warm-up (the bucket universe is
// small and log-spaced), so the occasional sorted insert amortizes to
// nothing — and Quantile never has to sort.
func (h *Histogram) addBucket(b int, c int64) {
	if _, ok := h.counts[b]; !ok {
		i := sort.SearchInts(h.keys, b)
		h.keys = append(h.keys, 0)
		copy(h.keys[i+1:], h.keys[i:])
		h.keys[i] = b
	}
	h.counts[b] += c
}

// Record adds one sample. Negative samples are clamped to zero.
func (h *Histogram) Record(v int64) {
	if v < 0 {
		v = 0
	}
	if h.counts == nil {
		h.counts = make(map[int]int64)
		h.min = math.MaxInt64
	}
	h.addBucket(bucketOf(v), 1)
	h.n++
	h.sum += v
	h.sumsq += float64(v) * float64(v)
	if v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
}

// Count reports the number of recorded samples.
func (h *Histogram) Count() int64 { return h.n }

// Mean reports the arithmetic mean, or 0 with no samples.
func (h *Histogram) Mean() float64 {
	if h.n == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.n)
}

// Variance reports the population variance of the samples, or 0 with
// fewer than two. Units are the square of the sample unit.
func (h *Histogram) Variance() float64 {
	if h.n < 2 {
		return 0
	}
	mean := float64(h.sum) / float64(h.n)
	v := h.sumsq/float64(h.n) - mean*mean
	if v < 0 { // floating-point cancellation on near-constant samples
		v = 0
	}
	return v
}

// Min reports the smallest sample, or 0 with no samples.
func (h *Histogram) Min() int64 {
	if h.n == 0 {
		return 0
	}
	return h.min
}

// Max reports the largest sample, or 0 with no samples.
func (h *Histogram) Max() int64 { return h.max }

// Quantile reports an approximation of the q-quantile (q in [0,1]),
// accurate to bucket resolution (~3%). Quantile(0.5) is the median.
func (h *Histogram) Quantile(q float64) int64 {
	if h.n == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := int64(math.Ceil(q * float64(h.n)))
	if target < 1 {
		target = 1
	}
	var cum int64
	for _, k := range h.keys {
		cum += h.counts[k]
		if cum >= target {
			lo := bucketLow(k)
			if lo < h.min {
				lo = h.min
			}
			if lo > h.max {
				lo = h.max
			}
			return lo
		}
	}
	return h.max
}

// P50, P95, P99 are convenience quantile accessors.
func (h *Histogram) P50() int64 { return h.Quantile(0.50) }

// P95 reports the 95th percentile.
func (h *Histogram) P95() int64 { return h.Quantile(0.95) }

// P99 reports the 99th percentile.
func (h *Histogram) P99() int64 { return h.Quantile(0.99) }

// Merge adds all samples of other into h.
func (h *Histogram) Merge(other *Histogram) {
	if other == nil || other.n == 0 {
		return
	}
	if h.counts == nil {
		h.counts = make(map[int]int64)
		h.min = math.MaxInt64
	}
	for _, k := range other.keys {
		h.addBucket(k, other.counts[k])
	}
	h.n += other.n
	h.sum += other.sum
	h.sumsq += other.sumsq
	if other.min < h.min {
		h.min = other.min
	}
	if other.max > h.max {
		h.max = other.max
	}
}

// Clone returns an independent copy of the histogram. Cloning nil or
// the zero value yields an empty histogram.
func (h *Histogram) Clone() *Histogram {
	c := &Histogram{}
	if h == nil || h.n == 0 {
		return c
	}
	c.counts = make(map[int]int64, len(h.counts))
	for k, v := range h.counts {
		c.counts[k] = v
	}
	c.keys = append([]int(nil), h.keys...)
	c.n, c.sum, c.sumsq, c.min, c.max = h.n, h.sum, h.sumsq, h.min, h.max
	return c
}

// DeltaFrom returns the histogram of samples recorded since prev, where
// prev is an earlier Clone of the same cumulative histogram. Bucket
// counts, n, sum, and sum-of-squares subtract exactly; min/max cannot
// be recovered per-interval from cumulative state, so they are
// approximated by the interval's occupied bucket bounds — unless the
// cumulative min/max themselves moved during the interval, in which
// case the new extreme is exact. A nil or empty prev returns a clone.
func (h *Histogram) DeltaFrom(prev *Histogram) *Histogram {
	if h == nil {
		return &Histogram{}
	}
	if prev == nil || prev.n == 0 {
		return h.Clone()
	}
	d := &Histogram{counts: make(map[int]int64), min: math.MaxInt64}
	for _, k := range h.keys {
		if c := h.counts[k] - prev.counts[k]; c > 0 {
			d.addBucket(k, c)
		}
	}
	d.n = h.n - prev.n
	if d.n <= 0 {
		return &Histogram{}
	}
	d.sum = h.sum - prev.sum
	d.sumsq = h.sumsq - prev.sumsq
	if d.sumsq < 0 {
		d.sumsq = 0
	}
	if len(d.keys) > 0 {
		d.min = bucketLow(d.keys[0])
		d.max = bucketLow(d.keys[len(d.keys)-1])
	}
	if h.min < prev.min && h.min < d.min {
		d.min = h.min
	}
	if h.max > prev.max {
		d.max = h.max
	}
	if d.min > d.max {
		d.min = d.max
	}
	return d
}

// Reset discards all samples.
func (h *Histogram) Reset() {
	h.counts = nil
	h.keys = nil
	h.n, h.sum, h.min, h.max = 0, 0, 0, 0
	h.sumsq = 0
}

// Summary formats count/mean/p50/p99/max in microseconds.
func (h *Histogram) Summary() string {
	return fmt.Sprintf("n=%d mean=%.1fµs p50=%.1fµs p99=%.1fµs max=%.1fµs",
		h.n, h.Mean()/1e3, float64(h.P50())/1e3, float64(h.P99())/1e3, float64(h.max)/1e3)
}
