package main

import (
	"math"
	"sort"
)

// segmentEvents is how many simulator events pass between wall-clock
// stamps. The simulator is deterministic, so segment i is the same
// work in every pass of one run and per-segment minima compare like
// with like.
const segmentEvents = 1 << 15

// segmentMinSum estimates the undisturbed wall time of a window that
// was run several times: each pass is cut into the same segments, and
// since interference on a shared box only ever adds time, the minimum
// of a segment across passes is its best estimate. passes[p][i] is the
// wall time of segment i in pass p; every pass must have the same
// number of segments.
func segmentMinSum(passes [][]int64) int64 {
	if len(passes) == 0 {
		return 0
	}
	var sum int64
	for i := range passes[0] {
		m := passes[0][i]
		for _, p := range passes[1:] {
			if p[i] < m {
				m = p[i]
			}
		}
		sum += m
	}
	return sum
}

// passSpread is how disturbed a run was: the median pass total over the
// segment-minimum estimate, minus one.
func passSpread(passes [][]int64, estimate int64) float64 {
	if estimate <= 0 || len(passes) == 0 {
		return 0
	}
	totals := make([]float64, len(passes))
	for i, p := range passes {
		var t int64
		for _, s := range p {
			t += s
		}
		totals[i] = float64(t)
	}
	return median(totals)/float64(estimate) - 1
}

// sortedCopy returns xs sorted ascending without touching xs.
func sortedCopy(xs []int64) []int64 {
	s := append([]int64(nil), xs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}

// pick returns the q-quantile of an ascending sample by nearest rank.
func pick(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// tailMinBeyond is how many samples must lie beyond a percentile for it
// to be reported: with fewer the figure is one outlier, not a tail.
const tailMinBeyond = 10

// supportedTail picks the highest of the usual tail percentiles that
// still has at least tailMinBeyond samples beyond it. With fewer than
// 2×tailMinBeyond samples nothing beyond the median is supported and it
// reports 0.5.
func supportedTail(n int) float64 {
	for _, q := range []float64{0.9999, 0.999, 0.99, 0.95, 0.9} {
		if n-int(math.Round(q*float64(n))) >= tailMinBeyond {
			return q
		}
	}
	return 0.5
}

// median of a float sample (not modified).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartileSpread is the distance between the first and third quartile
// as a share of the median, with the quartiles placed the way Python's
// statistics.quantiles(values, n=4) (exclusive method) places them —
// the figure the harness holds each end-to-end metric's bound against.
func quartileSpread(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(k int) float64 { // k-th quartile, exclusive method
		pos := float64(k) * float64(n+1) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	m := median(s)
	if m == 0 {
		return 0
	}
	d := (at(3) - at(1)) / m
	if d < 0 {
		d = -d
	}
	return d
}

// interval is a half-open span of time on one clock.
type interval struct{ start, end int64 }

// selfTime is a span's duration minus the part of it its children
// cover. Children may overlap each other and may stick out of the
// parent; only their union inside the parent is subtracted.
func selfTime(parent interval, children []interval) int64 {
	total := parent.end - parent.start
	if total <= 0 {
		return 0
	}
	cs := make([]interval, 0, len(children))
	for _, c := range children {
		if c.start < parent.start {
			c.start = parent.start
		}
		if c.end > parent.end {
			c.end = parent.end
		}
		if c.end > c.start {
			cs = append(cs, c)
		}
	}
	sort.Slice(cs, func(i, j int) bool { return cs[i].start < cs[j].start })
	var covered, edge int64 = 0, parent.start
	for _, c := range cs {
		if c.start > edge {
			edge = c.start
		}
		if c.end > edge {
			covered += c.end - edge
			edge = c.end
		}
	}
	return total - covered
}
