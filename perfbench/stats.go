package main

import (
	"math"
	"sort"
)

// percentile is the exact nearest-rank percentile of the samples: the
// smallest sample with at least p percent of all samples at or below
// it. It always returns one of the measured values, never a bucket
// edge or an interpolation. It returns 0 for no samples.
func percentile(samples []float64, p float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	return s[min(max(rank, 1), len(s))-1]
}

// tailWindow is the number of consecutive samples over which
// windowedPercentile takes one tail percentile: at least ten samples
// lie beyond a window's p99.
const tailWindow = 1000

// windowedPercentile splits time-ordered samples into consecutive
// windows of at least size samples (a shorter remainder joins the last
// window), takes the exact nearest-rank percentile p of each window,
// and returns the median of those. A host stall that slows a few
// windows moves the result only when it slows most of the run. With
// fewer than 2*size samples it is the percentile of all of them.
func windowedPercentile(samples []float64, p float64, size int) (float64, int) {
	n := max(len(samples)/max(size, 1), 1)
	per := make([]float64, n)
	for i := range per {
		from, to := i*size, (i+1)*size
		if i == n-1 {
			to = len(samples)
		}
		per[i] = percentile(samples[from:to], p)
	}
	return percentile(per, 50), n
}

// ratio is num/den, or 0 when nothing was counted.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
