package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// inf is the latency of a failed operation: it misses every limit.
var inf = math.Inf(1)

// ms converts a duration to milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// minBeyond is the number of samples that must lie beyond a percentile
// before it is reported.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile (0 < q < 1) of the
// samples. It refuses when fewer than minBeyond samples lie beyond the
// rank, since such a tail is a handful of outliers, not a percentile.
// A failed operation enters as +Inf: it misses every limit.
func percentile(samples []float64, q float64) (float64, error) {
	n := len(samples)
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if beyond := n - rank; beyond < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, want at least %d", q*100, n, beyond, minBeyond)
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return s[rank-1], nil
}

// median returns the middle value (mean of the two middle values for
// an even count). The samples must not be empty.
func median(samples []float64) float64 {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
