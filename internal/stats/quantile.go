package stats

import (
	"cmp"
	"math"
	"math/bits"
	"slices"
)

// Sample collects observations for exact quantile computation. For the
// experiment sizes used in edgebench (10⁴–10⁶ latencies) exact quantiles
// are affordable and avoid approximation error in tail-latency figures.
// Reading one quantile costs O(n): it selects the needed order statistic
// in place, reordering the retained values but allocating nothing.
// Values sorts once, after which quantiles are read directly. The zero
// value is ready to use.
type Sample struct {
	xs     []float64
	sorted bool
}

// NewSample returns a Sample with capacity pre-allocated for n values.
func NewSample(n int) *Sample { return &Sample{xs: make([]float64, 0, n)} }

// Add records one observation.
func (s *Sample) Add(x float64) {
	s.xs = append(s.xs, x)
	s.sorted = false
}

// AddAll records a batch of observations.
func (s *Sample) AddAll(xs []float64) {
	s.xs = append(s.xs, xs...)
	s.sorted = false
}

// Merge folds the observations of other into s.
func (s *Sample) Merge(other *Sample) {
	s.xs = append(s.xs, other.xs...)
	s.sorted = false
}

// N returns the number of observations.
func (s *Sample) N() int { return len(s.xs) }

// Values returns the observations sorted ascending (NaNs first, as
// slices.Sort orders them). The returned slice is owned by the Sample
// and must not be modified.
func (s *Sample) Values() []float64 {
	if !s.sorted {
		slices.Sort(s.xs)
		s.sorted = true
	}
	return s.xs
}

// Quantile returns the q-th quantile (0 ≤ q ≤ 1) using linear
// interpolation between order statistics (type-7, the R/NumPy default):
// with pos = q(n−1) and lo = ⌊pos⌋, the result interpolates the values
// of rank lo and lo+1 of the sorted sample. q ≤ 0 (or NaN) reads the
// minimum and q ≥ 1 the maximum. It returns 0 for an empty sample.
//
// On an unsorted sample it places rank lo by introselect and takes
// rank lo+1 as the minimum above it: O(n), in place, and bit-identical
// to reading the same ranks after Values.
func (s *Sample) Quantile(q float64) float64 {
	n := len(s.xs)
	switch {
	case n == 0:
		return 0
	case n == 1:
		return s.xs[0]
	case !(q > 0):
		return s.rank(0)
	case q >= 1:
		return s.rank(n - 1)
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	frac := pos - float64(lo)
	if lo+1 >= n {
		return s.rank(n - 1)
	}
	var a, b float64
	if s.sorted {
		a, b = s.xs[lo], s.xs[lo+1]
	} else {
		introselect(s.xs, lo, 2*bits.Len(uint(n-1)))
		a, b = s.xs[lo], minOf(s.xs[lo+1:])
	}
	return a*(1-frac) + b*frac
}

// rank returns the order statistic of rank 0 or n−1 (the minimum or the
// maximum) without reordering an unsorted sample.
func (s *Sample) rank(k int) float64 {
	switch {
	case s.sorted:
		return s.xs[k]
	case k == 0:
		return minOf(s.xs)
	}
	return maxOf(s.xs)
}

// minOf returns the least element of a non-empty xs in cmp.Less order.
func minOf(xs []float64) float64 {
	m := xs[0]
	for _, x := range xs[1:] {
		if cmp.Less(x, m) {
			m = x
		}
	}
	return m
}

// maxOf returns the greatest element of a non-empty xs in cmp.Less order.
func maxOf(xs []float64) float64 {
	m := xs[0]
	for _, x := range xs[1:] {
		if cmp.Less(m, x) {
			m = x
		}
	}
	return m
}

// introselect reorders xs so that xs[k] holds the value slices.Sort
// would put there, with no element before it greater and no element
// after it less (cmp.Less order, so NaNs come first). It narrows onto k
// by Hoare partitions around a median-of-3 pivot; after depth
// partitions it sorts the remaining subrange instead, which bounds the
// worst case at O(n log n) (Musser, Software: Practice & Experience,
// 1997).
func introselect(xs []float64, k, depth int) {
	lo, hi := 0, len(xs)
	for hi-lo > 3 {
		if depth == 0 {
			slices.Sort(xs[lo:hi])
			return
		}
		depth--
		if j := partition(xs[lo:hi]) + lo; k <= j {
			hi = j + 1
		} else {
			lo = j + 1
		}
	}
	sort3(xs[lo:hi])
}

// partition splits xs (len ≥ 4) around the median of its first, middle
// and last elements. It returns j with xs[:j+1] ≤ pivot ≤ xs[j+1:] and
// 0 ≤ j < len(xs)−1, so both sides are non-empty. Both scans stop on
// keys equal to the pivot, so runs of equal values split evenly.
func partition(xs []float64) int {
	m, last := len(xs)/2, len(xs)-1
	if cmp.Less(xs[m], xs[0]) {
		xs[m], xs[0] = xs[0], xs[m]
	}
	if cmp.Less(xs[last], xs[m]) {
		xs[last], xs[m] = xs[m], xs[last]
		if cmp.Less(xs[m], xs[0]) {
			xs[m], xs[0] = xs[0], xs[m]
		}
	}
	pivot := xs[m]
	i, j := -1, len(xs)
	for {
		for i++; cmp.Less(xs[i], pivot); i++ {
		}
		for j--; cmp.Less(pivot, xs[j]); j-- {
		}
		if i >= j {
			return j
		}
		xs[i], xs[j] = xs[j], xs[i]
	}
}

// sort3 sorts a slice of at most three elements.
func sort3(xs []float64) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && cmp.Less(xs[j], xs[j-1]); j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}

// Mean returns the arithmetic mean of the sample.
func (s *Sample) Mean() float64 {
	if len(s.xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range s.xs {
		sum += x
	}
	return sum / float64(len(s.xs))
}

// StdDev returns the sample standard deviation.
func (s *Sample) StdDev() float64 {
	n := len(s.xs)
	if n < 2 {
		return 0
	}
	m := s.Mean()
	var m2 float64
	for _, x := range s.xs {
		d := x - m
		m2 += d * d
	}
	return math.Sqrt(m2 / float64(n-1))
}

// Median returns the 50th percentile.
func (s *Sample) Median() float64 { return s.Quantile(0.5) }

// P95 returns the 95th percentile, the paper's tail-latency metric.
func (s *Sample) P95() float64 { return s.Quantile(0.95) }

// P99 returns the 99th percentile.
func (s *Sample) P99() float64 { return s.Quantile(0.99) }

// Reset discards all observations, keeping the backing array.
func (s *Sample) Reset() {
	s.xs = s.xs[:0]
	s.sorted = true
}
