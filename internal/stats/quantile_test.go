package stats

import (
	"encoding/binary"
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func TestSampleQuantileKnown(t *testing.T) {
	s := NewSample(5)
	for _, x := range []float64{10, 20, 30, 40, 50} {
		s.Add(x)
	}
	cases := []struct {
		q, want float64
	}{
		{0, 10}, {0.25, 20}, {0.5, 30}, {0.75, 40}, {1, 50},
	}
	for _, c := range cases {
		if got := s.Quantile(c.q); !almostEqual(got, c.want, 1e-12) {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
}

func TestSampleQuantileInterpolation(t *testing.T) {
	s := NewSample(2)
	s.Add(0)
	s.Add(10)
	if got := s.Quantile(0.5); !almostEqual(got, 5, 1e-12) {
		t.Errorf("median of {0,10} = %v, want 5", got)
	}
	if got := s.Quantile(0.95); !almostEqual(got, 9.5, 1e-12) {
		t.Errorf("p95 of {0,10} = %v, want 9.5", got)
	}
}

func TestSampleEmptyAndSingle(t *testing.T) {
	var s Sample
	if s.Quantile(0.5) != 0 || s.Mean() != 0 || s.StdDev() != 0 {
		t.Error("empty sample should report zeros")
	}
	s.Add(42)
	if s.Quantile(0.01) != 42 || s.Quantile(0.99) != 42 || s.Median() != 42 {
		t.Error("single-value quantiles should equal the value")
	}
}

// TestSampleQuantileMonotone: quantiles are non-decreasing in q.
func TestSampleQuantileMonotone(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := NewSample(0)
		n := 1 + rng.Intn(200)
		for i := 0; i < n; i++ {
			s.Add(rng.NormFloat64())
		}
		prev := s.Quantile(0)
		for q := 0.05; q <= 1.0; q += 0.05 {
			cur := s.Quantile(q)
			if cur < prev-1e-12 {
				return false
			}
			prev = cur
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestSampleQuantileBounds: quantiles stay within [min, max].
func TestSampleQuantileBounds(t *testing.T) {
	f := func(xs []float64) bool {
		if len(xs) == 0 {
			return true
		}
		s := NewSample(len(xs))
		s.AddAll(xs)
		lo, hi := s.Quantile(0), s.Quantile(1)
		for q := 0.0; q <= 1.0; q += 0.1 {
			v := s.Quantile(q)
			if v < lo || v > hi {
				return false
			}
		}
		sorted := append([]float64(nil), xs...)
		sort.Float64s(sorted)
		return lo == sorted[0] && hi == sorted[len(sorted)-1]
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSampleMergeAndReset(t *testing.T) {
	a, b := NewSample(2), NewSample(2)
	a.AddAll([]float64{1, 3})
	b.AddAll([]float64{2, 4})
	a.Merge(b)
	if a.N() != 4 {
		t.Fatalf("merged N = %d, want 4", a.N())
	}
	if got := a.Median(); !almostEqual(got, 2.5, 1e-12) {
		t.Errorf("merged median = %v, want 2.5", got)
	}
	a.Reset()
	if a.N() != 0 {
		t.Error("Reset did not clear sample")
	}
}

func TestSampleStdDev(t *testing.T) {
	s := NewSample(4)
	s.AddAll([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	// Known dataset: population sd = 2, sample sd = 2.138...
	if got := s.StdDev(); !almostEqual(got, 2.13809, 1e-4) {
		t.Errorf("StdDev = %v, want 2.13809", got)
	}
	if got := s.Mean(); got != 5 {
		t.Errorf("Mean = %v, want 5", got)
	}
}

// selectProbes are the quantiles TestSampleQuantileSelectMatchesSort
// reads: the report's percentiles, both ends, ranks next to the ends,
// and out-of-range and NaN probes.
var selectProbes = []float64{0, 1e-9, 0.01, 0.25, 0.5, 0.75, 0.95, 0.99,
	0.999, 1 - 1e-12, 1, -1, 2, math.NaN()}

// sameProbe compares a quantile read by selection with one read from the
// sorted sample: bit for bit, or with == (NaN matching NaN) when the
// input holds signed zeros, whose relative order no sort fixes.
func sameProbe(got, want float64, bitwise bool) bool {
	if bitwise {
		return math.Float64bits(got) == math.Float64bits(want)
	}
	return got == want || (math.IsNaN(got) && math.IsNaN(want))
}

// hasNegZero reports whether xs holds −0.
func hasNegZero(xs []float64) bool {
	for _, x := range xs {
		if x == 0 && math.Signbit(x) {
			return true
		}
	}
	return false
}

// checkSelect reads each probe from a fresh unsorted Sample of xs and
// compares it with the same probe read from a sorted one.
func checkSelect(t *testing.T, name string, xs, probes []float64) {
	t.Helper()
	sorted := NewSample(len(xs))
	sorted.AddAll(xs)
	sorted.Values()
	bitwise := !hasNegZero(xs)
	fresh := NewSample(len(xs))
	for _, q := range probes {
		fresh.Reset()
		fresh.AddAll(xs)
		if got, want := fresh.Quantile(q), sorted.Quantile(q); !sameProbe(got, want, bitwise) {
			t.Fatalf("%s n=%d: Quantile(%v) = %v by selection, %v after sorting", name, len(xs), q, got, want)
		}
	}
}

// TestSampleQuantileSelectMatchesSort: reading a quantile by selection on
// an unsorted sample gives exactly what sorting first gives, for every
// size up to 5000, for zero- and duplicate-heavy, infinite and NaN
// inputs, for the inputs that defeat naive quicksort pivots, and for
// repeated probes with Adds in between.
func TestSampleQuantileSelectMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	draws := []struct {
		name string
		draw func() float64
	}{
		{"exponential", rng.ExpFloat64},
		{"zero-heavy", func() float64 {
			if rng.Float64() < 0.8 {
				return 0
			}
			return rng.ExpFloat64()
		}},
		{"duplicates", func() float64 { return float64(rng.Intn(4)) }},
		{"signed", func() float64 { return math.Copysign(float64(rng.Intn(3)), rng.NormFloat64()) }},
		{"inf-nan", func() float64 {
			switch r := rng.Float64(); {
			case r < 0.05:
				return math.NaN()
			case r < 0.1:
				return math.Inf(1)
			case r < 0.15:
				return math.Inf(-1)
			}
			return rng.NormFloat64()
		}},
	}
	fill := func(n int, draw func() float64) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = draw()
		}
		return xs
	}

	for n := 1; n <= 5000; n++ {
		d := draws[n%len(draws)]
		probes := []float64{0.5, 0.95, 0.99, rng.Float64(), rng.Float64()}
		if n <= 64 || n%97 == 0 {
			probes = append(probes, selectProbes...)
		}
		checkSelect(t, d.name, fill(n, d.draw), probes)
	}

	const big = 100_000
	for _, d := range draws {
		checkSelect(t, d.name, fill(big, d.draw), selectProbes)
	}
	for name, xs := range patterned(big) {
		checkSelect(t, name, xs, selectProbes)
	}

	// Repeated probes on one sample, with Adds between them: each read
	// starts from the order the previous selection left behind.
	for _, d := range draws {
		s, ref := NewSample(0), NewSample(0)
		for round := 0; round < 20; round++ {
			xs := fill(1+rng.Intn(3000), d.draw)
			s.AddAll(xs)
			ref.AddAll(xs)
			bitwise := !hasNegZero(ref.Values())
			for _, q := range append([]float64{rng.Float64(), rng.Float64()}, selectProbes...) {
				if got, want := s.Quantile(q), ref.Quantile(q); !sameProbe(got, want, bitwise) {
					t.Fatalf("%s round %d: Quantile(%v) = %v, want %v", d.name, round, q, got, want)
				}
			}
		}
	}
}

// patterned returns the classic adversarial inputs for quicksort-style
// partitioning at size n (even).
func patterned(n int) map[string][]float64 {
	sorted, reverse, equal, organ, killer := make([]float64, n), make([]float64, n),
		make([]float64, n), make([]float64, n), make([]float64, n)
	for i := range n {
		sorted[i] = float64(i)
		reverse[i] = float64(n - i)
		equal[i] = 7
		organ[i] = float64(min(i, n-1-i))
	}
	// Musser's median-of-3 killer sequence (1997, §4).
	k := n / 2
	for i := 1; i <= k; i++ {
		if i%2 == 1 {
			killer[i-1] = float64(i)
		} else {
			killer[i-1] = float64(k + i - 1)
		}
		killer[k+i-1] = float64(2 * i)
	}
	return map[string][]float64{"sorted": sorted, "reverse": reverse,
		"all-equal": equal, "organ-pipe": organ, "median-of-3 killer": killer}
}

// TestIntroselectDepthFallback: once the depth budget is spent,
// introselect finishes by sorting the remaining subrange, and the result
// still places rank k with nothing greater before it and nothing less
// after it. At the default budget of 2⌈log₂n⌉ the median-of-3 killer and
// organ-pipe inputs reach that fallback for the median and upper ranks;
// the smaller budgets force it on every input.
func TestIntroselectDepthFallback(t *testing.T) {
	const n = 100_000
	for name, xs := range patterned(n) {
		want := slices.Sorted(slices.Values(xs))
		for _, depth := range []int{0, 1, 2, 5, 2 * bits.Len(uint(n-1))} {
			for _, k := range []int{0, 1, n / 2, n * 95 / 100, n - 2, n - 1} {
				ys := slices.Clone(xs)
				introselect(ys, k, depth)
				if ys[k] != want[k] {
					t.Fatalf("%s depth %d: rank %d = %v, want %v", name, depth, k, ys[k], want[k])
				}
				if slices.Max(ys[:k+1]) != ys[k] || slices.Min(ys[k:]) != ys[k] {
					t.Fatalf("%s depth %d: rank %d not partitioned", name, depth, k)
				}
			}
		}
	}
}

// FuzzSampleQuantile: for any float64s (NaN, ±Inf and ±0 included) and
// any probe, a quantile read by selection equals the one read after
// Values, and selection keeps every value.
func FuzzSampleQuantile(f *testing.F) {
	seed := []byte{}
	for _, x := range []float64{3, math.NaN(), 0, math.Copysign(0, -1), math.Inf(1), -2, 3, 5e-324} {
		seed = binary.LittleEndian.AppendUint64(seed, math.Float64bits(x))
	}
	f.Add([]byte{}, 0.5)
	f.Add(seed, 0.95)
	f.Add(seed, math.NaN())
	f.Add(seed[:16], 0.99)
	f.Fuzz(func(t *testing.T, data []byte, q float64) {
		var xs []float64
		for ; len(data) >= 8; data = data[8:] {
			xs = append(xs, math.Float64frombits(binary.LittleEndian.Uint64(data)))
		}
		s := NewSample(len(xs))
		s.AddAll(xs)
		got := s.Quantile(q)
		vals := s.Values()
		if want := s.Quantile(q); !sameProbe(got, want, false) {
			t.Fatalf("Quantile(%v) = %v by selection, %v after sorting", q, got, want)
		}
		slices.Sort(xs)
		for i := range xs {
			if !sameProbe(vals[i], xs[i], false) {
				t.Fatalf("rank %d: %v after selection, %v in the input", i, vals[i], xs[i])
			}
		}
	})
}
