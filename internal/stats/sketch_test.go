package stats

import (
	"encoding/binary"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// orderStat returns the order statistic of rank ⌊q(n−1)⌋ of sorted xs:
// the value a bounded digest's Quantile(q) estimates.
func orderStat(xs []float64, q float64) float64 {
	return xs[int(q*float64(len(xs)-1))]
}

// withinAlpha reports whether got is within BoundedAlpha of want.
func withinAlpha(got, want float64) bool {
	return math.Abs(got-want) <= BoundedAlpha*math.Abs(want)
}

// sameQuantiles fails unless a and b agree bit for bit on every
// quantile probe, through both Quantile and Summarize.
func sameQuantiles(t *testing.T, name string, a, b *Digest) {
	t.Helper()
	if a.N() != b.N() || a.Min() != b.Min() || a.Max() != b.Max() {
		t.Fatalf("%s: n/min/max %d/%v/%v vs %d/%v/%v", name,
			a.N(), a.Min(), a.Max(), b.N(), b.Min(), b.Max())
	}
	sa, sb := a.Summarize(name, nil), b.Summarize(name, nil)
	for i := range sa.Quantiles {
		if math.Float64bits(sa.Quantiles[i].Value) != math.Float64bits(sb.Quantiles[i].Value) {
			t.Fatalf("%s: Summarize q=%v: %v vs %v", name,
				sa.Quantiles[i].Q, sa.Quantiles[i].Value, sb.Quantiles[i].Value)
		}
	}
	for _, q := range []float64{0, 1e-9, 0.001, 0.25, 0.5, 0.95, 0.99, 0.999, 1} {
		if math.Float64bits(a.Quantile(q)) != math.Float64bits(b.Quantile(q)) {
			t.Fatalf("%s: q=%v: %v vs %v", name, q, a.Quantile(q), b.Quantile(q))
		}
	}
}

// TestP2AgainstExact: bounded quantiles land within BoundedAlpha of the
// exact order statistic on light-, medium- and heavy-tailed data.
func TestP2AgainstExact(t *testing.T) {
	laws := map[string]func(*rand.Rand) float64{
		"exponential": func(r *rand.Rand) float64 { return r.ExpFloat64() },
		"lognormal":   func(r *rand.Rand) float64 { return math.Exp(r.NormFloat64() * 1.5) },
		"pareto":      func(r *rand.Rand) float64 { return math.Pow(1-r.Float64(), -1/1.2) },
	}
	for name, draw := range laws {
		rng := rand.New(rand.NewSource(42))
		d := NewDigest(Bounded, 0)
		xs := make([]float64, 100000)
		for i := range xs {
			xs[i] = draw(rng)
			d.Add(xs[i])
		}
		sort.Float64s(xs)
		for _, q := range []float64{0.01, 0.25, 0.5, 0.9, 0.95, 0.99, 0.999} {
			if got, want := d.Quantile(q), orderStat(xs, q); !withinAlpha(got, want) {
				t.Errorf("%s q=%v: bounded %v, order statistic %v", name, q, got, want)
			}
		}
	}
}

// TestP2SmallCounts: with one to five observations, every probe picks
// the right order statistic — exact at ranks 0 and n−1 — and values an
// octave apart make a wrong pick impossible to miss.
func TestP2SmallCounts(t *testing.T) {
	d := NewDigest(Bounded, 0)
	if d.Quantile(0.5) != 0 {
		t.Error("empty digest should report 0")
	}
	vals := []float64{40, 3, 700, 0.5, 9000}
	for n := 1; n <= len(vals); n++ {
		d.Add(vals[n-1])
		xs := append([]float64(nil), vals[:n]...)
		sort.Float64s(xs)
		for q := 0.0; q <= 1; q += 0.05 {
			r := int(q * float64(n-1))
			got, want := d.Quantile(q), xs[r]
			if r == 0 || r == n-1 {
				if got != want {
					t.Errorf("n=%d q=%.2f: %v, want rank-%d value %v exactly", n, q, got, r, want)
				}
			} else if !withinAlpha(got, want) {
				t.Errorf("n=%d q=%.2f: %v, want within α of %v", n, q, got, want)
			}
		}
	}
}

// TestP2Deterministic: the buckets depend on the observed values only —
// the same input in any order reads out bit-identical quantiles, and a
// constant stream reads out the constant.
func TestP2Deterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	xs := make([]float64, 20000)
	for i := range xs {
		xs[i] = math.Exp(rng.NormFloat64() * 4)
	}
	fwd, rev, again := NewDigest(Bounded, 0), NewDigest(Bounded, 0), NewDigest(Bounded, 0)
	for i := range xs {
		fwd.Add(xs[i])
		rev.Add(xs[len(xs)-1-i])
		again.Add(xs[i])
	}
	same := func(a, b *sketch) bool { return a.zero == b.zero && a.top == b.top && *a.counts == *b.counts }
	if !same(&fwd.sketch, &again.sketch) || !same(&fwd.sketch, &rev.sketch) {
		t.Error("the same observations filled different buckets")
	}
	sameQuantiles(t, "reversed", &fwd, &rev)

	c := NewDigest(Bounded, 0)
	for i := 0; i < 1000; i++ {
		c.Add(7)
	}
	for _, q := range []float64{0.01, 0.5, 0.95, 0.99} {
		if c.Quantile(q) != 7 {
			t.Errorf("constant stream q=%v: %v, want 7", q, c.Quantile(q))
		}
	}
}

// TestDigestQuantileClampsBadQ: in either mode a digest reads Min for
// q below 0 or NaN and Max for q above 1.
func TestDigestQuantileClampsBadQ(t *testing.T) {
	for _, mode := range []Mode{Exact, Bounded} {
		d := NewDigest(mode, 0)
		for _, x := range []float64{3, 1, 4, 1, 5, 9, 2, 6} {
			d.Add(x)
		}
		for _, q := range []float64{-0.5, 0, math.NaN(), math.Inf(-1)} {
			if got := d.Quantile(q); got != 1 {
				t.Errorf("%v: Quantile(%v) = %v, want min 1", mode, q, got)
			}
		}
		for _, q := range []float64{1, 2, math.Inf(1)} {
			if got := d.Quantile(q); got != 9 {
				t.Errorf("%v: Quantile(%v) = %v, want max 9", mode, q, got)
			}
		}
	}
}

// TestSketchWideRangeAccuracy: on positive data spanning 32 octaves,
// of which under 5 % lies more than 16 octaves below the maximum and
// collapses, every quantile from 0.05 up is within BoundedAlpha of its
// order statistic.
func TestSketchWideRangeAccuracy(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		logUniform := func(lo, hi float64) float64 { return math.Exp2(lo + (hi-lo)*rng.Float64()) }
		d := NewDigest(Bounded, 0)
		xs := make([]float64, 5000+rng.Intn(20000))
		for i := range xs {
			if rng.Float64() < 0.03 {
				xs[i] = logUniform(-20, -4)
			} else {
				xs[i] = logUniform(-4, 12)
			}
			d.Add(xs[i])
		}
		sort.Float64s(xs)
		if math.Log2(xs[len(xs)-1]/xs[0]) <= 16 {
			t.Fatalf("seed %d: data spans only %.1f octaves", seed, math.Log2(xs[len(xs)-1]/xs[0]))
		}
		for q := 0.05; q <= 1; q += 0.01 {
			if got, want := d.Quantile(q), orderStat(xs, q); !withinAlpha(got, want) {
				t.Fatalf("seed %d q=%.2f: %v, order statistic %v", seed, q, got, want)
			}
		}
	}
}

// TestSketchCollapse: values more than 16 octaves below the maximum
// read out as the window's lowest bucket.
func TestSketchCollapse(t *testing.T) {
	d := NewDigest(Bounded, 0)
	for i := 0; i < 10; i++ {
		d.Add(1e-9)
	}
	d.Add(1)
	low := sketchMid(sketchKey(1) - sketchBuckets + 1)
	if low < math.Exp2(-16) || low > math.Exp2(-15) {
		t.Fatalf("window bottom %v is not 16 octaves below 1", low)
	}
	if got := d.Quantile(0.5); got != low {
		t.Errorf("collapsed median %v, want the window's lowest bucket %v", got, low)
	}
}

// TestDigestZerosAndNegatives: observations ≤ 0 count as 0 in the
// sketch; Min and Max stay exact and bound every quantile.
func TestDigestZerosAndNegatives(t *testing.T) {
	d := NewDigest(Bounded, 0)
	for i := 0; i < 60; i++ {
		d.Add(0)
	}
	for i := 0; i < 10; i++ {
		d.Add(-1e-12)
	}
	for i := 0; i < 30; i++ {
		d.Add(5)
	}
	if got := d.Quantile(0); got != -1e-12 {
		t.Errorf("min = %v", got)
	}
	if got := d.Quantile(0.5); got != 0 {
		t.Errorf("median of mostly zeros = %v, want 0", got)
	}
	if got := d.Quantile(0.9); !withinAlpha(got, 5) {
		t.Errorf("p90 = %v, want ≈ 5", got)
	}
	neg := NewDigest(Bounded, 0)
	for _, x := range []float64{-3, -2, -1} {
		neg.Add(x)
	}
	if got := neg.Quantile(0.5); got != -1 {
		t.Errorf("all-negative median = %v, want it clamped to max -1", got)
	}
}

// TestDigestMergeMatchesSingle: merging in either order equals one
// digest fed every value, bit for bit on every quantile probe, for
// bounded-into-bounded, exact-into-bounded and bounded-into-exact.
func TestDigestMergeMatchesSingle(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	xs := make([]float64, 30000)
	for i := range xs {
		xs[i] = math.Exp(rng.NormFloat64()*3) - 0.01
	}
	cut := len(xs) / 3
	all := NewDigest(Bounded, 0)
	for _, x := range xs {
		all.Add(x)
	}
	fill := func(m Mode, part []float64) Digest {
		d := NewDigest(m, 0)
		for _, x := range part {
			d.Add(x)
		}
		return d
	}
	for _, modes := range [][2]Mode{{Bounded, Bounded}, {Exact, Bounded}, {Bounded, Exact}} {
		name := modes[0].String() + "+" + modes[1].String()
		a, b := fill(modes[0], xs[:cut]), fill(modes[1], xs[cut:])
		ab := fill(modes[0], xs[:cut])
		ab.Merge(&b)
		ba := fill(modes[1], xs[cut:])
		ba.Merge(&a)
		if ab.Mode() != Bounded || ba.Mode() != Bounded {
			t.Fatalf("%s: merge with a bounded side must be bounded", name)
		}
		sameQuantiles(t, name+" a·b", &ab, &all)
		sameQuantiles(t, name+" b·a", &ba, &all)
		if math.Abs(ab.Mean()-all.Mean()) > 1e-9*math.Abs(all.Mean()) {
			t.Errorf("%s: merged mean %v vs %v", name, ab.Mean(), all.Mean())
		}
	}
}

// FuzzDigestMerge: for any finite values and split point, a.Merge(b),
// b.Merge(a) and one digest fed everything agree bit for bit.
func FuzzDigestMerge(f *testing.F) {
	f.Add([]byte{}, uint8(0), false)
	f.Add(binary.LittleEndian.AppendUint64(nil, math.Float64bits(0.25)), uint8(1), true)
	seed := []byte{}
	for _, x := range []float64{5e-324, 1e-300, 3, -2, 0, 1e12, 5e-7, 4.5, 4.5} {
		seed = binary.LittleEndian.AppendUint64(seed, math.Float64bits(x))
	}
	f.Add(seed, uint8(3), false)
	f.Add(seed, uint8(5), true)
	f.Fuzz(func(t *testing.T, data []byte, split uint8, exactA bool) {
		var xs []float64
		for ; len(data) >= 8; data = data[8:] {
			x := math.Float64frombits(binary.LittleEndian.Uint64(data))
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				xs = append(xs, x)
			}
		}
		cut := min(int(split), len(xs))
		modeA := Bounded
		if exactA {
			modeA = Exact
		}
		a, b, all := NewDigest(modeA, 0), NewDigest(Bounded, 0), NewDigest(Bounded, 0)
		for i, x := range xs {
			if i < cut {
				a.Add(x)
			} else {
				b.Add(x)
			}
			all.Add(x)
		}
		ab := NewDigest(modeA, 0)
		ab.Merge(&a)
		ab.Merge(&b)
		ba := NewDigest(Bounded, 0)
		ba.Merge(&b)
		ba.Merge(&a)
		if len(xs) == 0 {
			return
		}
		if ab.Mode() == Bounded {
			sameQuantiles(t, "a·b", &ab, &all)
		} else if b.N() > 0 {
			t.Fatal("merging a bounded digest left the result exact")
		}
		sameQuantiles(t, "b·a", &ba, &all)
	})
}
