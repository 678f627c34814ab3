package stats

import "math"

// Bounded digests keep quantiles in a log-linear bucket sketch: DDSketch
// (Masson, Rim & Lee, VLDB 2019) indexed the HdrHistogram way. A
// positive observation's bucket key is its float64 exponent plus the top
// sketchSubBits mantissa bits, so each octave splits into 64 equal-width
// buckets and no logarithm is taken. Keys are plain integers, identical
// on every platform.
const (
	sketchSubBits = 6
	sketchShift   = 52 - sketchSubBits
	// sketchBuckets is the window size: 16 octaves below the largest key.
	sketchBuckets = 1024
	// sketchInfKey is the key of +Inf, one above the largest finite key.
	sketchInfKey = 0x7ff << sketchSubBits
)

// BoundedAlpha is the relative error of a bounded digest's quantiles:
// a bucket's midpoint lies within 2⁻⁷ ≈ 0.78 % of every normal float
// that maps to the bucket.
const BoundedAlpha = 1.0 / (2 << sketchSubBits)

// sketch counts positive observations per bucket key in a fixed window
// anchored at the largest key seen: counts[i] holds key
// top-sketchBuckets+1+i, and keys below the window collapse into
// counts[0]. The bucket an observation ends in therefore depends only
// on the set of keys observed, never on their order, which makes merge
// exact, associative and commutative. The zero value is empty. The
// window is allocated on the first positive observation, apart from
// zero and top, so its 8 KiB fill one allocation size class exactly.
type sketch struct {
	zero   uint64 // observations ≤ 0 (and NaN)
	top    int
	counts *[sketchBuckets]uint64
}

func sketchKey(x float64) int { return int(math.Float64bits(x) >> sketchShift) }

// sketchMid returns the midpoint of bucket k.
func sketchMid(k int) float64 {
	if k >= sketchInfKey {
		return math.Inf(1)
	}
	return math.Float64frombits(uint64(k)<<sketchShift | 1<<(sketchShift-1))
}

func (s *sketch) add(x float64) {
	if !(x > 0) {
		s.zero++
		return
	}
	k := sketchKey(x)
	if k > s.top || s.counts == nil {
		s.raise(k)
	}
	s.counts[max(k-s.top+sketchBuckets-1, 0)]++
}

// addSample adds every observation smp retains; nil adds nothing.
func (s *sketch) addSample(smp *Sample) {
	if smp == nil {
		return
	}
	for _, x := range smp.xs {
		s.add(x)
	}
}

// raise allocates the window at key k, or re-anchors it at k > top,
// folding the buckets that fall below k into counts[0].
func (s *sketch) raise(k int) {
	if s.counts == nil {
		s.counts, s.top = new([sketchBuckets]uint64), k
		return
	}
	shift := min(k-s.top, sketchBuckets-1)
	s.top = k
	var low uint64
	for _, c := range s.counts[:shift+1] {
		low += c
	}
	copy(s.counts[:], s.counts[shift:])
	s.counts[0] = low
	clear(s.counts[sketchBuckets-shift:])
}

// merge adds o's counts into s.
func (s *sketch) merge(o *sketch) {
	s.zero += o.zero
	if o.counts == nil {
		return
	}
	if s.counts == nil || o.top > s.top {
		s.raise(o.top)
	}
	// o.counts[i] holds key o.top-sketchBuckets+1+i: index i-shift here.
	shift := min(s.top-o.top, sketchBuckets-1)
	for _, c := range o.counts[:shift+1] {
		s.counts[0] += c
	}
	for i, c := range o.counts[shift+1:] {
		s.counts[i+1] += c
	}
}

// value returns the midpoint of the bucket holding the order statistic
// of 0-based rank r, or 0 when that observation is ≤ 0.
func (s *sketch) value(r uint64) float64 {
	if r < s.zero {
		return 0
	}
	r -= s.zero
	for i, c := range s.counts {
		if r < c {
			return sketchMid(s.top - sketchBuckets + 1 + i)
		}
		r -= c
	}
	return sketchMid(s.top)
}
