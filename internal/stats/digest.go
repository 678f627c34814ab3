package stats

import "fmt"

// Mode selects how a Digest stores its observations.
type Mode int

const (
	// Exact retains every observation in a Sample: exact quantiles,
	// O(N) memory. The right choice for small runs and for figures that
	// need full distributions (box-plot outliers, violin curves).
	Exact Mode = iota
	// Bounded keeps O(1) state: running moments via Stream plus a
	// log-bucketed quantile sketch of 8 KiB whose quantiles are within
	// BoundedAlpha (2⁻⁷ ≈ 0.78 %) of the true order statistic. The right
	// choice for long trace replays where retaining millions of
	// latencies would dominate memory.
	Bounded
)

// String names the mode.
func (m Mode) String() string {
	if m == Bounded {
		return "bounded"
	}
	return "exact"
}

// Digest is a latency collector with a selectable memory model: Exact
// mode wraps a Sample (every observation retained), Bounded mode keeps
// running moments and a quantile sketch in constant space. The zero
// value is an empty Exact digest, ready to use.
//
// The bounded sketch splits each octave into 64 buckets and reports a
// bucket's midpoint, so a quantile is within BoundedAlpha of the order
// statistic it estimates. It holds a fixed window of 1024 buckets
// (16 octaves, 8 KiB) below the largest observation; values more than
// 16 octaves below the maximum collapse into the window's lowest bucket,
// and values ≤ 0 are counted as 0. Merging two bounded digests adds
// their buckets, so it is exact: the result equals one digest fed every
// observation, whatever the merge order.
//
// A Digest is a value type but shares internal state with its copies;
// copy one only after the run that fills it has finished.
type Digest struct {
	mode   Mode
	stream Stream  // moments, min/max, count — maintained in both modes
	sample *Sample // Exact mode, lazily allocated
	sketch sketch  // Bounded mode
}

// NewDigest returns a digest in the given mode. In Exact mode sizeHint
// pre-allocates the retained sample (0 is fine); Bounded ignores it.
func NewDigest(mode Mode, sizeHint int) Digest {
	d := Digest{mode: mode}
	if mode == Exact && sizeHint > 0 {
		d.sample = NewSample(sizeHint)
	}
	return d
}

// SetBounded switches an empty digest to Bounded mode. Switching after
// observations have been recorded panics; Merge is the way to fold
// retained observations into a sketch.
func (d *Digest) SetBounded() {
	if d.mode == Bounded {
		return
	}
	if d.stream.N() > 0 {
		panic(fmt.Sprintf("stats: SetBounded on a digest holding %d observations", d.stream.N()))
	}
	d.mode = Bounded
	d.sample = nil
}

// Mode reports the digest's memory model.
func (d *Digest) Mode() Mode { return d.mode }

// Add records one observation.
func (d *Digest) Add(x float64) {
	d.stream.Add(x)
	if d.mode == Bounded {
		d.sketch.add(x)
		return
	}
	if d.sample == nil {
		d.sample = &Sample{}
	}
	d.sample.Add(x)
}

// Merge folds other into d. Two Exact digests merge exactly. When either
// side is Bounded the result is Bounded: retained observations of an
// Exact side are replayed into the sketch, and sketches merge by adding
// buckets, so quantiles equal those of one bounded digest fed every
// observation. Moments merge exactly in every case.
func (d *Digest) Merge(other *Digest) {
	if other.stream.N() == 0 {
		return
	}
	if d.mode == Exact {
		if other.mode == Exact {
			d.stream.Merge(&other.stream)
			if other.sample != nil {
				if d.sample == nil {
					d.sample = &Sample{}
				}
				d.sample.Merge(other.sample)
			}
			return
		}
		retained := d.sample
		d.mode, d.sample = Bounded, nil
		d.sketch.addSample(retained)
	}
	if other.mode == Exact {
		d.sketch.addSample(other.sample)
	} else {
		d.sketch.merge(&other.sketch)
	}
	d.stream.Merge(&other.stream)
}

// N returns the number of observations recorded.
func (d *Digest) N() int { return int(d.stream.N()) }

// Mean returns the arithmetic mean, or 0 when empty.
func (d *Digest) Mean() float64 { return d.stream.Mean() }

// StdDev returns the sample standard deviation.
func (d *Digest) StdDev() float64 { return d.stream.StdDev() }

// Variance returns the unbiased sample variance.
func (d *Digest) Variance() float64 { return d.stream.Variance() }

// Min returns the smallest observation, or 0 when empty.
func (d *Digest) Min() float64 { return d.stream.Min() }

// Max returns the largest observation, or 0 when empty.
func (d *Digest) Max() float64 { return d.stream.Max() }

// Quantile returns the q-th quantile. Exact mode interpolates the
// retained sample's order statistics (see Sample.Quantile): an O(n)
// in-place selection until Values or a box plot or summary has sorted
// the sample once. Bounded mode estimates the order statistic of rank
// ⌊q(n−1)⌋ by its bucket's midpoint, clamped to [Min, Max]. In both
// modes q ≤ 0 (or NaN) reads the minimum and q ≥ 1 the maximum, and in
// Bounded mode ranks 0 and n−1 read Min and Max exactly.
func (d *Digest) Quantile(q float64) float64 {
	if d.mode == Exact {
		if d.sample == nil {
			return 0
		}
		return d.sample.Quantile(q)
	}
	n := d.stream.N()
	if n == 0 {
		return 0
	}
	lo, hi := d.stream.Min(), d.stream.Max()
	rank := q * float64(n-1)
	switch {
	case !(rank >= 1):
		return lo
	case rank >= float64(n-1):
		return hi
	}
	return min(max(d.sketch.value(uint64(rank)), lo), hi)
}

// Median returns the 50th percentile.
func (d *Digest) Median() float64 { return d.Quantile(0.5) }

// P95 returns the 95th percentile, the paper's tail-latency metric.
func (d *Digest) P95() float64 { return d.Quantile(0.95) }

// P99 returns the 99th percentile.
func (d *Digest) P99() float64 { return d.Quantile(0.99) }

// Values returns the retained observations in Exact mode (sorted,
// owned by the digest) and nil in Bounded mode.
func (d *Digest) Values() []float64 {
	if d.mode == Exact && d.sample != nil {
		return d.sample.Values()
	}
	return nil
}

// ExactSample exposes the retained sample in Exact mode, or nil in
// Bounded mode. Callers must not modify it.
func (d *Digest) ExactSample() *Sample {
	if d.mode == Exact {
		return d.sample
	}
	return nil
}

// Box computes the box-plot summary. Exact mode delegates to BoxPlotOf
// (including outlier counting); Bounded mode builds the five-number
// summary from sketch quantiles with no outlier count.
func (d *Digest) Box(label string) BoxPlot {
	if d.mode == Exact {
		if d.sample == nil {
			return BoxPlot{Label: label}
		}
		return BoxPlotOf(label, d.sample)
	}
	bp := BoxPlot{Label: label, N: d.N()}
	if bp.N == 0 {
		return bp
	}
	bp.Min = d.stream.Min()
	bp.Q1 = d.Quantile(0.25)
	bp.Median = d.Quantile(0.5)
	bp.Q3 = d.Quantile(0.75)
	bp.Max = d.stream.Max()
	bp.Mean = d.Mean()
	iqr := bp.Q3 - bp.Q1
	bp.LowerFence = max(bp.Min, bp.Q1-1.5*iqr)
	bp.UpperFence = min(bp.Max, bp.Q3+1.5*iqr)
	return bp
}

// Summarize computes a DistSummary at the given probes (nil = 1%..99%).
// Bounded mode reads each probe from the sketch.
func (d *Digest) Summarize(label string, probes []float64) DistSummary {
	if d.mode == Exact {
		s := d.sample
		if s == nil {
			s = &Sample{}
		}
		return SummarizeDist(label, s, probes)
	}
	if probes == nil {
		probes = make([]float64, 0, 99)
		for i := 1; i <= 99; i++ {
			probes = append(probes, float64(i)/100)
		}
	}
	out := DistSummary{Label: label, N: d.N(), Mean: d.Mean(), StdDev: d.StdDev()}
	if out.Mean != 0 {
		out.CoV = out.StdDev / out.Mean
	}
	for _, q := range probes {
		out.Quantiles = append(out.Quantiles, QuantilePoint{Q: q, Value: d.Quantile(q)})
	}
	return out
}
