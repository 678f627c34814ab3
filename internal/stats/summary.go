package stats

import (
	"fmt"
	"math"
	"sort"
)

// BoxPlot holds the five-number summary plus mean and whisker fences used
// by the paper's Figures 2, 6, and 10.
type BoxPlot struct {
	Label      string
	N          int
	Min        float64
	Q1         float64
	Median     float64
	Q3         float64
	Max        float64
	Mean       float64
	LowerFence float64 // Q1 - 1.5*IQR, clamped to Min
	UpperFence float64 // Q3 + 1.5*IQR, clamped to Max
	Outliers   int     // observations outside the fences
}

// BoxPlotOf computes the box-plot summary of a sample.
func BoxPlotOf(label string, s *Sample) BoxPlot {
	bp := BoxPlot{Label: label, N: s.N()}
	if s.N() == 0 {
		return bp
	}
	xs := s.Values() // sort once: five probes and the outlier scan follow
	bp.Min = s.Quantile(0)
	bp.Q1 = s.Quantile(0.25)
	bp.Median = s.Quantile(0.5)
	bp.Q3 = s.Quantile(0.75)
	bp.Max = s.Quantile(1)
	bp.Mean = s.Mean()
	iqr := bp.Q3 - bp.Q1
	bp.LowerFence = math.Max(bp.Min, bp.Q1-1.5*iqr)
	bp.UpperFence = math.Min(bp.Max, bp.Q3+1.5*iqr)
	for _, x := range xs {
		if x < bp.LowerFence || x > bp.UpperFence {
			bp.Outliers++
		}
	}
	return bp
}

// IQR returns the interquartile range.
func (b BoxPlot) IQR() float64 { return b.Q3 - b.Q1 }

// String renders the summary on one line.
func (b BoxPlot) String() string {
	return fmt.Sprintf("%s: n=%d min=%.2f q1=%.2f med=%.2f q3=%.2f max=%.2f mean=%.2f outliers=%d",
		b.Label, b.N, b.Min, b.Q1, b.Median, b.Q3, b.Max, b.Mean, b.Outliers)
}

// DistSummary is a compact description of a latency distribution used for
// the paper's violin plots (Figure 6): quantile curve plus moments.
type DistSummary struct {
	Label     string
	N         int
	Mean      float64
	StdDev    float64
	CoV       float64
	Quantiles []QuantilePoint
}

// QuantilePoint is one (q, value) point on the quantile curve.
type QuantilePoint struct {
	Q     float64
	Value float64
}

// SummarizeDist computes a DistSummary with quantiles at the given probes
// (defaults to 1%..99% by 1% when probes is nil).
func SummarizeDist(label string, s *Sample, probes []float64) DistSummary {
	if probes == nil {
		probes = make([]float64, 0, 99)
		for i := 1; i <= 99; i++ {
			probes = append(probes, float64(i)/100)
		}
	}
	d := DistSummary{Label: label, N: s.N(), Mean: s.Mean(), StdDev: s.StdDev()}
	if d.Mean != 0 {
		d.CoV = d.StdDev / d.Mean
	}
	s.Values() // sort once rather than select once per probe
	for _, q := range probes {
		d.Quantiles = append(d.Quantiles, QuantilePoint{Q: q, Value: s.Quantile(q)})
	}
	return d
}

// Quantile returns the value at probe q, interpolating between stored
// probes, or 0 when no quantiles are stored.
func (d DistSummary) Quantile(q float64) float64 {
	qs := d.Quantiles
	if len(qs) == 0 {
		return 0
	}
	if q <= qs[0].Q {
		return qs[0].Value
	}
	if q >= qs[len(qs)-1].Q {
		return qs[len(qs)-1].Value
	}
	i := sort.Search(len(qs), func(i int) bool { return qs[i].Q >= q })
	lo, hi := qs[i-1], qs[i]
	frac := (q - lo.Q) / (hi.Q - lo.Q)
	return lo.Value + frac*(hi.Value-lo.Value)
}

// TimeSeries accumulates (t, value) observations into fixed-width time
// bins and reports the per-bin mean, count and percentiles. It implements
// the timeline plots of Figures 8 and 9.
type TimeSeries struct {
	BinWidth float64
	Start    float64
	bins     []*Sample
}

// NewTimeSeries returns a series with the given bin width (seconds)
// starting at time start.
func NewTimeSeries(start, binWidth float64) *TimeSeries {
	if binWidth <= 0 {
		panic("stats: TimeSeries bin width must be positive")
	}
	return &TimeSeries{BinWidth: binWidth, Start: start}
}

// Add records value v observed at time t. Observations before Start are
// clamped into the first bin.
func (ts *TimeSeries) Add(t, v float64) {
	idx := int((t - ts.Start) / ts.BinWidth)
	if idx < 0 {
		idx = 0
	}
	for len(ts.bins) <= idx {
		ts.bins = append(ts.bins, &Sample{})
	}
	ts.bins[idx].Add(v)
}

// NumBins returns the number of (possibly empty) bins.
func (ts *TimeSeries) NumBins() int { return len(ts.bins) }

// BinTime returns the midpoint time of bin i.
func (ts *TimeSeries) BinTime(i int) float64 {
	return ts.Start + (float64(i)+0.5)*ts.BinWidth
}

// BinMean returns the mean of bin i (0 if empty).
func (ts *TimeSeries) BinMean(i int) float64 { return ts.bins[i].Mean() }

// BinCount returns the observation count of bin i.
func (ts *TimeSeries) BinCount(i int) int { return ts.bins[i].N() }

// BinQuantile returns quantile q of bin i.
func (ts *TimeSeries) BinQuantile(i int, q float64) float64 { return ts.bins[i].Quantile(q) }

// Means returns the per-bin means as a slice.
func (ts *TimeSeries) Means() []float64 {
	out := make([]float64, len(ts.bins))
	for i, b := range ts.bins {
		out[i] = b.Mean()
	}
	return out
}

// Counts returns per-bin observation counts.
func (ts *TimeSeries) Counts() []int {
	out := make([]int, len(ts.bins))
	for i, b := range ts.bins {
		out[i] = b.N()
	}
	return out
}
