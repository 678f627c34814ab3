package main

import (
	"math"
	"sort"
)

// median returns the middle value of xs (the mean of the two middle
// values for an even count), or NaN when xs is empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// relErr is |got − want| ÷ |want|; 0 when both are 0.
func relErr(got, want float64) float64 {
	if want == 0 {
		if got == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return math.Abs(got-want) / math.Abs(want)
}

// layerCost is one layer's measured cost per call and how many calls a
// request makes into it.
type layerCost struct {
	name        string
	nsPerCall   float64
	callsPerReq float64
}

// unattributed is the share of the end-to-end time per request that the
// per-layer costs do not account for: 1 − Σ ns/call × calls/req ÷ e2e
// ns/req. It is negative when the layers, summed over threads, cost
// more than the wall time (parallel workloads).
func unattributed(e2eNSPerReq float64, layers []layerCost) float64 {
	var sum float64
	for _, l := range layers {
		sum += l.nsPerCall * l.callsPerReq
	}
	return 1 - sum/e2eNSPerReq
}

// failedFrac is failed ÷ attempted, 0 when nothing was attempted.
func failedFrac(attempted, failed int) float64 {
	if attempted == 0 {
		return 0
	}
	return float64(failed) / float64(attempted)
}
