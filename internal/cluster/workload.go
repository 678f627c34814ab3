// Package cluster models the paper's two deployment shapes end to end:
// an edge deployment (k geo-distributed sites, m servers each, one queue
// per site) and a cloud deployment (k·m servers behind one load
// balancer), both fed by the *same* request trace so comparisons are
// paired exactly as in the paper's experiments (the cloud "sees the
// cumulative request rate of the edge sites", §4.2).
package cluster

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/internal/app"
	"repro/internal/dist"
	"repro/internal/workload"
)

// RequestRecord is one client request: when it was issued, which edge
// site is its home, and how much compute it demands.
type RequestRecord struct {
	Time        float64 // generation time at the client, seconds
	Site        int     // home edge site
	ServiceTime float64 // execution time on the reference server, seconds
}

// WorkloadTrace is a time-ordered sequence of requests. The same trace
// drives both the edge and the cloud deployment of an experiment.
type WorkloadTrace struct {
	Records []RequestRecord
	Sites   int
}

// Duration returns the span from first to last request.
func (w *WorkloadTrace) Duration() float64 {
	if len(w.Records) == 0 {
		return 0
	}
	return w.Records[len(w.Records)-1].Time - w.Records[0].Time
}

// Len returns the number of requests.
func (w *WorkloadTrace) Len() int { return len(w.Records) }

// TotalRate returns the average aggregate request rate.
func (w *WorkloadTrace) TotalRate() float64 {
	d := w.Duration()
	if d <= 0 {
		return 0
	}
	return float64(len(w.Records)-1) / d
}

// SiteRates returns the average per-site request rates.
func (w *WorkloadTrace) SiteRates() []float64 {
	rates := make([]float64, w.Sites)
	d := w.Duration()
	if d <= 0 {
		return rates
	}
	for _, r := range w.Records {
		rates[r.Site]++
	}
	for i := range rates {
		rates[i] /= d
	}
	return rates
}

// MeanServiceTime returns the average service demand across the trace.
func (w *WorkloadTrace) MeanServiceTime() float64 {
	if len(w.Records) == 0 {
		return 0
	}
	var sum float64
	for _, r := range w.Records {
		sum += r.ServiceTime
	}
	return sum / float64(len(w.Records))
}

// GenSpec describes how to synthesize a workload trace.
type GenSpec struct {
	Sites       int
	Duration    float64 // seconds of workload to generate
	PerSiteRate float64 // arrival rate per site (req/s), used when Arrivals is nil
	ArrivalSCV  float64 // squared CoV of per-site inter-arrivals (default DefaultArrivalSCV)
	Model       app.InferenceModel
	Seed        int64
	// Arrivals optionally supplies one arrival process per site,
	// overriding PerSiteRate/ArrivalSCV (e.g. NHPP trace envelopes).
	Arrivals []workload.ArrivalProcess
	// PiecewiseEnvelope switches every NHPP arrival process to exact
	// per-segment simulation instead of thinning against the envelope
	// maximum — orders of magnitude fewer random draws on spiky
	// envelopes. The generated process is still exactly the envelope's
	// NHPP (gated by distributional KS tests), but it consumes random
	// streams differently, so traces generated with and without the
	// flag are NOT bit-identical to each other. Generate, Stream and
	// ParallelStream all honor it and remain bit-identical to one
	// another for either setting. Non-NHPP processes are unaffected.
	PiecewiseEnvelope bool
}

// DefaultArrivalSCV is the squared CoV of the load generator's
// inter-arrival times. The paper's Gatling generator issues a fixed
// number of requests each second, which is substantially more regular
// than Poisson; together with app.DefaultServiceSCV this calibrates the
// simulator to the paper's measured crossover points (see EXPERIMENTS.md).
const DefaultArrivalSCV = 0.4

// Validate reports the first field that cannot produce a workload.
// PerSiteRate and ArrivalSCV are checked only when Arrivals is nil,
// since explicit processes override them.
func (spec GenSpec) Validate() error {
	scv := spec.ArrivalSCV
	switch {
	case spec.Sites <= 0:
		return fmt.Errorf("cluster: GenSpec.Sites must be positive, got %d", spec.Sites)
	case !positiveFinite(spec.Duration):
		return fmt.Errorf("cluster: GenSpec.Duration must be positive and finite, got %v", spec.Duration)
	case spec.Arrivals != nil && len(spec.Arrivals) != spec.Sites:
		return fmt.Errorf("cluster: %d arrival processes for %d sites", len(spec.Arrivals), spec.Sites)
	case spec.Arrivals != nil:
		return nil
	case !positiveFinite(spec.PerSiteRate):
		return fmt.Errorf("cluster: GenSpec needs a positive finite PerSiteRate or Arrivals, got rate %v", spec.PerSiteRate)
	case scv < 0 || math.IsNaN(scv) || math.IsInf(scv, 0):
		return fmt.Errorf("cluster: GenSpec.ArrivalSCV must be finite and >= 0, got %v", scv)
	}
	return nil
}

// positiveFinite rejects NaN as well: ordered comparisons are false for
// NaN, so "x <= 0" alone would accept a NaN duration and generate
// forever.
func positiveFinite(x float64) bool { return x > 0 && !math.IsInf(x, 1) }

// deriveArrivals validates the spec, defaults its model in place, and
// returns the per-site arrival processes. Shared by Generate and
// Stream so the two paths cannot drift apart — their bit-identical
// guarantee starts here. An invalid spec panics with Validate's error:
// callers taking user input call Validate first.
func deriveArrivals(spec *GenSpec) []workload.ArrivalProcess {
	if err := spec.Validate(); err != nil {
		panic(err)
	}
	if spec.Model.D == nil {
		spec.Model = app.NewInferenceModel()
	}
	procs := spec.Arrivals
	if procs == nil {
		scv := spec.ArrivalSCV
		if scv == 0 {
			scv = DefaultArrivalSCV
		}
		procs = make([]workload.ArrivalProcess, spec.Sites)
		for i := range procs {
			procs[i] = workload.NewRenewal(dist.FitSCV(1/spec.PerSiteRate, scv))
		}
	}
	if spec.PiecewiseEnvelope {
		// Flip NHPP processes to piecewise on private copies: the
		// caller's slice stays untouched, so concurrent range-restricted
		// derivations (parallel generation workers share one spec value)
		// never write to a shared process.
		flipped := make([]workload.ArrivalProcess, len(procs))
		for i, p := range procs {
			if nh, ok := p.(*workload.NHPP); ok && !nh.Piecewise {
				pc := *nh
				pc.Piecewise = true
				flipped[i] = &pc
			} else {
				flipped[i] = p
			}
		}
		procs = flipped
	}
	return procs
}

// siteSeeds derives each site's (arrival, service) stream seeds from
// the spec seed: the master stream hands every site an arrival seed
// then a service seed, in site order. This derivation order is part of
// the reproducibility contract Generate and Stream share. Seeds are
// cheap (16 bytes/site where a constructed rand.Rand costs ~5KB), so
// range-restricted consumers derive all seeds and construct generators
// only for the sites they replay.
func siteSeeds(seed int64, sites int) (arrSeed, svcSeed []int64) {
	rng := rand.New(rand.NewSource(seed))
	arrSeed = make([]int64, sites)
	svcSeed = make([]int64, sites)
	for i := 0; i < sites; i++ {
		arrSeed[i] = rng.Int63()
		svcSeed[i] = rng.Int63()
	}
	return arrSeed, svcSeed
}

// siteStreams constructs every site's random streams from siteSeeds.
func siteStreams(seed int64, sites int) (arr, svc []*rand.Rand) {
	arrSeed, svcSeed := siteSeeds(seed, sites)
	arr = make([]*rand.Rand, sites)
	svc = make([]*rand.Rand, sites)
	for i := 0; i < sites; i++ {
		arr[i] = rand.New(rand.NewSource(arrSeed[i]))
		svc[i] = rand.New(rand.NewSource(svcSeed[i]))
	}
	return arr, svc
}

// Generate synthesizes a workload trace: per-site renewal (or supplied)
// arrival streams merged into one time-ordered record list, each request
// carrying a service time drawn from the inference model.
func Generate(spec GenSpec) *WorkloadTrace {
	procs := deriveArrivals(&spec)
	arrRng, svcRng := siteStreams(spec.Seed, spec.Sites)
	var recs []RequestRecord
	for site, p := range procs {
		t := 0.0
		for {
			next, ok := p.Next(t, arrRng[site])
			if !ok || next > spec.Duration {
				break
			}
			t = next
			recs = append(recs, RequestRecord{
				Time:        t,
				Site:        site,
				ServiceTime: spec.Model.SampleServiceTime(svcRng[site]),
			})
		}
	}
	// Stable sort so records tying on (Time, Site) — batch arrivals fire
	// several same-instant requests at one site — keep their per-site
	// generation order. Stream produces the same sequence by a stable
	// k-way merge, so the two paths are bit-identical for every spec.
	sort.SliceStable(recs, func(i, j int) bool { return lessTimeSite(recs[i], recs[j]) })
	return &WorkloadTrace{Records: recs, Sites: spec.Sites}
}

// lessTimeSite is the record ordering every materialized path shares —
// and the key Stream's k-way merge reproduces — so it lives in exactly
// one place.
func lessTimeSite(a, b RequestRecord) bool {
	if a.Time != b.Time {
		return a.Time < b.Time
	}
	return a.Site < b.Site
}

// FromRecords builds a trace directly from records (e.g. decoded from a
// CSV trace file). Records are stably sorted by (Time, Site) — the same
// ordering invariant Generate and Stream maintain, so same-instant
// records at one site keep their given order.
func FromRecords(recs []RequestRecord, sites int) *WorkloadTrace {
	sorted := append([]RequestRecord(nil), recs...)
	sort.SliceStable(sorted, func(i, j int) bool { return lessTimeSite(sorted[i], sorted[j]) })
	return &WorkloadTrace{Records: sorted, Sites: sites}
}
