package main

import (
	"math/rand"
	"sync"
	"time"

	"repro/internal/admit"
	"repro/internal/app"
	"repro/internal/cluster"
	"repro/internal/merge"
	"repro/internal/queue"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Each probe below calls one module's public functions with the
// workload's own records, event times or latencies, and returns the host
// nanoseconds per call. They run after the timed replays, one at a time.

// sinkF and sinkN keep the probes' results alive, so the compiler cannot
// drop the measured calls.
var (
	sinkF float64
	sinkN int
)

func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

func nsPer(d time.Duration, n int) float64 {
	if n == 0 {
		return 0
	}
	return float64(d.Nanoseconds()) / float64(n)
}

// timedSource wraps a Source with one interval per Next call.
type timedSource struct {
	src cluster.Source
	tr  *tracer
	h   *hotSpans
}

func newTimedSource(tr *tracer, name string, src cluster.Source, hint int) *timedSource {
	h := tr.newHot(name)
	h.ivs = make([]interval, 0, hint)
	return &timedSource{src: src, tr: tr, h: h}
}

func (s *timedSource) Next() (cluster.RequestRecord, bool) {
	t0 := s.tr.now()
	rec, ok := s.src.Next()
	s.h.ivs = append(s.h.ivs, interval{t0, s.tr.now()})
	return rec, ok
}

// Err forwards a decoder failure, so the replay still surfaces it.
func (s *timedSource) Err() error {
	if fs, ok := s.src.(cluster.FallibleSource); ok {
		return fs.Err()
	}
	return nil
}

// timedShards wraps every shard source of a sharded workload.
type timedShards struct {
	inner cluster.ShardedSource
	tr    *tracer
	hint  int
}

func (s timedShards) Sites() int { return s.inner.Sites() }

func (s timedShards) Shard(lo, hi int) cluster.Source {
	return newTimedSource(s.tr, "gen.next", s.inner.Shard(lo, hi), s.hint)
}

// distProbe times the inference model's public Sample, once per record.
func distProbe(n int, seed int64) float64 {
	model := app.NewInferenceModel()
	rng := newRand(seed)
	var sink float64
	t0 := time.Now()
	for i := 0; i < n; i++ {
		sink += model.D.Sample(rng)
	}
	d := time.Since(t0)
	sinkF = sink
	return nsPer(d, n)
}

// fifoDepartures returns each record's departure time from a one-server
// FIFO station per site, the event times a replay's calendar holds.
func fifoDepartures(recs []cluster.RequestRecord, sites int) []float64 {
	free := make([]float64, sites)
	out := make([]float64, len(recs))
	for i, r := range recs {
		start := max(r.Time, free[r.Site%sites])
		free[r.Site%sites] = start + r.ServiceTime
		out[i] = free[r.Site%sites]
	}
	return out
}

// simProbe drives sim.NewEngine/AtPayload/Run with the workload's
// arrival times and FIFO departure times: one pending arrival at a time,
// as the replay's feeder keeps it, and one departure per record.
func simProbe(recs []cluster.RequestRecord, sites int, seed int64) float64 {
	if len(recs) == 0 {
		return 0
	}
	dep := fifoDepartures(recs, sites)
	eng := sim.NewEngine(seed)
	depart := func(*sim.Engine, any) {}
	i := 0
	var arrive sim.PayloadEvent
	arrive = func(e *sim.Engine, _ any) {
		e.AtPayload(dep[i], depart, nil)
		i++
		if i < len(recs) {
			e.AtPayload(recs[i].Time, arrive, nil)
		}
	}
	t0 := time.Now()
	eng.AtPayload(recs[0].Time, arrive, nil)
	eng.Run()
	return nsPer(time.Since(t0), int(eng.Processed()))
}

// queueProbe feeds the records to one queue.Station per site on one
// engine and returns the wall time per record, the engine events per
// record, and the digest adds per record the stations made.
func queueProbe(recs []cluster.RequestRecord, sites int, mode stats.Mode, seed int64) (nsPerReq, eventsPerReq, addsPerReq float64) {
	if len(recs) == 0 {
		return 0, 0, 0
	}
	eng := sim.NewEngine(seed)
	pool := &queue.FreeList{}
	stations := make([]*queue.Station, sites)
	for i := range stations {
		stations[i] = queue.NewStation(eng, "site", 1, queue.FCFS)
		stations[i].SetSummaryMode(mode)
		stations[i].Recycle = pool
	}
	i := 0
	var arrive sim.Event
	arrive = func(e *sim.Engine) {
		r := recs[i]
		req := pool.Get()
		req.Site = r.Site
		req.Generated = r.Time
		req.ServiceTime = r.ServiceTime
		stations[r.Site%sites].Arrive(req)
		i++
		if i < len(recs) {
			e.At(recs[i].Time, arrive)
		}
	}
	t0 := time.Now()
	eng.At(recs[0].Time, arrive)
	eng.Run()
	for _, s := range stations {
		s.Finish()
	}
	d := time.Since(t0)
	var adds int
	for _, s := range stations {
		adds += s.Metrics().Wait.N() + s.Metrics().Sojourn.N()
	}
	n := float64(len(recs))
	return nsPer(d, len(recs)), float64(eng.Processed()) / n, float64(adds) / n
}

// statsAddProbe times Digest.Add in the workload's mode over the run's
// own latencies.
func statsAddProbe(lat []float64, mode stats.Mode) float64 {
	if len(lat) == 0 {
		return 0
	}
	d := stats.NewDigest(mode, len(lat))
	t0 := time.Now()
	for _, x := range lat {
		d.Add(x)
	}
	return nsPer(time.Since(t0), len(lat))
}

// mergeProbe times Digest.Merge of the entry tier's per-site bounded
// digests into one, repeated until it has run for a few milliseconds.
func mergeProbe(sites []cluster.SiteResult) float64 {
	if len(sites) == 0 {
		return 0
	}
	calls := 0
	t0 := time.Now()
	for time.Since(t0) < 20*time.Millisecond {
		agg := stats.NewDigest(stats.Bounded, 0)
		for i := range sites {
			agg.Merge(&sites[i].EndToEnd)
			calls++
		}
	}
	return nsPer(time.Since(t0), calls)
}

func lessRecord(a, b cluster.RequestRecord) bool {
	if a.Time != b.Time {
		return a.Time < b.Time
	}
	return a.Site < b.Site
}

func recordTime(r cluster.RequestRecord) float64 { return r.Time }

// groupProbe pushes the records through merge.NewGroup with one
// producer goroutine per contiguous site range (the sharded replay's
// partition) and one consumer, and returns wall time per record.
func groupProbe(recs []cluster.RequestRecord, sites, k int) float64 {
	const ring, batch = 4096, 64
	g := merge.NewGroup[cluster.RequestRecord](k, ring, lessRecord, recordTime)
	var wg sync.WaitGroup
	t0 := time.Now()
	for p := 0; p < k; p++ {
		lo, hi := p*sites/k, (p+1)*sites/k
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer g.Close(p)
			buf := make([]cluster.RequestRecord, 0, batch)
			flush := func() {
				if len(buf) > 0 {
					g.Push(p, buf)
					g.SetWatermark(p, buf[len(buf)-1].Time)
					buf = buf[:0]
				}
			}
			for _, r := range recs {
				if r.Site >= lo && r.Site < hi {
					buf = append(buf, r)
					if len(buf) == batch {
						flush()
					}
				}
			}
			flush()
		}()
	}
	n := 0
	dst := make([]cluster.RequestRecord, 0, 256)
	for {
		var ok bool
		dst, ok = g.NextBatch(dst[:0], 256)
		n += len(dst)
		if !ok {
			break
		}
	}
	wg.Wait()
	return nsPer(time.Since(t0), n)
}

// fanProbe publishes the records through merge.NewFan to k consumer
// goroutines and returns wall time per published record.
func fanProbe(recs []cluster.RequestRecord, k int) float64 {
	const ring, batch = 4096, 256
	f := merge.NewFan[cluster.RequestRecord](k, ring)
	var wg sync.WaitGroup
	t0 := time.Now()
	for c := 0; c < k; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			dst := make([]cluster.RequestRecord, 0, batch)
			for {
				var ok bool
				dst, ok = f.NextBatch(c, dst[:0], batch)
				if !ok {
					return
				}
			}
		}()
	}
	for i := 0; i < len(recs); i += batch {
		f.Publish(recs[i:min(i+batch, len(recs))])
	}
	f.CloseProducer()
	wg.Wait()
	return nsPer(time.Since(t0), len(recs))
}

// admitProbe times the admission policy's decision for every record at
// its arrival instant, keyed by home site.
func admitProbe(spec admit.Spec, sites int, recs []cluster.RequestRecord) float64 {
	p, err := admit.New(spec, sites)
	if err != nil || len(recs) == 0 {
		return 0
	}
	admitted := 0
	t0 := time.Now()
	for _, r := range recs {
		if p.Admit(r.Time, r.Site, 0, 0) {
			admitted++
		}
	}
	d := time.Since(t0)
	sinkN = admitted
	return nsPer(d, len(recs))
}

// addsPerReq counts the Digest.Add calls a replay made, from the digest
// counts its results expose: the run, tier, entry-site and class
// end-to-end digests, plus each station's Wait digest twice (its Sojourn
// twin is filled on the same completions but is not exported).
func addsPerReq(results []*cluster.TopologyResult, requests uint64) float64 {
	var adds int
	for _, r := range results {
		adds += r.EndToEnd.N()
		for _, t := range r.Tiers {
			adds += t.EndToEnd.N()
			for _, s := range t.Sites {
				adds += s.EndToEnd.N() + 2*s.Wait.N()
			}
			for _, c := range t.Classes {
				adds += c.EndToEnd.N()
			}
		}
	}
	return float64(adds) / float64(requests)
}

// genLayers are the generator-side probes of the two generated
// workloads.
func genLayers(recs []cluster.RequestRecord, seed int64) map[string]float64 {
	return map[string]float64{"dist.ns_per_sample": distProbe(len(recs), seed)}
}

// commonLayers fills the metrics every workload reports and returns the
// layer costs the unattributed share is computed from. variants is how
// many engines replay each record.
func commonLayers(m map[string]float64, out *replayOut, acc accuracy, recs []cluster.RequestRecord,
	sites int, mode stats.Mode, variants int, seed int64) []layerCost {
	req := float64(out.requests)
	v := float64(variants)
	var srcNS int64
	for _, iv := range out.sources {
		srcNS += iv.end - iv.start
	}
	srcPerRec := nsPer(time.Duration(srcNS), len(out.sources))
	m[out.sourceLayer+".ns_per_rec"] = srcPerRec
	m["cluster.self_ns_per_req"] = float64(selfTime(out.root, out.sources)) / req

	simNS := simProbe(recs, sites, seed)
	addNS := statsAddProbe(acc.latencies, mode)
	qNS, qEvents, qAdds := queueProbe(recs, sites, mode, seed)
	adds := addsPerReq(out.results, out.requests)
	m["sim.ns_per_event"] = simNS
	m["sim.peak_pending"] = float64(acc.peakPending)
	m["stats.ns_per_add"] = addNS
	m["stats.adds_per_req"] = adds
	m["queue.ns_per_req"] = qNS - qEvents*simNS - qAdds*addNS
	m["stats.report_s"] = float64(out.reportNS) / 1e9
	m["stats.p99_rel_err"] = acc.serialP99RelErr
	m["p95_rel_err"] = acc.p95RelErr
	m["p99_rel_err"] = acc.p99RelErr

	var served, spilled, dropped, rejected uint64
	for _, r := range out.results {
		served += r.Completed
		dropped += r.Dropped
		rejected += r.Rejected
		for _, t := range r.Tiers {
			spilled += t.Spilled
		}
	}
	m["requests"] = req
	m["served"] = float64(served)
	m["spilled"] = float64(spilled)
	m["dropped"] = float64(dropped)
	m["rejected"] = float64(rejected)
	m["cluster.spill_frac"] = float64(spilled) / (req * v)

	return []layerCost{
		{out.sourceLayer, srcPerRec, 1},
		{"sim", simNS, qEvents * v},
		{"queue", m["queue.ns_per_req"], v},
		{"stats.add", addNS, adds},
		{"stats.report", float64(out.reportNS), 1 / req},
		{"experiments.detect", float64(out.detectNS), 1 / req},
	}
}
