package main

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"math"

	"repro/internal/admit"
	"repro/internal/app"
	"repro/internal/cluster"
	"repro/internal/experiments"
	"repro/internal/netem"
	"repro/internal/stats"
	"repro/internal/trace"
)

// Input sizes. Each replay takes roughly one second of host time on a
// 2-CPU Xeon, so one run fits a warm-up plus a few timed replays per
// worker process.
const (
	// boundedDuration: 5 edge sites × 11 req/s × 10000 s ≈ 550k requests.
	boundedDuration = 10000
	// shardedDuration: 5 edge sites × 11 req/s × 18000 s ≈ 990k requests.
	shardedDuration = 18000
	// azureMinutes × azureBaseLoad: a 5-site envelope at 300 req/min per
	// median site over 10 h ≈ 900k requests.
	azureMinutes  = 600
	azureBaseLoad = 300
	// warmupS is the simulated warm-up prefix of the bounded workloads
	// (the CLI's default), so the warm-up-discard path of the
	// conservation identity is exercised.
	warmupS = 60
	// perSiteRate puts each one-server edge site at 11/13 ≈ 0.85
	// utilization, the regime where the paper sees the edge invert.
	perSiteRate = 11
	// timelineBin is Figure 9's one-minute latency bin.
	timelineBin = 60
	// shards is the sharded workload's engine count (nproc on the
	// reference box).
	shards = 2
)

// shardedAdmission is the sharded workload's entry-tier policy: per-site
// token buckets refilling slightly faster than the mean arrival rate,
// so only bursts are turned away (about 1% of requests).
var shardedAdmission = admit.Spec{Policy: admit.TokenBucket, Rate: 12, Burst: 6}

// workload is one seeded benchmark input and the replay it drives.
type workload struct {
	name  string
	setup func(seed int64) (instance, error)
}

var workloads = []workload{
	{"bounded-stream", newBoundedStream},
	{"azure-exact", newAzureExact},
	{"sharded-bounded", newShardedBounded},
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// replayOut is one replay's results and its read-out.
type replayOut struct {
	requests uint64
	results  []*cluster.TopologyResult
	// p95/p99 are the read-out tail quantiles of the first variant's
	// end-to-end latency, in seconds.
	p95, p99 float64
	// sourceLayer names the layer behind the replay's Source: "gen" for
	// the generator, "trace" for the .etb decoder.
	sourceLayer string
	// backlog is the pipelined replay's peak boundary backlog.
	backlog int
	// Filled on traced replays only.
	root     span
	sources  []interval
	reportNS int64
	detectNS int64
}

// instance is a workload set up for one seed.
type instance interface {
	// replay runs one replay plus its result read-out. With a tracer it
	// records spans around the source, the replay and the read-out.
	replay(tr *tracer) (*replayOut, error)
	// crossCheck replays the same records through a reference path and
	// returns the checks the replay failed (untimed). With withAccuracy it
	// also measures the read-out's error against exact quantiles.
	crossCheck(out *replayOut, withAccuracy bool) (failures []string, acc accuracy, err error)
	// layers drives each layer in isolation with the workload's own
	// records and latencies (traced runs only).
	layers(out *replayOut, acc accuracy, seed int64) (map[string]float64, []layerCost, error)
	// warmup is the simulated warm-up prefix the replay discards.
	warmup() float64
}

// accuracy compares bounded read-outs with exact quantiles of the same
// records.
type accuracy struct {
	p95RelErr, p99RelErr float64 // the workload's own read-out vs exact
	serialP99RelErr      float64 // serial P² vs exact (bounded workloads)
	latencies            []float64
	peakPending          int
}

// readout reads the quantiles a user of the results would print: the
// run's median, p95 and p99 and each tier's p95 and p99. Exact digests
// sort their retained samples here.
func readout(results []*cluster.TopologyResult) (p95, p99 float64) {
	for i, r := range results {
		_ = r.EndToEnd.Median()
		a, b := r.EndToEnd.P95(), r.EndToEnd.P99()
		if i == 0 {
			p95, p99 = a, b
		}
		for t := range r.Tiers {
			_ = r.Tiers[t].EndToEnd.P95()
			_ = r.Tiers[t].EndToEnd.P99()
		}
	}
	return p95, p99
}

// tracedReadout wraps readout in a stats.report span.
func tracedReadout(tr *tracer, parent int, out *replayOut) {
	if tr == nil {
		out.p95, out.p99 = readout(out.results)
		return
	}
	id := tr.begin("stats.report", parent)
	out.p95, out.p99 = readout(out.results)
	out.reportNS = tr.end(id).dur()
}

// conservation checks one result's books: every offered request is
// consumed; the per-tier counters sum to the run's; offered = served +
// dropped + rejected + warm-up-discarded, with nothing discarded when
// there is no warm-up; every served request has one latency.
func conservation(r *cluster.TopologyResult, warmup float64) []string {
	var fails []string
	bad := func(format string, a ...any) {
		fails = append(fails, fmt.Sprintf("%s: ", r.Label)+fmt.Sprintf(format, a...))
	}
	if r.Offered == 0 {
		bad("no requests offered")
	}
	if r.Offered != r.Consumed {
		bad("offered %d != consumed %d", r.Offered, r.Consumed)
	}
	var served, dropped, rejected uint64
	for _, t := range r.Tiers {
		served += t.Served
		dropped += t.Dropped
		rejected += t.Rejected
		if uint64(t.EndToEnd.N()) != t.Served {
			bad("tier %s: %d latencies for %d served", t.Name, t.EndToEnd.N(), t.Served)
		}
	}
	if served != r.Completed || dropped != r.Dropped || rejected != r.Rejected {
		bad("tier sums served/dropped/rejected %d/%d/%d != run %d/%d/%d",
			served, dropped, rejected, r.Completed, r.Dropped, r.Rejected)
	}
	if uint64(r.EndToEnd.N()) != r.Completed {
		bad("%d latencies for %d served", r.EndToEnd.N(), r.Completed)
	}
	measured := r.Completed + r.Dropped + r.Rejected
	switch {
	case measured > r.Offered:
		bad("served+dropped+rejected %d exceeds offered %d", measured, r.Offered)
	case warmup == 0 && measured != r.Offered:
		bad("no warm-up, but served+dropped+rejected %d != offered %d", measured, r.Offered)
	}
	return fails
}

// tierCounters lists every per-tier counter of a result, for the
// shard-invariance and cross-mode comparisons.
func tierCounters(r *cluster.TopologyResult) []string {
	out := []string{fmt.Sprintf("run offered=%d consumed=%d completed=%d dropped=%d rejected=%d",
		r.Offered, r.Consumed, r.Completed, r.Dropped, r.Rejected)}
	for _, t := range r.Tiers {
		arr := make([]uint64, len(t.Sites))
		for i, s := range t.Sites {
			arr[i] = s.Arrivals
		}
		out = append(out, fmt.Sprintf("tier %s served=%d spilled=%d dropped=%d rejected=%d ups=%d downs=%d peak=%d final=%v arrivals=%v",
			t.Name, t.Served, t.Spilled, t.Dropped, t.Rejected, t.ScaleUps, t.ScaleDowns, t.PeakServers, t.FinalServers, arr))
	}
	return out
}

// compareCounters reports every per-tier counter line that differs.
func compareCounters(what string, got, want *cluster.TopologyResult) []string {
	g, w := tierCounters(got), tierCounters(want)
	var fails []string
	if len(g) != len(w) {
		return []string{fmt.Sprintf("%s: %d tiers vs %d", what, len(g)-1, len(w)-1)}
	}
	for i := range g {
		if g[i] != w[i] {
			fails = append(fails, fmt.Sprintf("%s: %q vs %q", what, g[i], w[i]))
		}
	}
	return fails
}

// fingerprint hashes a result's counters and digest summaries, so
// replays of one input can be compared bit for bit across processes.
func fingerprint(results []*cluster.TopologyResult) string {
	h := fnv.New64a()
	digest := func(d *stats.Digest) {
		fmt.Fprintf(h, "%d %x %x %x %x;", d.N(), math.Float64bits(d.Mean()),
			math.Float64bits(d.Min()), math.Float64bits(d.Max()), math.Float64bits(d.P99()))
	}
	for _, r := range results {
		for _, line := range tierCounters(r) {
			fmt.Fprintln(h, line)
		}
		digest(&r.EndToEnd)
		digest(&r.Wait)
		for i := range r.Tiers {
			digest(&r.Tiers[i].EndToEnd)
			for j := range r.Tiers[i].Sites {
				digest(&r.Tiers[i].Sites[j].EndToEnd)
				digest(&r.Tiers[i].Sites[j].Wait)
			}
		}
		if r.Timeline != nil {
			for i := 0; i < r.Timeline.NumBins(); i++ {
				fmt.Fprintf(h, "%d %x;", r.Timeline.BinCount(i), math.Float64bits(r.Timeline.BinMean(i)))
			}
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// exactReference replays src in exact mode: the reference the bounded
// read-outs are compared with. It also reports the event-calendar peak
// seen through Options.Probe.
func exactReference(src cluster.Source, topo cluster.Topology, opts cluster.Options) (*cluster.TopologyResult, int, error) {
	opts.Summary = stats.Exact
	opts.Pipeline = false
	var peak int
	opts.Probe = func(p int) { peak = max(peak, p) }
	ex, err := cluster.Run(src, topo, opts)
	if err != nil {
		return nil, 0, fmt.Errorf("exact reference replay: %w", err)
	}
	return ex, peak, nil
}

// shuffled returns the latencies in a seeded random order: a retained
// sample is sorted at read-out, so arrival order is gone, and sorted
// input would drive the P² estimators unlike a replay does.
func shuffled(xs []float64, seed int64) []float64 {
	out := append([]float64(nil), xs...)
	rng := newRand(seed)
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// boundedStream: a serial replay of edge-regional-cloud from the lazy
// generator, in bounded summaries.
type boundedStream struct {
	spec cluster.GenSpec
	topo cluster.Topology
	opts cluster.Options
}

func newBoundedStream(seed int64) (instance, error) {
	topo, ok := cluster.PresetTopology("edge-regional-cloud")
	if !ok {
		return nil, fmt.Errorf("preset edge-regional-cloud missing")
	}
	return &boundedStream{
		spec: cluster.GenSpec{Sites: topo.Tiers[0].Sites, Duration: boundedDuration,
			PerSiteRate: perSiteRate, Seed: seed},
		topo: topo,
		opts: cluster.Options{Seed: seed + 1, Warmup: warmupS, Summary: stats.Bounded},
	}, nil
}

func (b *boundedStream) warmup() float64 { return b.opts.Warmup }

func (b *boundedStream) replay(tr *tracer) (*replayOut, error) {
	return serialReplay(tr, cluster.Stream(b.spec), b.topo, b.opts, expectedRecords(b.spec))
}

// serialReplay runs cluster.Run over src, with a cluster.run span and a
// gen.next span per source call when traced.
func serialReplay(tr *tracer, src cluster.Source, topo cluster.Topology, opts cluster.Options, hint int) (*replayOut, error) {
	out := &replayOut{sourceLayer: "gen"}
	var root int
	var ts *timedSource
	if tr != nil {
		ts = newTimedSource(tr, "gen.next", src, hint)
		src = ts
		root = tr.begin("cluster.run", 0)
	}
	res, err := cluster.Run(src, topo, opts)
	if tr != nil {
		out.root = tr.end(root)
		out.sources = ts.h.ivs
	}
	if err != nil {
		return nil, err
	}
	out.results = []*cluster.TopologyResult{res}
	out.requests = res.Offered
	tracedReadout(tr, root, out)
	return out, nil
}

func (b *boundedStream) crossCheck(out *replayOut, withAccuracy bool) ([]string, accuracy, error) {
	if !withAccuracy {
		return nil, accuracy{}, nil
	}
	ex, peak, err := exactReference(cluster.Stream(b.spec), b.topo, b.opts)
	if err != nil {
		return nil, accuracy{}, err
	}
	acc := accuracy{
		p95RelErr:   relErr(out.p95, ex.EndToEnd.P95()),
		p99RelErr:   relErr(out.p99, ex.EndToEnd.P99()),
		latencies:   shuffled(ex.EndToEnd.Values(), b.spec.Seed),
		peakPending: peak,
	}
	acc.serialP99RelErr = acc.p99RelErr
	// The summary mode changes how latencies are kept, never what
	// happens to a request.
	return compareCounters("bounded vs exact", out.results[0], ex), acc, nil
}

func (b *boundedStream) layers(out *replayOut, acc accuracy, seed int64) (map[string]float64, []layerCost, error) {
	recs := cluster.Generate(b.spec).Records
	m := genLayers(recs, seed)
	costs := commonLayers(m, out, acc, recs, b.topo.Tiers[0].Sites, stats.Bounded, 1, seed)
	return m, costs, nil
}

// expectedRecords is the generator's mean record count, a capacity hint.
func expectedRecords(spec cluster.GenSpec) int {
	return int(float64(spec.Sites)*spec.PerSiteRate*spec.Duration*1.05) + 1024
}

// azureExact: the synthetic Azure envelope compiled to an in-memory .etb
// and replayed, decoded once, into an edge and a pooled-cloud variant.
type azureExact struct {
	spec     cluster.GenSpec
	etb      []byte
	records  int
	variants []cluster.Variant
}

func azureGenSpec(seed int64) cluster.GenSpec {
	az := trace.DefaultAzureSpec()
	az.Minutes = azureMinutes
	az.BaseLoad = azureBaseLoad
	az.Seed = seed
	series := trace.GenerateAzure(az)
	return cluster.GenSpec{
		Sites:    az.Sites,
		Duration: float64(az.Minutes) * 60,
		Model:    app.NewInferenceModel(),
		Seed:     seed,
		Arrivals: trace.ToArrivalProcesses(series, false),
	}
}

func newAzureExact(seed int64) (instance, error) {
	spec := azureGenSpec(seed)
	var buf bytes.Buffer
	n, err := trace.WriteBinary(&buf, cluster.Stream(spec))
	if err != nil {
		return nil, fmt.Errorf("compile .etb: %w", err)
	}
	sc, ok := netem.ScenarioByName("typical-25ms")
	if !ok {
		return nil, fmt.Errorf("scenario typical-25ms missing")
	}
	opts := func(s int64) cluster.Options {
		return cluster.Options{Seed: s, TimelineBin: timelineBin, Summary: stats.Exact, SizeHint: n}
	}
	return &azureExact{
		spec:    spec,
		etb:     buf.Bytes(),
		records: n,
		variants: []cluster.Variant{
			{Label: "edge", Opts: opts(seed + 1), Topology: cluster.EdgeTopology(cluster.EdgeConfig{
				Sites: spec.Sites, ServersPerSite: 1, Path: sc.Edge})},
			{Label: "cloud", Opts: opts(seed + 2), Topology: cluster.CloudTopology(cluster.CloudConfig{
				Servers: spec.Sites, Path: sc.Cloud, Policy: cluster.CentralQueue})},
		},
	}, nil
}

func (a *azureExact) warmup() float64 { return 0 }

func (a *azureExact) replay(tr *tracer) (*replayOut, error) {
	out := &replayOut{sourceLayer: "trace"}
	var src cluster.Source = trace.StreamBinary(bytes.NewReader(a.etb))
	var root int
	var ts *timedSource
	if tr != nil {
		ts = newTimedSource(tr, "trace.next", src, a.records+1)
		src = ts
		root = tr.begin("cluster.broadcast", 0)
	}
	results, err := cluster.RunBroadcast(src, a.variants, 0)
	if tr != nil {
		out.root = tr.end(root)
		out.sources = ts.h.ivs
	}
	if err != nil {
		return nil, err
	}
	out.results = results
	out.requests = results[0].Offered
	tracedReadout(tr, root, out)
	detect := func() {
		_ = experiments.DetectInversions(results[0].Timeline, results[1].Timeline)
		_, _ = experiments.InversionFraction(results[0].Timeline, results[1].Timeline)
	}
	if tr == nil {
		detect()
	} else {
		id := tr.begin("experiments.detect", root)
		detect()
		out.detectNS = tr.end(id).dur()
	}
	return out, nil
}

func (a *azureExact) crossCheck(out *replayOut, withAccuracy bool) ([]string, accuracy, error) {
	if int(out.requests) != a.records {
		return []string{fmt.Sprintf("decoded %d records, compiled %d", out.requests, a.records)}, accuracy{}, nil
	}
	tr := cluster.Generate(a.spec)
	mem, err := cluster.RunBroadcast(tr.Source(), a.variants, 0)
	if err != nil {
		return nil, accuracy{}, fmt.Errorf("in-memory reference replay: %w", err)
	}
	var fails []string
	for i := range mem {
		fails = append(fails, compareCounters(".etb vs in-memory "+a.variants[i].Label, out.results[i], mem[i])...)
	}
	if g, w := fingerprint(out.results), fingerprint(mem); g != w {
		fails = append(fails, fmt.Sprintf(".etb vs in-memory: digest fingerprint %s vs %s", g, w))
	}
	if !withAccuracy {
		return fails, accuracy{}, nil
	}
	var lat []float64
	for _, r := range out.results {
		lat = append(lat, r.EndToEnd.Values()...)
	}
	return fails, accuracy{latencies: shuffled(lat, a.spec.Seed)}, nil
}

func (a *azureExact) layers(out *replayOut, acc accuracy, seed int64) (map[string]float64, []layerCost, error) {
	tr, err := trace.ReadBinary(bytes.NewReader(a.etb))
	if err != nil {
		return nil, nil, fmt.Errorf("decode .etb: %w", err)
	}
	// The calendar peak of the edge variant, the one that queues.
	opts := a.variants[0].Opts
	opts.Probe = func(p int) { acc.peakPending = max(acc.peakPending, p) }
	if _, err := cluster.Run(tr.Source(), a.variants[0].Topology, opts); err != nil {
		return nil, nil, fmt.Errorf("probe replay: %w", err)
	}
	fanNS := fanProbe(tr.Records, len(a.variants))
	m := map[string]float64{
		"trace.bytes_per_rec":   float64(len(a.etb)) / float64(a.records),
		"fan.ns_per_rec":        fanNS,
		"experiments.detect_ms": float64(out.detectNS) / 1e6,
	}
	costs := commonLayers(m, out, acc, tr.Records, a.spec.Sites, stats.Exact, len(a.variants), seed)
	return m, append(costs, layerCost{"fan", fanNS, 1}), nil
}

// shardedBounded: hetero-paths with token-bucket admission at the edge,
// replayed by the pipelined backend on two shards in bounded summaries.
type shardedBounded struct {
	spec cluster.GenSpec
	topo cluster.Topology
	opts cluster.Options
}

func newShardedBounded(seed int64) (instance, error) {
	topo, ok := cluster.PresetTopology("hetero-paths")
	if !ok {
		return nil, fmt.Errorf("preset hetero-paths missing")
	}
	adm := shardedAdmission
	topo.Tiers[0].Admission = &adm
	if err := cluster.Shardable(topo); err != nil {
		return nil, err
	}
	return &shardedBounded{
		spec: cluster.GenSpec{Sites: topo.Tiers[0].Sites, Duration: shardedDuration,
			PerSiteRate: perSiteRate, Seed: seed},
		topo: topo,
		opts: cluster.Options{Seed: seed + 1, Warmup: warmupS, Summary: stats.Bounded, Pipeline: true},
	}, nil
}

func (s *shardedBounded) warmup() float64 { return s.opts.Warmup }

func (s *shardedBounded) replay(tr *tracer) (*replayOut, error) {
	out := &replayOut{sourceLayer: "gen"}
	var src cluster.ShardedSource = cluster.GenShards(s.spec)
	opts := s.opts
	opts.BacklogProbe = func(p int) { out.backlog = p }
	var root int
	if tr != nil {
		src = timedShards{inner: src, tr: tr, hint: expectedRecords(s.spec)}
		root = tr.begin("cluster.pipelined", 0)
	}
	res, err := cluster.RunPipelined(src, s.topo, opts, shards)
	if tr != nil {
		out.root = tr.end(root)
		out.sources = hotIntervals(tr.hotNamed("gen.next"))
	}
	if err != nil {
		return nil, err
	}
	out.results = []*cluster.TopologyResult{res}
	out.requests = res.Offered
	tracedReadout(tr, root, out)
	return out, nil
}

// crossCheck holds the replay to the shard-invariance contract: a
// one-shard replay of the same records yields bit-identical results.
// (A serial cluster.Run draws network latencies from one stream rather
// than per site, so it is not the reference; see RATIONALE.md.) The
// accuracy reference is the same sharded replay in exact mode.
func (s *shardedBounded) crossCheck(out *replayOut, withAccuracy bool) ([]string, accuracy, error) {
	opts := s.opts
	opts.Pipeline = false
	one, err := cluster.RunSharded(cluster.GenShards(s.spec), s.topo, opts, 1)
	if err != nil {
		return nil, accuracy{}, fmt.Errorf("one-shard reference replay: %w", err)
	}
	fails := compareCounters("2 shards vs 1", out.results[0], one)
	if g, w := fingerprint(out.results), fingerprint([]*cluster.TopologyResult{one}); g != w {
		fails = append(fails, fmt.Sprintf("2 shards vs 1: digest fingerprint %s vs %s", g, w))
	}
	if !withAccuracy {
		return fails, accuracy{}, nil
	}
	opts.Summary = stats.Exact
	ex, err := cluster.RunSharded(cluster.GenShards(s.spec), s.topo, opts, 1)
	if err != nil {
		return nil, accuracy{}, fmt.Errorf("exact reference replay: %w", err)
	}
	// Serial P² on the same records, against the serial exact replay.
	opts.Summary = stats.Bounded
	serial, err := cluster.Run(cluster.Stream(s.spec), s.topo, opts)
	if err != nil {
		return nil, accuracy{}, fmt.Errorf("serial reference replay: %w", err)
	}
	serialEx, peak, err := exactReference(cluster.Stream(s.spec), s.topo, opts)
	if err != nil {
		return nil, accuracy{}, err
	}
	acc := accuracy{
		p95RelErr:       relErr(out.p95, ex.EndToEnd.P95()),
		p99RelErr:       relErr(out.p99, ex.EndToEnd.P99()),
		serialP99RelErr: relErr(serial.EndToEnd.P99(), serialEx.EndToEnd.P99()),
		latencies:       shuffled(ex.EndToEnd.Values(), s.spec.Seed),
		peakPending:     peak,
	}
	return fails, acc, nil
}

func (s *shardedBounded) layers(out *replayOut, acc accuracy, seed int64) (map[string]float64, []layerCost, error) {
	recs := cluster.Generate(s.spec).Records
	m := genLayers(recs, seed)
	r := out.results[0]
	mergeNS := groupProbe(recs, s.spec.Sites, shards)
	admitNS := admitProbe(*s.topo.Tiers[0].Admission, s.spec.Sites, recs)
	m["merge.ns_per_rec"] = mergeNS
	m["merge.peak_backlog"] = float64(out.backlog)
	m["admit.ns_per_decision"] = admitNS
	m["admit.reject_frac"] = float64(r.Rejected) / float64(r.Offered)
	var events int
	for _, t := range r.Tiers {
		events += t.ScaleUps + t.ScaleDowns
	}
	m["autoscale.scale_events"] = float64(events)
	m["stats.merge_ns"] = mergeProbe(r.Tiers[0].Sites)
	costs := commonLayers(m, out, acc, recs, s.spec.Sites, stats.Bounded, 1, seed)
	var spilled uint64
	for _, t := range r.Tiers {
		spilled += t.Spilled
	}
	// Only requests that leave their shard cross the boundary merge.
	costs = append(costs,
		layerCost{"merge", mergeNS, float64(spilled) / float64(r.Offered)},
		layerCost{"admit", admitNS, 1})
	return m, costs, nil
}
