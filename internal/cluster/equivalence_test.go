package cluster

// The streaming replay core must be observationally identical to the
// seed's materialized runner, which scheduled one arrival event and one
// Done closure per trace record before starting the clock. The
// materialized runners below are verbatim ports of that seed code
// (adapted only to the Sink/Digest types); the tests assert the
// streaming path reproduces their results bit for bit on fixed traces.

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/autoscale"
	"repro/internal/lb"
	"repro/internal/netem"
	"repro/internal/queue"
	"repro/internal/sim"
	"repro/internal/stats"
)

// materializedRunEdge is the seed's RunEdge: full trace expansion into
// per-request events and closures up front.
func materializedRunEdge(tr *WorkloadTrace, cfg EdgeConfig) *Result {
	if cfg.Sites <= 0 {
		cfg.Sites = tr.Sites
	}
	if cfg.ServersPerSite <= 0 {
		cfg.ServersPerSite = 1
	}
	eng := sim.NewEngine(cfg.Seed)
	netRng := eng.NewStream()

	stations := make([]*queue.Station, cfg.Sites)
	servers := make([]queue.Server, cfg.Sites)
	for i := range stations {
		c := cfg.ServersPerSite
		if cfg.PerSiteServers != nil {
			c = cfg.PerSiteServers[i]
		}
		stations[i] = queue.NewStation(eng, fmt.Sprintf("edge-%d", i), c, cfg.Discipline)
		stations[i].QueueCap = cfg.QueueCap
		stations[i].SetWarmup(cfg.Warmup)
		servers[i] = stations[i]
	}

	var geo *lb.Geographic
	if cfg.JockeyThreshold > 0 {
		geo = lb.NewGeographic(servers, cfg.JockeyThreshold, cfg.DetourRTT, eng.NewStream())
	}

	res := &Result{Label: "edge"}
	if cfg.TimelineBin > 0 {
		res.Timeline = stats.NewTimeSeries(0, cfg.TimelineBin)
	}
	perSiteE2E := make([]stats.Digest, cfg.Sites)

	slow := cfg.SlowdownFactor
	if slow <= 0 {
		slow = 1
	}

	var nextID uint64
	for _, rec := range tr.Records {
		rtt := cfg.Path.Sample(netRng)
		nextID++
		req := &queue.Request{
			ID:          nextID,
			Site:        rec.Site,
			ServiceTime: rec.ServiceTime * slow,
			NetworkRTT:  rtt,
			Generated:   rec.Time,
			Done: queue.DoneFunc(func(e *sim.Engine, r *queue.Request) {
				if r.Departure < cfg.Warmup {
					return
				}
				if r.Dropped {
					res.Dropped++
					return
				}
				e2e := r.EndToEnd()
				res.EndToEnd.Add(e2e)
				perSiteE2E[r.Site].Add(e2e)
				res.Completed++
				if res.Timeline != nil {
					res.Timeline.Add(r.Generated, e2e)
				}
			}),
		}
		arriveAt := rec.Time + rtt/2
		eng.At(arriveAt, func(e *sim.Engine) {
			if geo != nil {
				geo.Dispatch(req)
			} else {
				stations[req.Site].Arrive(req)
			}
		})
	}

	res.Duration = eng.Run()
	for _, s := range stations {
		s.Finish()
	}
	if geo != nil {
		res.Redirected = geo.Redirected
	}

	var busySum, capSum float64
	for i, s := range stations {
		m := s.Metrics()
		res.Wait.Merge(&m.Wait)
		res.Sites = append(res.Sites, SiteResult{
			Site:        i,
			EndToEnd:    perSiteE2E[i],
			Wait:        m.Wait,
			Utilization: m.Utilization(s.Servers),
			Arrivals:    s.TotalArrivals(),
			MeanRate:    m.Arrivals.Rate(),
		})
		busySum += m.Busy.Average()
		capSum += float64(s.Servers)
	}
	if capSum > 0 {
		res.Utilization = busySum / capSum
	}
	return res
}

// materializedRunCloud is the seed's RunCloud.
func materializedRunCloud(tr *WorkloadTrace, cfg CloudConfig) *Result {
	if cfg.Policy == "" {
		cfg.Policy = CentralQueue
	}
	eng := sim.NewEngine(cfg.Seed)
	netRng := eng.NewStream()

	var stations []*queue.Station
	var dispatch func(r *queue.Request)
	switch cfg.Policy {
	case CentralQueue:
		st := queue.NewStation(eng, "cloud", cfg.Servers, cfg.Discipline)
		st.QueueCap = cfg.QueueCap
		st.SetWarmup(cfg.Warmup)
		stations = []*queue.Station{st}
		dispatch = st.Arrive
	default:
		stations = make([]*queue.Station, cfg.Servers)
		servers := make([]queue.Server, cfg.Servers)
		for i := range stations {
			stations[i] = queue.NewStation(eng, fmt.Sprintf("cloud-%d", i), 1, cfg.Discipline)
			stations[i].QueueCap = cfg.QueueCap
			stations[i].SetWarmup(cfg.Warmup)
			servers[i] = stations[i]
		}
		var d lb.Dispatcher
		switch cfg.Policy {
		case RoundRobin:
			d = lb.NewRoundRobin(servers)
		case LeastConn:
			d = lb.NewLeastConnections(servers, eng.NewStream())
		case PowerOfTwo:
			d = lb.NewPowerOfTwo(servers, eng.NewStream())
		case RandomSplit:
			d = lb.NewRandom(servers, eng.NewStream())
		}
		dispatch = d.Dispatch
	}

	res := &Result{Label: "cloud"}
	if cfg.TimelineBin > 0 {
		res.Timeline = stats.NewTimeSeries(0, cfg.TimelineBin)
	}

	var nextID uint64
	for _, rec := range tr.Records {
		rtt := cfg.Path.Sample(netRng)
		nextID++
		req := &queue.Request{
			ID:          nextID,
			Site:        -1,
			ServiceTime: rec.ServiceTime,
			NetworkRTT:  rtt,
			Generated:   rec.Time,
			Done: queue.DoneFunc(func(e *sim.Engine, r *queue.Request) {
				if r.Departure < cfg.Warmup {
					return
				}
				if r.Dropped {
					res.Dropped++
					return
				}
				e2e := r.EndToEnd()
				res.EndToEnd.Add(e2e)
				res.Completed++
				if res.Timeline != nil {
					res.Timeline.Add(r.Generated, e2e)
				}
			}),
		}
		eng.At(rec.Time+rtt/2, func(e *sim.Engine) { dispatch(req) })
	}

	res.Duration = eng.Run()
	var busySum, capSum float64
	for _, s := range stations {
		s.Finish()
		m := s.Metrics()
		res.Wait.Merge(&m.Wait)
		busySum += m.Busy.Average()
		capSum += float64(s.Servers)
	}
	if capSum > 0 {
		res.Utilization = busySum / capSum
	}
	res.Sites = []SiteResult{{Site: -1, EndToEnd: res.EndToEnd, Wait: res.Wait, Utilization: res.Utilization}}
	return res
}

// materializedRunOverflow is the seed's RunEdgeWithOverflow.
func materializedRunOverflow(tr *WorkloadTrace, cfg OverflowConfig) *OverflowResult {
	if cfg.Sites <= 0 {
		cfg.Sites = tr.Sites
	}
	if cfg.ServersPerSite <= 0 {
		cfg.ServersPerSite = 1
	}
	eng := sim.NewEngine(cfg.Seed)
	netRng := eng.NewStream()

	sites := make([]*queue.Station, cfg.Sites)
	for i := range sites {
		sites[i] = queue.NewStation(eng, fmt.Sprintf("edge-%d", i), cfg.ServersPerSite, queue.FCFS)
		sites[i].SetWarmup(cfg.Warmup)
	}
	cloud := queue.NewStation(eng, "cloud-backstop", cfg.CloudServers, queue.FCFS)
	cloud.SetWarmup(cfg.Warmup)

	res := &OverflowResult{Result: Result{Label: "edge+overflow"}}

	var nextID uint64
	for _, rec := range tr.Records {
		edgeRTT := cfg.EdgePath.Sample(netRng)
		cloudRTT := cfg.CloudPath.Sample(netRng)
		nextID++
		req := &queue.Request{
			ID:          nextID,
			Site:        rec.Site,
			ServiceTime: rec.ServiceTime,
			Generated:   rec.Time,
		}
		req.NetworkRTT = edgeRTT
		overflowed := false
		req.Done = queue.DoneFunc(func(e *sim.Engine, r *queue.Request) {
			if r.Departure < cfg.Warmup {
				return
			}
			e2e := r.EndToEnd()
			res.EndToEnd.Add(e2e)
			res.Completed++
			if overflowed {
				res.CloudServed++
				res.CloudOnly.Add(e2e)
			} else {
				res.EdgeServed++
				res.EdgeOnly.Add(e2e)
			}
		})
		eng.At(rec.Time+edgeRTT/2, func(e *sim.Engine) {
			home := sites[req.Site]
			if home.Load() >= cfg.OverflowThreshold {
				overflowed = true
				res.Overflowed++
				req.NetworkRTT = edgeRTT + cloudRTT
				e.After(cloudRTT/2, func(*sim.Engine) { cloud.Arrive(req) })
				return
			}
			home.Arrive(req)
		})
	}

	res.Duration = eng.Run()
	var busySum, capSum float64
	for i, s := range sites {
		s.Finish()
		m := s.Metrics()
		res.Wait.Merge(&m.Wait)
		res.Sites = append(res.Sites, SiteResult{
			Site:        i,
			Wait:        m.Wait,
			Utilization: m.Utilization(s.Servers),
			Arrivals:    s.TotalArrivals(),
			MeanRate:    m.Arrivals.Rate(),
		})
		busySum += m.Busy.Average()
		capSum += float64(s.Servers)
	}
	cloud.Finish()
	res.Wait.Merge(&cloud.Metrics().Wait)
	if capSum > 0 {
		res.Utilization = busySum / capSum
	}
	return res
}

// compareResults asserts bit-identical aggregate results.
func compareResults(t *testing.T, name string, want, got *Result) {
	t.Helper()
	if got.Completed != want.Completed {
		t.Errorf("%s: Completed %d != materialized %d", name, got.Completed, want.Completed)
	}
	if got.Dropped != want.Dropped {
		t.Errorf("%s: Dropped %d != materialized %d", name, got.Dropped, want.Dropped)
	}
	if got.Redirected != want.Redirected {
		t.Errorf("%s: Redirected %d != materialized %d", name, got.Redirected, want.Redirected)
	}
	if got.EndToEnd.N() != want.EndToEnd.N() {
		t.Errorf("%s: N %d != materialized %d", name, got.EndToEnd.N(), want.EndToEnd.N())
	}
	if got.EndToEnd.Mean() != want.EndToEnd.Mean() {
		t.Errorf("%s: mean %v != materialized %v", name, got.EndToEnd.Mean(), want.EndToEnd.Mean())
	}
	if got.EndToEnd.P95() != want.EndToEnd.P95() {
		t.Errorf("%s: p95 %v != materialized %v", name, got.EndToEnd.P95(), want.EndToEnd.P95())
	}
	if got.Wait.Mean() != want.Wait.Mean() {
		t.Errorf("%s: wait mean %v != materialized %v", name, got.Wait.Mean(), want.Wait.Mean())
	}
	if got.Duration != want.Duration {
		t.Errorf("%s: duration %v != materialized %v", name, got.Duration, want.Duration)
	}
	if got.Utilization != want.Utilization {
		t.Errorf("%s: utilization %v != materialized %v", name, got.Utilization, want.Utilization)
	}
	if len(got.Sites) != len(want.Sites) {
		t.Fatalf("%s: %d site rows != materialized %d", name, len(got.Sites), len(want.Sites))
	}
	for i := range want.Sites {
		w, g := want.Sites[i], got.Sites[i]
		if g.Arrivals != w.Arrivals || g.Utilization != w.Utilization ||
			g.Wait.Mean() != w.Wait.Mean() || g.EndToEnd.Mean() != w.EndToEnd.Mean() {
			t.Errorf("%s: site %d diverges: arrivals %d/%d util %v/%v",
				name, i, g.Arrivals, w.Arrivals, g.Utilization, w.Utilization)
		}
	}
}

func equivalenceTrace(seed int64) *WorkloadTrace {
	return Generate(GenSpec{Sites: 5, Duration: 400, PerSiteRate: 10, Seed: seed})
}

func TestStreamingEdgeMatchesMaterialized(t *testing.T) {
	tr := equivalenceTrace(101)
	sc, _ := netem.ScenarioByName("typical-25ms")
	cfgs := map[string]EdgeConfig{
		"plain": {Sites: 5, ServersPerSite: 1, Path: sc.Edge, Warmup: 40, Seed: 7},
		"geo-jockey": {Sites: 5, ServersPerSite: 1, Path: sc.Edge, Warmup: 40, Seed: 7,
			JockeyThreshold: 3, DetourRTT: 0.005},
		"bounded-queue": {Sites: 5, ServersPerSite: 1, Path: sc.Edge, Warmup: 40, Seed: 7,
			QueueCap: 2},
		"per-site-slowdown": {Sites: 5, Path: sc.Edge, Warmup: 40, Seed: 7,
			PerSiteServers: []int{2, 1, 1, 1, 2}, SlowdownFactor: 1.2},
		"timeline-lifo": {Sites: 5, ServersPerSite: 1, Path: sc.Edge, Warmup: 40, Seed: 7,
			Discipline: queue.LIFO, TimelineBin: 30},
		"sjf": {Sites: 5, ServersPerSite: 1, Path: sc.Edge, Warmup: 40, Seed: 7,
			Discipline: queue.SJF},
	}
	for name, cfg := range cfgs {
		want := materializedRunEdge(tr, cfg)
		got := RunEdge(tr, cfg)
		compareResults(t, "edge/"+name, want, got)
	}
}

func TestStreamingCloudMatchesMaterialized(t *testing.T) {
	tr := equivalenceTrace(102)
	sc, _ := netem.ScenarioByName("typical-25ms")
	for _, pol := range []DispatchPolicy{CentralQueue, RoundRobin, LeastConn, PowerOfTwo, RandomSplit} {
		cfg := CloudConfig{Servers: 5, Path: sc.Cloud, Policy: pol, Warmup: 40, Seed: 9}
		want := materializedRunCloud(tr, cfg)
		got := RunCloud(tr, cfg)
		compareResults(t, "cloud/"+string(pol), want, got)
	}
	// Bounded queues on the central station.
	cfg := CloudConfig{Servers: 3, Path: sc.Cloud, Warmup: 40, Seed: 9, QueueCap: 4}
	compareResults(t, "cloud/central-capped", materializedRunCloud(tr, cfg), RunCloud(tr, cfg))
}

func TestStreamingOverflowMatchesMaterialized(t *testing.T) {
	// A hot first site so the overflow path actually engages.
	procs := siteProcs([]float64{18, 5, 5, 3, 3})
	tr := Generate(GenSpec{Sites: 5, Duration: 400, Seed: 103, Arrivals: procs})
	sc, _ := netem.ScenarioByName("typical-25ms")
	cfg := OverflowConfig{
		Sites: 5, ServersPerSite: 1,
		EdgePath: sc.Edge, CloudPath: sc.Cloud,
		CloudServers: 5, OverflowThreshold: 3,
		Warmup: 40, Seed: 11,
	}
	want := materializedRunOverflow(tr, cfg)
	got := RunEdgeWithOverflow(tr, cfg)
	compareResults(t, "overflow", &want.Result, &got.Result)
	if got.Overflowed == 0 {
		t.Fatal("overflow path never engaged; test is vacuous")
	}
	if got.Overflowed != want.Overflowed || got.CloudServed != want.CloudServed ||
		got.EdgeServed != want.EdgeServed {
		t.Errorf("overflow split diverges: overflowed %d/%d cloud %d/%d edge %d/%d",
			got.Overflowed, want.Overflowed, got.CloudServed, want.CloudServed,
			got.EdgeServed, want.EdgeServed)
	}
	if got.CloudOnly.Mean() != want.CloudOnly.Mean() || got.EdgeOnly.Mean() != want.EdgeOnly.Mean() {
		t.Error("overflow per-path latency digests diverge")
	}
}

// TestStreamingTiedEventsMatchMaterialized: with deterministic RTTs and
// integer-coincident times, arrivals tie exactly with completions. The
// materialized runner pre-schedules arrivals (low seqs), so they win
// those ties; the streaming feeder must reproduce that via front-
// priority scheduling. Regression test: a t=1 arrival must see the home
// site still busy (Load()=1 from the t=0 request completing at exactly
// t=1) and overflow, not observe the freed server.
func TestStreamingTiedEventsMatchMaterialized(t *testing.T) {
	tr := FromRecords([]RequestRecord{
		{Time: 0, Site: 0, ServiceTime: 1},
		{Time: 1, Site: 0, ServiceTime: 1},
	}, 1)
	cfg := OverflowConfig{
		Sites: 1, ServersPerSite: 1,
		EdgePath: netem.Constant("zero", 0), CloudPath: netem.Constant("zero", 0),
		CloudServers: 1, OverflowThreshold: 1, Seed: 1,
	}
	want := materializedRunOverflow(tr, cfg)
	got := RunEdgeWithOverflow(tr, cfg)
	if want.Overflowed != 1 {
		t.Fatalf("materialized Overflowed = %d, scenario should overflow the tied arrival", want.Overflowed)
	}
	if got.Overflowed != want.Overflowed {
		t.Errorf("streaming Overflowed = %d, materialized = %d: tied arrival lost its FIFO win",
			got.Overflowed, want.Overflowed)
	}
	compareResults(t, "overflow/tied", &want.Result, &got.Result)

	// Same property through the edge path: deterministic service and
	// zero RTT make every completion tie with the next arrival.
	recs := make([]RequestRecord, 50)
	for i := range recs {
		recs[i] = RequestRecord{Time: float64(i), Site: 0, ServiceTime: 1}
	}
	dtr := FromRecords(recs, 1)
	ecfg := EdgeConfig{Sites: 1, ServersPerSite: 1, Path: netem.Constant("zero", 0),
		Seed: 2, QueueCap: 1}
	compareResults(t, "edge/tied", materializedRunEdge(dtr, ecfg), RunEdge(dtr, ecfg))
}

// TestScalerTierMatchesLegacyReactiveConfig: the unified Scaler
// interface is a pure refactor for the reactive path — a Tier carrying
// the legacy reactive config (as a converted Spec) must reproduce the
// pre-Scaler direct runner bit for bit, telemetry included, whether the
// spec arrives via Go construction or the legacy JSON autoscale block.
func TestScalerTierMatchesLegacyReactiveConfig(t *testing.T) {
	procs := siteProcs([]float64{24, 9, 7, 4, 4})
	tr := Generate(GenSpec{Sites: 5, Duration: 400, Seed: 109, Arrivals: procs})
	cfg := EdgeConfig{Sites: 5, ServersPerSite: 1, Path: netem.Jittered("edge-1ms", 0.001, 0.0002),
		Warmup: 40, Seed: 19}
	asCfg := autoscale.Config{Interval: 2, Min: 1, Max: 4, UpThreshold: 1.5,
		DownThreshold: 0.2, Cooldown: 6}
	want := directRunEdgeAutoscaled(tr, cfg, asCfg)
	if want.ScaleUps == 0 {
		t.Fatal("controller never scaled; test is vacuous")
	}

	topo := Topology{
		Name: "edge+autoscale",
		Tiers: []Tier{{
			Name: "edge", Sites: 5, ServersPerSite: 1, Path: cfg.Path,
			Scaler: reactiveSpec(asCfg),
		}},
	}
	run := func(tp Topology) *TopologyResult {
		res, err := Run(tr.Source(), tp, Options{
			Warmup: cfg.Warmup, Seed: cfg.Seed, SizeHint: tr.Len(), NoPerSiteLatency: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	check := func(name string, res *TopologyResult) {
		t.Helper()
		got := res.Result
		got.Label = want.Label
		got.Sites = res.Tiers[0].Sites
		compareResults(t, name, &want.Result, &got)
		tier := res.Tiers[0]
		if tier.ScalerPolicy != "reactive" {
			t.Errorf("%s: scaler policy = %q, want reactive", name, tier.ScalerPolicy)
		}
		if tier.ScaleUps != want.ScaleUps || tier.ScaleDowns != want.ScaleDowns ||
			tier.PeakServers != want.PeakServers {
			t.Errorf("%s: telemetry diverges: ups %d/%d downs %d/%d peak %d/%d", name,
				tier.ScaleUps, want.ScaleUps, tier.ScaleDowns, want.ScaleDowns,
				tier.PeakServers, want.PeakServers)
		}
		if len(tier.Events) != len(want.Events) {
			t.Fatalf("%s: %d events != direct %d", name, len(tier.Events), len(want.Events))
		}
		for i := range want.Events {
			if tier.Events[i] != want.Events[i] {
				t.Errorf("%s: event %d diverges: %+v vs %+v", name, i, tier.Events[i], want.Events[i])
			}
		}
	}
	check("scaler-spec", run(topo))

	// The same tier declared through the legacy JSON autoscale block.
	legacy := `{"name":"edge+autoscale","tiers":[{"name":"edge","sites":5,"servers":1,
		"rttMs":1,"jitterMs":0.2,
		"autoscale":{"intervalS":2,"min":1,"max":4,"up":1.5,"down":0.2,"cooldownS":6}}]}`
	fromJSON, err := ParseTopology([]byte(legacy))
	if err != nil {
		t.Fatal(err)
	}
	check("legacy-json", run(fromJSON))
}

// TestBoundedSummaryConsistent: the bounded memory model must agree with
// the exact one on counts and moments (identical Add sequences feed the
// same Welford stream), and its p50/p95/p99 must be within
// stats.BoundedAlpha of the exact order statistic. The topology half
// holds every preset to that bound on the run, tier and class digests,
// serially and sharded, and requires the sharded bounded digests to
// equal the 1-shard ones bit for bit at every shard count and backend,
// so merging per-site sketches adds no tail bias.
func TestBoundedSummaryConsistent(t *testing.T) {
	tr := equivalenceTrace(104)
	sc, _ := netem.ScenarioByName("typical-25ms")
	base := EdgeConfig{Sites: 5, ServersPerSite: 1, Path: sc.Edge, Warmup: 40, Seed: 13}
	exact := RunEdge(tr, base)
	bounded := base
	bounded.Summary = stats.Bounded
	got := RunEdge(tr, bounded)
	if got.Completed != exact.Completed || got.EndToEnd.N() != exact.EndToEnd.N() {
		t.Fatalf("bounded run lost observations: %d vs %d", got.Completed, exact.Completed)
	}
	if got.EndToEnd.Mean() != exact.EndToEnd.Mean() {
		t.Errorf("bounded mean %v != exact %v", got.EndToEnd.Mean(), exact.EndToEnd.Mean())
	}
	if got.EndToEnd.Max() != exact.EndToEnd.Quantile(1) {
		t.Errorf("bounded max %v != exact %v", got.EndToEnd.Max(), exact.EndToEnd.Quantile(1))
	}
	boundedWithinAlpha(t, "edge", &got.EndToEnd, &exact.EndToEnd)

	for _, preset := range TopologyPresets() {
		topo, _ := PresetTopology(preset)
		spec := GenSpec{Sites: topo.Tiers[0].Sites, Duration: 300, PerSiteRate: 9, Seed: 17}
		opts := func(mode stats.Mode) Options {
			return Options{Warmup: 30, Seed: 17, Summary: mode}
		}
		serial := func(mode stats.Mode) *TopologyResult {
			res, err := Run(Stream(spec), topo, opts(mode))
			if err != nil {
				t.Fatalf("%s serial: %v", preset, err)
			}
			return res
		}
		sharded := func(mode stats.Mode, shards int, barrier bool) *TopologyResult {
			replay := RunSharded
			if barrier {
				replay = RunBarrier
			}
			res, err := replay(GenShards(spec), topo, opts(mode), shards)
			if err != nil {
				t.Fatalf("%s at %d shards: %v", preset, shards, err)
			}
			return res
		}
		if ex := serial(stats.Exact); ex.Completed == 0 {
			t.Fatalf("%s: nothing completed; test is vacuous", preset)
		} else {
			eachEndToEnd(t, preset+"/serial", serial(stats.Bounded), ex, boundedWithinAlpha)
		}
		one := sharded(stats.Bounded, 1, true)
		eachEndToEnd(t, preset+"/shards", one, sharded(stats.Exact, 1, true), boundedWithinAlpha)
		for _, shards := range []int{1, 2, 4} {
			for _, barrier := range []bool{true, false} {
				name := fmt.Sprintf("%s/shards-%d/barrier-%v", preset, shards, barrier)
				eachEndToEnd(t, name, sharded(stats.Bounded, shards, barrier), one, sameDigest)
			}
		}
	}
}

// eachEndToEnd applies check to the run, tier and class end-to-end
// digests of got against the matching digests of want.
func eachEndToEnd(t *testing.T, name string, got, want *TopologyResult,
	check func(t *testing.T, name string, got, want *stats.Digest)) {
	t.Helper()
	check(t, name+"/run", &got.EndToEnd, &want.EndToEnd)
	for i := range want.Tiers {
		g, w := &got.Tiers[i], &want.Tiers[i]
		check(t, name+"/"+w.Name, &g.EndToEnd, &w.EndToEnd)
		for c := range w.Classes {
			check(t, name+"/"+w.Name+"/"+w.Classes[c].Name, &g.Classes[c].EndToEnd, &w.Classes[c].EndToEnd)
		}
	}
}

// boundedWithinAlpha: got (bounded) reads p50/p95/p99 within
// stats.BoundedAlpha of the rank-⌊q(n−1)⌋ order statistic of want
// (exact), over the same observations.
func boundedWithinAlpha(t *testing.T, name string, got, want *stats.Digest) {
	t.Helper()
	if got.N() != want.N() || got.Mean() != want.Mean() {
		t.Fatalf("%s: bounded n/mean %d/%v != exact %d/%v", name, got.N(), got.Mean(), want.N(), want.Mean())
	}
	xs := want.Values()
	if len(xs) == 0 {
		return
	}
	for _, q := range []float64{0.5, 0.95, 0.99} {
		b, e := got.Quantile(q), xs[int(q*float64(len(xs)-1))]
		if abs(b-e) > stats.BoundedAlpha*abs(e) {
			t.Errorf("%s: bounded p%v %v vs exact %v (rel err %.4f)", name, q*100, b, e, abs(b-e)/e)
		}
	}
}

// sameDigest: got and want agree bit for bit on count, moments and
// every percentile from 1 to 99.
func sameDigest(t *testing.T, name string, got, want *stats.Digest) {
	t.Helper()
	if got.N() != want.N() || got.Mean() != want.Mean() || got.Min() != want.Min() || got.Max() != want.Max() {
		t.Fatalf("%s: n/mean/min/max diverge", name)
	}
	gs, ws := got.Summarize(name, nil), want.Summarize(name, nil)
	for i, w := range ws.Quantiles {
		if g := gs.Quantiles[i]; math.Float64bits(g.Value) != math.Float64bits(w.Value) {
			t.Errorf("%s: q=%v %v != 1-shard %v", name, w.Q, g.Value, w.Value)
		}
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
