package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"

	"repro/internal/cluster"
	"repro/internal/stats"
)

func TestSelfTimeSubtractsCoveredChildIntervals(t *testing.T) {
	parent := span{Start: 0, End: 100}
	cases := []struct {
		name     string
		children []interval
		want     int64
	}{
		{"none", nil, 100},
		{"serial", []interval{{10, 20}, {30, 45}}, 75},
		// Overlapping children (two goroutines) count their union once;
		// parts outside the parent are clipped.
		{"overlap", []interval{{10, 20}, {15, 30}, {50, 60}, {95, 120}, {-5, 2}}, 100 - (20 + 10 + 5 + 2)},
		{"nested", []interval{{10, 90}, {20, 30}}, 20},
		{"outside", []interval{{100, 150}, {-20, 0}}, 100},
	}
	for _, c := range cases {
		if got := selfTime(parent, c.children); got != c.want {
			t.Errorf("%s: self time %d, want %d", c.name, got, c.want)
		}
	}
}

func TestRelErr(t *testing.T) {
	// The sharded tail bias the ROADMAP measured: 277.7 ms vs 285.9 ms.
	if got, want := relErr(277.7, 285.9), (285.9-277.7)/285.9; math.Abs(got-want) > 1e-15 {
		t.Errorf("relErr = %v, want %v", got, want)
	}
	if got := relErr(110, 100); math.Abs(got-0.1) > 1e-12 {
		t.Errorf("relErr over-estimate = %v, want 0.1", got)
	}
	if relErr(0, 0) != 0 || !math.IsInf(relErr(1, 0), 1) {
		t.Errorf("relErr edge cases: %v %v", relErr(0, 0), relErr(1, 0))
	}
}

func TestMedian(t *testing.T) {
	cases := []struct {
		xs   []float64
		want float64
	}{
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 5.5},
		{[]float64{5, 1, 4, 2, 3}, 3},
		{[]float64{7}, 7},
	}
	for _, c := range cases {
		in := append([]float64(nil), c.xs...)
		if got := median(c.xs); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.want)
		}
		for i := range in {
			if in[i] != c.xs[i] {
				t.Fatalf("median reordered its input: %v", c.xs)
			}
		}
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing should be NaN")
	}
}

func TestUnattributed(t *testing.T) {
	layers := []layerCost{{"a", 100, 1}, {"b", 50, 2}, {"c", 200, 2.5}}
	if got := unattributed(1000, layers); math.Abs(got-0.3) > 1e-12 {
		t.Errorf("unattributed = %v, want 0.3", got)
	}
	// Layer costs summed over two threads can exceed the wall time.
	if got := unattributed(500, layers); math.Abs(got+0.4) > 1e-12 {
		t.Errorf("unattributed = %v, want -0.4", got)
	}
}

// fakeInstance replays a canned result, optionally with broken books or
// a failing reference check.
type fakeInstance struct {
	unbalanced, rejectRef bool
}

func (f *fakeInstance) replay(*tracer) (*replayOut, error) {
	r := &cluster.TopologyResult{Result: cluster.Result{Label: "fake", EndToEnd: stats.NewDigest(stats.Exact, 0)}}
	r.Tiers = []cluster.TierResult{{Name: "edge", EndToEnd: stats.NewDigest(stats.Exact, 0)}}
	for i := 0; i < 10; i++ {
		r.EndToEnd.Add(0.1)
		r.Tiers[0].EndToEnd.Add(0.1)
	}
	r.Offered, r.Consumed, r.Completed, r.Tiers[0].Served = 10, 10, 10, 10
	if f.unbalanced {
		r.Consumed = 9
	}
	return &replayOut{requests: r.Offered, results: []*cluster.TopologyResult{r}}, nil
}

func (f *fakeInstance) crossCheck(*replayOut, bool) ([]string, accuracy, error) {
	if f.rejectRef {
		return []string{"reference disagrees"}, accuracy{}, nil
	}
	return nil, accuracy{}, nil
}

func (f *fakeInstance) layers(*replayOut, accuracy, int64) (map[string]float64, []layerCost, error) {
	return map[string]float64{}, nil, nil
}

func (f *fakeInstance) warmup() float64 { return 0 }

func fakeWorkload(f *fakeInstance) workload {
	return workload{name: "fake", setup: func(int64) (instance, error) { return f, nil }}
}

func TestFailingOutputCheckCountsAsFailure(t *testing.T) {
	cases := []struct {
		name string
		inst *fakeInstance
	}{
		{"balanced", &fakeInstance{}},
		{"unbalanced books", &fakeInstance{unbalanced: true}},
		{"reference rejects", &fakeInstance{rejectRef: true}},
	}
	for _, c := range cases {
		rep := runWorker(fakeWorkload(c.inst), 1, false, 0.01, true)
		res, err := summarize([]workerReport{rep}, nil, false)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		ok := !c.inst.unbalanced && !c.inst.rejectRef
		frac := failedFrac(res.Attempted, res.Failed)
		if res.Correct != ok || (frac > 0) == ok {
			t.Errorf("%s: correct=%v failed_frac=%v (%d/%d), want correct=%v", c.name, res.Correct, frac, res.Failed, res.Attempted, ok)
		}
	}
	// A crashed worker is one failed replay.
	good := runWorker(fakeWorkload(&fakeInstance{}), 1, false, 0.01, true)
	res, err := summarize([]workerReport{good}, []string{"worker exited 2"}, false)
	if err != nil || res.Correct || res.Failed != 1 || res.Attempted != good.Attempted+1 {
		t.Errorf("crash: %+v, %v", res, err)
	}
}

func TestBenchmarkJSONMatchesMetricLists(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d implemented", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: declared %q, implemented %q", i, w.Name, workloads[i].name)
		}
	}
	check := func(kind string, declared []struct{ Name, Unit, Better string }, impl []metricSpec) {
		if len(declared) != len(impl) {
			t.Fatalf("%s: %d declared, %d implemented", kind, len(declared), len(impl))
		}
		for i, d := range declared {
			if m := impl[i]; d.Name != m.name || d.Unit != m.unit || d.Better != m.better {
				t.Errorf("%s %d: declared %+v, implemented %+v", kind, i, d, m)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
}

func TestConcurrentProbesRunRaceFree(t *testing.T) {
	recs := cluster.Generate(cluster.GenSpec{Sites: 5, Duration: 200, PerSiteRate: 11, Seed: 3}).Records
	if ns := groupProbe(recs, 5, 2); !(ns > 0) || math.IsInf(ns, 0) {
		t.Errorf("groupProbe = %v ns/record", ns)
	}
	if ns := fanProbe(recs, 2); !(ns > 0) || math.IsInf(ns, 0) {
		t.Errorf("fanProbe = %v ns/record", ns)
	}
}
