package main

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"
)

// metricSpec declares one reported metric; the same lists are written
// in BENCHMARK.json, and a test keeps the two in step.
type metricSpec struct {
	name, unit, better string
}

var endToEnd = []metricSpec{
	{"req_per_s", "req/s", "higher"},
	{"setup_s", "s", "lower"},
	{"peak_rss_mb", "MB", "lower"},
}

var perLayer = []metricSpec{
	{"cluster.self_ns_per_req", "ns", "lower"},
	{"cluster.spill_frac", "ratio", "lower"},
	{"gen.ns_per_rec", "ns", "lower"},
	{"dist.ns_per_sample", "ns", "lower"},
	{"trace.ns_per_rec", "ns", "lower"},
	{"trace.bytes_per_rec", "B", "lower"},
	{"sim.ns_per_event", "ns", "lower"},
	{"sim.peak_pending", "count", "lower"},
	{"queue.ns_per_req", "ns", "lower"},
	{"stats.ns_per_add", "ns", "lower"},
	{"stats.adds_per_req", "count", "lower"},
	{"stats.report_s", "s", "lower"},
	{"stats.merge_ns", "ns", "lower"},
	{"stats.p99_rel_err", "ratio", "lower"},
	{"merge.ns_per_rec", "ns", "lower"},
	{"merge.peak_backlog", "count", "lower"},
	{"fan.ns_per_rec", "ns", "lower"},
	{"admit.ns_per_decision", "ns", "lower"},
	{"admit.reject_frac", "ratio", "lower"},
	{"autoscale.scale_events", "count", "lower"},
	{"experiments.detect_ms", "ms", "lower"},
	{"runtime.alloc_bytes_per_req", "B", "lower"},
	{"runtime.allocs_per_req", "count", "lower"},
	{"runtime.gc_cycles", "count", "lower"},
	{"runtime.gc_pause_ms", "ms", "lower"},
	{"requests", "count", "higher"},
	{"served", "count", "higher"},
	{"spilled", "count", "lower"},
	{"dropped", "count", "lower"},
	{"rejected", "count", "lower"},
	{"p95_rel_err", "ratio", "lower"},
	{"p99_rel_err", "ratio", "lower"},
	{"failed_frac", "ratio", "lower"},
	{"trace_overhead_frac", "ratio", "lower"},
	{"unattributed_frac", "ratio", "lower"},
}

type replayStat struct {
	Requests uint64  `json:"requests"`
	WallS    float64 `json:"wall_s"`
}

// workerReport is what one worker process measured.
type workerReport struct {
	SetupS      float64            `json:"setup_s"`
	Replays     []replayStat       `json:"replays"`
	Attempted   int                `json:"attempted"`
	Failed      int                `json:"failed"`
	Failures    []string           `json:"failures,omitempty"`
	CheckFailed bool               `json:"check_failed"`
	Fingerprint string             `json:"fingerprint"`
	PeakRSSKB   int64              `json:"peak_rss_kb"`
	Layers      map[string]float64 `json:"layers,omitempty"`
}

// safeReplay turns a panic on the replaying goroutine into an error.
func safeReplay(inst instance, tr *tracer) (out *replayOut, err error) {
	defer func() {
		if p := recover(); p != nil {
			out, err = nil, fmt.Errorf("replay panicked: %v", p)
		}
	}()
	return inst.replay(tr)
}

// verify returns the output checks one replay failed: it must not have
// errored, its books must balance, and it must match the warm-up's
// results bit for bit.
func verify(inst instance, out *replayOut, err error, want string) []string {
	if err != nil {
		return []string{err.Error()}
	}
	var fails []string
	for _, r := range out.results {
		fails = append(fails, conservation(r, inst.warmup())...)
	}
	if got := fingerprint(out.results); got != want {
		fails = append(fails, fmt.Sprintf("replay results %s differ from warm-up %s", got, want))
	}
	return fails
}

// record counts one attempted replay and whether it failed.
func (rep *workerReport) record(fails []string) {
	rep.Attempted++
	if len(fails) > 0 {
		rep.Failed++
		rep.Failures = append(rep.Failures, fails...)
	}
}

// runWorker sets the workload up (timed, including one warm-up replay),
// then replays it until budget seconds have passed.
func runWorker(w workload, seed int64, traced bool, budget float64, check bool) workerReport {
	var rep workerReport
	t0 := time.Now()
	inst, err := w.setup(seed)
	if err != nil {
		rep.record([]string{"set-up: " + err.Error()})
		return rep
	}
	warm, err := safeReplay(inst, nil)
	if err != nil {
		rep.record([]string{"warm-up: " + err.Error()})
		return rep
	}
	rep.SetupS = time.Since(t0).Seconds()
	rep.Fingerprint = fingerprint(warm.results)
	if traced {
		traceWorker(&rep, w, inst, seed, budget)
		return rep
	}

	var last *replayOut
	start := time.Now()
	for (len(rep.Replays) == 0 && rep.Attempted < 3) || time.Since(start).Seconds() < budget {
		last = nil
		runtime.GC()
		t := time.Now()
		out, err := safeReplay(inst, nil)
		wall := time.Since(t).Seconds()
		rep.record(verify(inst, out, err, rep.Fingerprint))
		if err == nil {
			// A replay that ran but failed a check is still timed; the
			// failure shows in failed/attempted.
			rep.Replays = append(rep.Replays, replayStat{out.requests, wall})
			last = out
		}
	}
	rep.PeakRSSKB = peakRSSKB()
	if check && last != nil {
		crossCheck(&rep, inst, last, false)
	}
	return rep
}

// crossCheck runs the workload's reference checks on a replay's output.
func crossCheck(rep *workerReport, inst instance, out *replayOut, withAccuracy bool) accuracy {
	fails, acc, err := inst.crossCheck(out, withAccuracy)
	if err != nil {
		fails = append(fails, err.Error())
	}
	if len(fails) > 0 {
		rep.CheckFailed = true
		rep.Failures = append(rep.Failures, fails...)
	}
	return acc
}

// traceWorker alternates untraced and traced replays until the budget is
// spent, then drives each layer in isolation and fills rep.Layers.
func traceWorker(rep *workerReport, w workload, inst instance, seed int64, budget float64) {
	var plain, traced, allocB, allocs, cycles, pauses []float64
	var last *replayOut
	var lastTr *tracer
	start := time.Now()
	for (len(traced) < 2 && rep.Failed < 3) || time.Since(start).Seconds() < budget {
		last, lastTr = nil, nil
		runtime.GC()
		before := readRuntime()
		t := time.Now()
		out, err := safeReplay(inst, nil)
		wall := time.Since(t)
		after := readRuntime()
		rep.record(verify(inst, out, err, rep.Fingerprint))
		if err != nil {
			continue
		}
		n := float64(out.requests)
		plain = append(plain, float64(wall.Nanoseconds())/n)
		allocB = append(allocB, (after.allocBytes-before.allocBytes)/n)
		allocs = append(allocs, (after.allocs-before.allocs)/n)
		cycles = append(cycles, after.gcCycles-before.gcCycles)
		pauses = append(pauses, (after.pauseNS-before.pauseNS)/1e6)

		runtime.GC()
		tr := newTracer()
		t = time.Now()
		out, err = safeReplay(inst, tr)
		wall = time.Since(t)
		rep.record(verify(inst, out, err, rep.Fingerprint))
		if err != nil {
			continue
		}
		traced = append(traced, float64(wall.Nanoseconds())/float64(out.requests))
		last, lastTr = out, tr
	}
	rep.PeakRSSKB = peakRSSKB()
	if last == nil {
		return
	}
	acc := crossCheck(rep, inst, last, true)
	m, costs, err := inst.layers(last, acc, seed)
	if err != nil {
		rep.record([]string{"layer probes: " + err.Error()})
		return
	}
	e2e := median(plain)
	m["trace_overhead_frac"] = median(traced)/e2e - 1
	m["unattributed_frac"] = unattributed(e2e, costs)
	m["runtime.alloc_bytes_per_req"] = median(allocB)
	m["runtime.allocs_per_req"] = median(allocs)
	m["runtime.gc_cycles"] = median(cycles)
	m["runtime.gc_pause_ms"] = median(pauses)
	rep.Layers = m
	if err := lastTr.write(spanPath(w, seed), hostInfo(), costs); err != nil {
		rep.Failures = append(rep.Failures, "write spans: "+err.Error())
	}
}

// runtimeCounters are cumulative Go runtime counters.
type runtimeCounters struct {
	allocBytes, allocs, gcCycles, pauseNS float64
}

func readRuntime() runtimeCounters {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/gc/cycles/total:gc-cycles"},
	}
	metrics.Read(s)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return runtimeCounters{
		allocBytes: float64(s[0].Value.Uint64()),
		allocs:     float64(s[1].Value.Uint64()),
		gcCycles:   float64(s[2].Value.Uint64()),
		pauseNS:    float64(ms.PauseTotalNs),
	}
}

// peakRSSKB is the process's peak resident set so far, in KiB.
func peakRSSKB() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Maxrss
}
