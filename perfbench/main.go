// Command perfbench is edgebench's replay benchmark. It replays three
// seeded workloads through the simulator and prints, as the last line of
// standard output, one JSON object with the end-to-end metrics (--trace
// 0) or the per-layer ledger (--trace 1). Run it through run.sh from the
// repository root:
//
//	bash perfbench/run.sh --workload bounded-stream --seed 1 --seconds 10 --trace 0
//
// Each run starts worker processes of this same binary: a worker sets
// the workload up, warms it up, replays it until its time budget is
// spent, and reports what it measured; the parent aggregates medians.
// See RATIONALE.md for why each workload and metric was chosen.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// workersPerRun is how many worker processes an untraced run starts:
// set-up time and peak memory are medians over them.
const workersPerRun = 3

// outDir holds the span dumps of traced runs, inside the checkout.
const outDir = ".bench_build/perfbench"

func main() {
	var (
		name    = flag.String("workload", "", "workload: bounded-stream, azure-exact or sharded-bounded")
		seed    = flag.Int64("seed", 1, "seed the workload's inputs derive from")
		seconds = flag.Float64("seconds", 10, "host seconds to spend measuring")
		traced  = flag.Int("trace", 0, "1 = report the per-layer ledger instead of the end-to-end metrics")
		worker  = flag.String("worker", "", "internal: run as a worker (measure|trace) with --budget seconds")
		budget  = flag.Float64("budget", 0, "internal: a worker's measuring budget in seconds")
		check   = flag.Bool("check", false, "internal: the worker also runs the reference checks")
	)
	flag.Parse()
	w, ok := lookupWorkload(*name)
	if !ok {
		fail("unknown --workload %q", *name)
	}
	if *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fail("--seconds must be positive and --trace 0 or 1")
	}
	if *worker != "" {
		rep := runWorker(w, *seed, *worker == "trace", *budget, *check)
		if err := json.NewEncoder(os.Stdout).Encode(rep); err != nil {
			fail("write report: %v", err)
		}
		return
	}
	res, err := orchestrate(w, *seed, *seconds, *traced == 1)
	if err != nil {
		fail("%v", err)
	}
	host := hostInfo()
	fmt.Printf("host: %s\n", host)
	line, err := json.Marshal(res)
	if err != nil {
		fail("encode result: %v", err)
	}
	fmt.Println(string(line))
}

func fail(format string, a ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", a...)
	os.Exit(1)
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// orchestrate starts the worker processes for one run and aggregates
// their reports.
func orchestrate(w workload, seed int64, seconds float64, traced bool) (*result, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("locate own binary: %w", err)
	}
	n, mode, budget := workersPerRun, "measure", seconds/workersPerRun
	if traced {
		n, mode, budget = 1, "trace", seconds
	}
	var reps []workerReport
	var crashes []string
	for i := 0; i < n; i++ {
		args := []string{"--workload", w.name, "--seed", fmt.Sprint(seed), "--worker", mode, "--budget", fmt.Sprint(budget), fmt.Sprintf("--check=%v", i == 0)}
		rep, err := spawn(self, args)
		if err != nil {
			crashes = append(crashes, err.Error())
			continue
		}
		reps = append(reps, rep)
	}
	return summarize(reps, crashes, traced)
}

// summarize turns worker reports into the output line. reps[0] is the
// worker that ran the reference checks; each crashed worker counts as
// one failed replay.
func summarize(reps []workerReport, crashes []string, traced bool) (*result, error) {
	attempted, failed := len(crashes), len(crashes)
	failures := append([]string(nil), crashes...)
	if len(reps) == 0 {
		return nil, fmt.Errorf("every worker failed: %s", strings.Join(failures, "; "))
	}
	for _, r := range reps {
		attempted += r.Attempted
		failed += r.Failed
		failures = append(failures, r.Failures...)
	}
	// Replays of one seed are deterministic: every worker must have
	// produced the results the checked worker verified.
	for _, r := range reps[1:] {
		if r.Fingerprint != reps[0].Fingerprint {
			failed += r.Attempted
			failures = append(failures, fmt.Sprintf("worker results differ: %s vs %s", r.Fingerprint, reps[0].Fingerprint))
		}
	}
	if reps[0].CheckFailed {
		// Every replay produced the results the reference rejected.
		failed = attempted
	}
	failed = min(failed, attempted)
	for _, f := range failures {
		fmt.Fprintln(os.Stderr, "check failed:", f)
	}
	res := &result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}
	if traced {
		if reps[0].Layers == nil {
			return nil, errors.New("the traced worker measured no layers")
		}
		for _, m := range perLayer {
			res.Metrics[m.name] = metric{reps[0].Layers[m.name], m.unit}
		}
		res.Metrics["failed_frac"] = metric{failedFrac(attempted, failed), "ratio"}
		return res, nil
	}
	var rates, setups, rss []float64
	for _, r := range reps {
		for _, rp := range r.Replays {
			rates = append(rates, float64(rp.Requests)/rp.WallS)
		}
		if len(r.Replays) > 0 {
			setups = append(setups, r.SetupS)
			rss = append(rss, float64(r.PeakRSSKB)/1024)
		}
	}
	if len(rates) == 0 {
		return nil, errors.New("no replay completed")
	}
	res.Metrics["req_per_s"] = metric{median(rates), "req/s"}
	res.Metrics["setup_s"] = metric{median(setups), "s"}
	res.Metrics["peak_rss_mb"] = metric{median(rss), "MB"}
	return res, nil
}

// spawn runs one worker and decodes the report on its last output line.
func spawn(self string, args []string) (workerReport, error) {
	cmd := exec.Command(self, args...)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	err := cmd.Run()
	var rep workerReport
	if err != nil {
		return rep, fmt.Errorf("worker %v: %w", args, err)
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
		return rep, fmt.Errorf("worker %v: bad report: %w", args, err)
	}
	return rep, nil
}

// hostInfo names the machine the numbers come from, so runs on
// different machines are never compared as if they were one.
func hostInfo() string {
	cpu := "unknown"
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	info, _ := json.Marshal(map[string]any{
		"cpu": cpu, "nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"go": runtime.Version(), "goos": runtime.GOOS, "goarch": runtime.GOARCH,
	})
	return string(info)
}

// spanPath is where a traced run writes its spans.
func spanPath(w workload, seed int64) string {
	return filepath.Join(outDir, fmt.Sprintf("spans-%s-seed%d-%d.json", w.name, seed, time.Now().UnixNano()))
}
