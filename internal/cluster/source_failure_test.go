package cluster_test

// Every replay backend pulls its source off the caller's goroutine: Run
// and RunBroadcast on one producer, RunSharded on its shard goroutines.
// A source that fails must still end the call cleanly — an error, not a
// deadlock, for a decode failure; a panic on the caller's goroutine for
// a panicking Next — and no goroutine the call started may outlive it.

import (
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/trace"
)

// panicAt is the panic value of panicSource.
const panicAt = "panicSource: exploded"

// panicSource yields a few records, then panics inside Next.
type panicSource struct{ n int }

func (s *panicSource) Next() (cluster.RequestRecord, bool) {
	if s.n == 5 {
		panic(panicAt)
	}
	s.n++
	return cluster.RequestRecord{Time: float64(s.n) * 0.1, Site: s.n % 2, ServiceTime: 0.01}, true
}

// replayCall runs fn on a fresh goroutine and reports any panic it
// raised there and its error. A call that does not return within the bound
// fails the test as a deadlock.
func replayCall(t *testing.T, fn func() error) (panicked any, err error) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		defer func() { panicked = recover() }()
		err = fn()
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("replay did not return: deadlocked on a failing source")
	}
	return panicked, err
}

// waitGoroutines fails the test unless the goroutine count falls back to
// base. Goroutines that have signalled completion may take a moment to
// exit, so it polls briefly before failing.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines outlive the call (started with %d):\n%s",
				runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(time.Millisecond)
	}
}

// backend replays a source built by factory through one replay backend.
type backend struct {
	name   string
	replay func(factory func() cluster.Source) error
}

// backends lists every replay backend over the same spill topology.
func backends() []backend {
	topo := spillTopology(2)
	opts := cluster.Options{Seed: 1}
	return []backend{
		{"Run", func(factory func() cluster.Source) error {
			_, err := cluster.Run(factory(), topo, opts)
			return err
		}},
		{"RunBroadcast", func(factory func() cluster.Source) error {
			_, err := cluster.RunBroadcast(factory(), []cluster.Variant{
				{Label: "a", Topology: topo, Opts: opts},
				{Label: "b", Topology: topo, Opts: cluster.Options{Seed: 2}},
			}, 4)
			return err
		}},
		{"RunSharded", func(factory func() cluster.Source) error {
			_, err := cluster.RunSharded(cluster.SourceShards(factory, 2), topo, opts, 2)
			return err
		}},
	}
}

// TestSourceFailureSurfaces runs each backend over a source whose CSV
// decode fails mid-stream and over one whose Next panics.
func TestSourceFailureSurfaces(t *testing.T) {
	const bad = "time,site,service\n0.5,0,0.01\n1.0,1,0.02\nnot-a-number,0,0.01\n"
	csvSource := func() cluster.Source { return trace.StreamRequestsCSV(strings.NewReader(bad)) }
	panicking := func() cluster.Source { return &panicSource{} }
	for _, tc := range backends() {
		t.Run(tc.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			p, err := replayCall(t, func() error { return tc.replay(csvSource) })
			if p != nil {
				t.Fatalf("decode failure panicked: %v", p)
			}
			if err == nil || !strings.Contains(err.Error(), "source failed") {
				t.Fatalf("want a \"source failed\" error, got %v", err)
			}
			waitGoroutines(t, base)

			p, err = replayCall(t, func() error { return tc.replay(panicking) })
			if p != panicAt {
				t.Fatalf("want the source's panic %q on the caller's goroutine, got %v (err %v)", panicAt, p, err)
			}
			waitGoroutines(t, base)
		})
	}
}

// regressSource yields a long stream over two sites in which each
// site's third record goes back in time.
type regressSource struct{ n int }

func (s *regressSource) Next() (cluster.RequestRecord, bool) {
	s.n++
	at := float64(s.n) * 0.01
	if s.n == 5 || s.n == 6 {
		at = 0
	}
	return cluster.RequestRecord{Time: at, Site: s.n % 2, ServiceTime: 0.001}, s.n <= 50000
}

// TestEngineExitJoinsSource: when an engine stops early — here on a
// time regression, with the producer blocked on a full ring — the call
// cancels the rings and joins every goroutine before the engine's panic
// propagates to the caller. Under -race, reading n afterwards is a
// reported race unless the goroutine that called Next was joined.
func TestEngineExitJoinsSource(t *testing.T) {
	for _, tc := range backends() {
		t.Run(tc.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			var (
				mu   sync.Mutex // RunSharded builds its shard sources concurrently
				srcs []*regressSource
			)
			factory := func() cluster.Source {
				mu.Lock()
				defer mu.Unlock()
				src := &regressSource{}
				srcs = append(srcs, src)
				return src
			}
			p, _ := replayCall(t, func() error { return tc.replay(factory) })
			if s, _ := p.(string); !strings.Contains(s, "yielded time") {
				t.Fatalf("want the time-regression panic, got %v", p)
			}
			waitGoroutines(t, base)
			for _, src := range srcs {
				if src.n >= 50000 {
					t.Fatalf("a source was drained to its end (%d records) after the engine stopped", src.n)
				}
			}
		})
	}
}
