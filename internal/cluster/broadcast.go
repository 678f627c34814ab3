package cluster

import (
	"fmt"
	"sync"
)

// Broadcast replay: one generation/decode pass fans out to N variant
// engines. Every variant comparison in this repo replays the identical
// record sequence through different deployments or options; the
// per-row discipline (SourceFactory: re-derive a fresh source per run)
// pays the generation or decode cost once per variant. RunBroadcast
// pays it once per distinct trace instead:
//
//	            ┌─▶ ring 0 ──▶ Source ──▶ engine (variant 0)
//	src ──pump──┼─▶ ring 1 ──▶ Source ──▶ engine (variant 1)
//	            └─▶ ring k ──▶ Source ──▶ engine (variant k)
//
// The shared producer (producer.go) pulls src once and publishes
// batches into a merge.Fan — bounded per-variant rings with
// backpressure, so the slowest engine gates the producer and resident
// memory stays O(ring × variants) however long the trace is. Each ring
// presents as an ordinary Source (records are value types; consumers
// share nothing mutable), so every variant replays the byte-identical
// sequence a fresh per-row source would have yielded — the broadcast
// equivalence suite asserts whole TopologyResults are bit-identical to
// per-row re-derivation across generator/CSV/Azure sources and summary
// modes.

// defaultBroadcastRing bounds each subscriber's ring when the caller
// passes ring <= 0: deep enough to decouple the engines' pop cadences,
// small enough that k rings stay cache-resident.
const defaultBroadcastRing = 4096

// Variant is one subscriber of a broadcast replay: a deployment and
// its run options, evaluated on the shared record stream.
type Variant struct {
	Label    string
	Topology Topology
	Opts     Options
}

// RunBroadcast replays src through every variant concurrently, pulling
// the source exactly once. Results are positional (results[i] is
// variants[i]); the first variant error fails the whole call. ring
// bounds each subscriber's buffer (<= 0 selects the default). The
// source's records must be nondecreasing in time, as for Run; if src
// is a FallibleSource its error fails every variant, matching the
// per-row behavior where each run's own decoder would fail.
//
// All variants replay concurrently — an early-finishing or failing
// variant detaches from the fan so it can never stall the rest — and
// each variant's engine, seeds and options behave exactly as in
// Run(srcFactory(), v.Topology, v.Opts). src.Next runs on the producer
// goroutine, never the caller's. RunBroadcast returns only after every
// goroutine it started has exited, and a panic in src.Next or in a
// variant's replay is re-raised on the caller's goroutine.
func RunBroadcast(src Source, variants []Variant, ring int) ([]*TopologyResult, error) {
	if len(variants) == 0 {
		return nil, fmt.Errorf("cluster: RunBroadcast needs at least one variant")
	}
	if ring <= 0 {
		ring = defaultBroadcastRing
	}
	p := startProducer(src, len(variants), ring)
	results := make([]*TopologyResult, len(variants))
	errs := make([]error, len(variants))
	panics := make([]any, len(variants))
	var wg sync.WaitGroup
	for i := range variants {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer p.fan.Cancel(i)
			defer func() { panics[i] = recover() }()
			results[i], errs[i] = Run(p.ring(i), variants[i].Topology, variants[i].Opts)
		}(i)
	}
	wg.Wait()
	p.stop()
	for _, v := range panics {
		if v != nil {
			panic(v)
		}
	}
	for i, err := range errs {
		if err != nil {
			label := variants[i].Label
			if label == "" {
				label = fmt.Sprintf("#%d", i)
			}
			return nil, fmt.Errorf("cluster: broadcast variant %s: %w", label, err)
		}
	}
	return results, nil
}
