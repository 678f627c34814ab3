package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed interval the benchmark records around a call into a
// module's public function. Parent is the ID of the span that caused it
// (0 for a root). Times are nanoseconds since the tracer's epoch.
type span struct {
	Name   string `json:"name"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// interval is a [start, end) pair on the tracer clock.
type interval struct{ start, end int64 }

// hotSpans collects the intervals of one high-frequency call site (one
// Source.Next per record) without a span struct per call. Each instance
// is written by a single goroutine.
type hotSpans struct {
	name string
	ivs  []interval
}

// tracer keeps every span in memory; write dumps them once the run ends.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
	hot   []*hotSpans
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// begin opens a span under parent and returns its ID.
func (t *tracer) begin(name string, parent int) int {
	start := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{Name: name, ID: id, Parent: parent, Start: start})
	return id
}

// end closes the span and returns it.
func (t *tracer) end(id int) span {
	end := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = end
	return t.spans[id-1]
}

// newHot registers a high-frequency call site.
func (t *tracer) newHot(name string) *hotSpans {
	h := &hotSpans{name: name}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.hot = append(t.hot, h)
	return h
}

// hotNamed returns every hot call site registered under name.
func (t *tracer) hotNamed(name string) []*hotSpans {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []*hotSpans
	for _, h := range t.hot {
		if h.name == name {
			out = append(out, h)
		}
	}
	return out
}

// covered returns how much of [lo, hi) the union of the intervals
// covers. Intervals from different goroutines may overlap; overlapping
// time is counted once.
func covered(lo, hi int64, ivs []interval) int64 {
	clipped := make([]interval, 0, len(ivs))
	for _, iv := range ivs {
		s, e := max(iv.start, lo), min(iv.end, hi)
		if e > s {
			clipped = append(clipped, interval{s, e})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].start < clipped[j].start })
	var total, curS, curE int64
	open := false
	for _, iv := range clipped {
		if open && iv.start <= curE {
			curE = max(curE, iv.end)
			continue
		}
		if open {
			total += curE - curS
		}
		curS, curE, open = iv.start, iv.end, true
	}
	if open {
		total += curE - curS
	}
	return total
}

// selfTime is a span's duration minus the part of its interval that its
// child intervals cover.
func selfTime(parent span, children []interval) int64 {
	return parent.dur() - covered(parent.Start, parent.End, children)
}

// hotIntervals concatenates the intervals of the given call sites.
func hotIntervals(hs []*hotSpans) []interval {
	var out []interval
	for _, h := range hs {
		out = append(out, h.ivs...)
	}
	return out
}

// write dumps, as JSON, the host description, the spans, per hot call
// site its call count and summed duration, and the layer costs the
// ledger was reconciled from.
func (t *tracer) write(path, host string, costs []layerCost) error {
	type hotSummary struct {
		Name    string `json:"name"`
		Calls   int    `json:"calls"`
		TotalNS int64  `json:"total_ns"`
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	type costSummary struct {
		Layer       string  `json:"layer"`
		NSPerCall   float64 `json:"ns_per_call"`
		CallsPerReq float64 `json:"calls_per_req"`
	}
	out := struct {
		Host  json.RawMessage `json:"host"`
		Spans []span          `json:"spans"`
		Hot   []hotSummary    `json:"hot"`
		Costs []costSummary   `json:"costs"`
	}{Host: json.RawMessage(host), Spans: t.spans}
	for _, c := range costs {
		out.Costs = append(out.Costs, costSummary{c.name, c.nsPerCall, c.callsPerReq})
	}
	for _, h := range t.hot {
		s := hotSummary{Name: h.name, Calls: len(h.ivs)}
		for _, iv := range h.ivs {
			s.TotalNS += iv.end - iv.start
		}
		out.Hot = append(out.Hot, s)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(out)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
