package cluster

import (
	"context"
	"runtime/pprof"

	"repro/internal/merge"
)

// Record production off the engine goroutine. Run and RunBroadcast both
// pull their Source on one producer goroutine, which publishes batches
// into a merge.Fan of bounded rings; each engine reads its ring as an
// ordinary Source. Generation or decode therefore overlaps with the
// calendar, stations and stats instead of running between their events,
// and backpressure from the slowest ring bounds how far the producer
// runs ahead. Every draw happens inside the source's own streams, so the
// record sequence — and every result — is the one a direct pull yields.
const (
	// producerBatch is the unit records move in: the producer publishes
	// this many at a time and a ring reader takes up to as many, so the
	// fan's lock is paid once per batch on both sides.
	producerBatch = 256
	// serialRing bounds Run's one ring: a few batches of look-ahead,
	// small enough to stay cache-resident beside the engine.
	serialRing = 1024
)

// producer owns the goroutine that pulls one Source into a fan's rings.
type producer struct {
	fan   *merge.Fan[RequestRecord]
	rings int
	done  chan struct{} // closed when the goroutine has exited
	// err is the source's FallibleSource error. It is written before
	// the fan closes, so a reader that has seen end-of-stream sees it.
	err error
	// panicked and panicVal hold a panic recovered from Source.Next
	// until stop re-raises it on the joining goroutine.
	panicked bool
	panicVal any
}

// startProducer pulls src on a new goroutine into `rings` rings of the
// given capacity. The caller must call stop before it returns.
func startProducer(src Source, rings, capacity int) *producer {
	p := &producer{
		fan:   merge.NewFan[RequestRecord](rings, capacity),
		rings: rings,
		done:  make(chan struct{}),
	}
	go pprof.Do(context.Background(), pprof.Labels("phase", "generate"), func(context.Context) {
		defer close(p.done)
		defer p.fan.CloseProducer()
		defer func() {
			if v := recover(); v != nil {
				p.panicked, p.panicVal = true, v
			}
		}()
		p.pump(src)
	})
	return p
}

// pump is the producer's loop: one pass over src, batched into the fan,
// until the source ends or every ring is canceled.
func (p *producer) pump(src Source) {
	batch := make([]RequestRecord, 0, producerBatch)
	for {
		rec, ok := src.Next()
		if !ok {
			break
		}
		batch = append(batch, rec)
		if len(batch) == producerBatch {
			if !p.fan.Publish(batch) {
				return // nobody is reading; stop generating
			}
			batch = batch[:0]
		}
	}
	p.fan.Publish(batch)
	if fs, ok := src.(FallibleSource); ok {
		p.err = fs.Err()
	}
}

// ring returns ring i as a Source for one engine.
func (p *producer) ring(i int) *ringSource { return &ringSource{p: p, i: i} }

// stop cancels every ring, waits for the producer goroutine to exit, and
// re-raises a panic from Source.Next on the caller's goroutine. After a
// clean drain the cancels are no-ops; after an early engine exit they
// release a producer blocked on a full ring.
func (p *producer) stop() {
	for i := 0; i < p.rings; i++ {
		p.fan.Cancel(i)
	}
	<-p.done
	if p.panicked {
		panic(p.panicVal)
	}
}

// ringSource reads one producer ring as a FallibleSource: a producer-side
// decode error surfaces through Err after the drain, exactly as it would
// on the source itself.
type ringSource struct {
	p   *producer
	i   int
	buf []RequestRecord
	bi  int
}

func (s *ringSource) Next() (RequestRecord, bool) {
	if s.bi >= len(s.buf) {
		if s.buf == nil {
			s.buf = make([]RequestRecord, 0, producerBatch)
		}
		var ok bool
		s.buf, ok = s.p.fan.NextBatch(s.i, s.buf[:0], producerBatch)
		s.bi = 0
		if !ok || len(s.buf) == 0 {
			return RequestRecord{}, false
		}
	}
	rec := s.buf[s.bi]
	s.bi++
	return rec, true
}

// Err is valid once Next has reported end-of-stream.
func (s *ringSource) Err() error { return s.p.err }

// producedElsewhere reports whether Run should read src directly: a
// producer ring or a parallel generator already produces its records on
// other goroutines, and an in-memory trace has nothing to produce.
func producedElsewhere(src Source) bool {
	switch src.(type) {
	case *ringSource, *parallelSource, *sliceSource:
		return true
	}
	return false
}
