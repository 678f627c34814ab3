package merge

import "sync"

// Fan is the broadcast dual of Group: one producer feeding k bounded
// consumer rings — the coordination core of broadcast replay, where a
// single generation/decode pass fans records out to N variant engines.
// Publish copies each record into every attached ring (records are
// value types, so consumers never share mutable state), blocking while
// any attached ring is full: backpressure from the slowest consumer
// bounds resident memory by ring capacity instead of record count.
// Each consumer pops its ring independently and in publish order, so
// every consumer observes the identical record sequence the producer
// emitted.
type Fan[T any] struct {
	mu     sync.Mutex
	change *sync.Cond // pushes, pops, cancels, close
	rings  []fring[T]
	live   int  // attached (not canceled) rings
	closed bool // producer done
	occ    int  // buffered records across all rings
	peak   int  // high-water mark of occ
}

// fring is one consumer's bounded circular buffer.
type fring[T any] struct {
	buf      []T
	head     int // index of the oldest buffered record
	n        int
	detached bool
}

// NewFan builds a fan of k consumer rings of the given capacity.
func NewFan[T any](k, capacity int) *Fan[T] {
	if k <= 0 || capacity <= 0 {
		panic("merge: NewFan needs k > 0 and capacity > 0")
	}
	f := &Fan[T]{rings: make([]fring[T], k), live: k}
	f.change = sync.NewCond(&f.mu)
	for i := range f.rings {
		f.rings[i].buf = make([]T, capacity)
	}
	return f
}

// Publish appends recs to every attached ring, blocking whenever any of
// them is full until its consumer frees space. It reports whether any
// consumer remains attached — false tells the producer nobody is
// listening, so it can stop generating.
func (f *Fan[T]) Publish(recs []T) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	for len(recs) > 0 {
		if f.live == 0 {
			return false
		}
		// The batch advances by the minimum free space across attached
		// rings, so every ring receives the identical prefix before the
		// producer waits.
		free := len(recs)
		for j := range f.rings {
			r := &f.rings[j]
			if r.detached {
				continue
			}
			if avail := len(r.buf) - r.n; avail < free {
				free = avail
			}
		}
		if free == 0 {
			f.change.Wait()
			continue
		}
		for j := range f.rings {
			r := &f.rings[j]
			if r.detached {
				continue
			}
			// At most two segments: up to the end of the buffer, then
			// wrapped to its start.
			tail := (r.head + r.n) % len(r.buf)
			k := copy(r.buf[tail:], recs[:free])
			copy(r.buf, recs[k:free])
			r.n += free
			f.occ += free
		}
		if f.occ > f.peak {
			f.peak = f.occ
		}
		recs = recs[free:]
		f.change.Broadcast()
	}
	return f.live > 0
}

// CloseProducer marks the stream complete: consumers drain their
// buffered records and then see end-of-stream.
func (f *Fan[T]) CloseProducer() {
	f.mu.Lock()
	defer f.mu.Unlock()
	if !f.closed {
		f.closed = true
		f.change.Broadcast()
	}
}

// Cancel detaches consumer i: its buffered records are discarded and
// the producer stops copying to it, so an early-exiting consumer can
// never block the others through backpressure. Idempotent.
func (f *Fan[T]) Cancel(i int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	r := &f.rings[i]
	if r.detached {
		return
	}
	r.detached = true
	f.occ -= r.n
	r.n = 0
	r.buf = nil
	f.live--
	f.change.Broadcast()
}

// NextBatch appends up to max records from ring i to dst and returns
// it. It blocks until at least one record is buffered, and returns
// ok=false only when the producer has closed and ring i is drained (or
// canceled). One goroutine per ring.
func (f *Fan[T]) NextBatch(i int, dst []T, max int) ([]T, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	r := &f.rings[i]
	for {
		if r.n > 0 {
			take := r.n
			if take > max {
				take = max
			}
			// At most two segments, as in Publish.
			first := min(take, len(r.buf)-r.head)
			dst = append(dst, r.buf[r.head:r.head+first]...)
			dst = append(dst, r.buf[:take-first]...)
			r.head = (r.head + take) % len(r.buf)
			r.n -= take
			f.occ -= take
			f.change.Broadcast() // wake a producer blocked on this ring
			return dst, true
		}
		if f.closed || r.detached {
			return dst, false
		}
		f.change.Wait()
	}
}

// Next pops a single record from ring i (a convenience over NextBatch
// for tests and low-rate consumers).
func (f *Fan[T]) Next(i int) (T, bool) {
	var buf [1]T
	out, ok := f.NextBatch(i, buf[:0], 1)
	if !ok || len(out) == 0 {
		var zero T
		return zero, false
	}
	return out[0], true
}

// Peak reports the high-water mark of records buffered across all
// rings. Call it after the consumers have drained the fan (or accept a
// racy read).
func (f *Fan[T]) Peak() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.peak
}
