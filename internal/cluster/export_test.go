package cluster

import (
	"slices"

	"repro/internal/sim"
)

// collectPublisher keeps every boundary capture of one shard, in
// capture order.
type collectPublisher struct{ recs []boundaryRec }

func (c *collectPublisher) capture(rec boundaryRec) { c.recs = append(c.recs, rec) }
func (c *collectPublisher) advance(float64)         {}
func (c *collectPublisher) finish()                 {}

// RunBarrier is the reference sharded replay the equivalence suites
// hold RunSharded to. It is as plain as the two-phase design allows:
// replay the shards one after another, keeping every boundary capture;
// sort all captures once into the canonical (time, site, seq) order;
// then pump them through a single phase-2 engine over all shared
// tiers. There is no ring, watermark, k-way merge or partitioning, so
// a result that matches it cannot owe anything to those mechanisms.
func RunBarrier(src ShardedSource, topo Topology, opts Options, shards int) (*TopologyResult, error) {
	r, err := newShardRun(src, topo, opts, shards)
	if err != nil {
		return nil, err
	}
	var all []boundaryRec
	for _, st := range r.states {
		pub := &collectPublisher{}
		runShardPhase1(r.topo, r.plan, st, src.Shard(st.lo, st.hi), r.opts, r.netSeeds, pub)
		if st.err != nil {
			return nil, st.err
		}
		all = append(all, pub.recs...)
	}
	slices.SortFunc(all, func(a, b boundaryRec) int {
		switch {
		case boundaryBefore(&a, &b):
			return -1
		case boundaryBefore(&b, &a):
			return 1
		}
		return 0
	})

	b, err := buildPhase2(r, r.plan.shared, deriveP2Streams(r.topo, r.plan, r.phase2Seed))
	if err != nil {
		return nil, err
	}
	perSite := newDigests(r.opts.Summary, r.sites)
	b.sink.perSite = perSite

	// Controllers stop once the last record has been admitted and every
	// request has been consumed, as in RunSharded's pump. next counts
	// the admitted records.
	next := 0
	stopAll := func() {
		if next == len(all) && b.sink.consumed == uint64(len(all)) {
			for _, c := range b.ctrls {
				c.Stop()
			}
		}
	}
	if len(b.ctrls) > 0 {
		b.sink.pre = stopAll
	}
	var pump sim.Event
	pump = func(e *sim.Engine) {
		rec := &all[next]
		req := b.pool.Get()
		req.ID = uint64(next) + 1
		req.Site = rec.site
		req.Generated = rec.generated
		req.Done = b.sink
		req.NetworkRTT = rec.rtt
		req.AuxRTT = rec.aux
		req.ServiceTime = rec.service
		req.Tag = uint64(rec.tier)
		req.Class = rec.class
		b.x.admit(rec.tier, req)
		next++
		if next < len(all) {
			e.AtFront(all[next].at, pump)
		} else {
			stopAll()
		}
	}
	if len(all) > 0 {
		b.eng.AtFront(all[0].at, pump)
	} else {
		stopAll()
	}
	b.eng.Run()
	for _, c := range b.ctrls {
		c.Stop()
	}
	return finishSharded(r, []*p2build{b}, perSite), nil
}
