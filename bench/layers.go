package main

import (
	"repro/internal/blockdev"
	"repro/internal/metrics"
	"repro/internal/place"
	"repro/internal/sched"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/ssd"
)

// counters is every layer's cumulative ledger at one instant, read
// through public accessors and summed over the devices and shards of
// the system under test. Per-layer metrics are differences of two of
// these, so they are exact counts, not samples.
type counters struct {
	at sim.Time

	// nand, bus, ssd — the array's op counts and every server's busy time.
	nandReads, nandPrograms, nandErases int64 // programs include copy-backs
	lunBusy, chanBusy, linkBusy         []sim.Time
	devReads, devWrites                 int64
	pageSize                            int
	// The device's and the shards' own latency histograms since the
	// window armed (both are reset there).
	devReadLat, devWriteLat, shardLat *metrics.Histogram

	// ftl
	hostWrites, gcMoves, gcErases, bufStalls, bufHits, hostReads, readErrors int64

	// blockdev, sched
	cpuBusy, lockBusy sim.Time
	coreBusy          []sim.Time
	waitLS, waitTP    sim.Time

	// wal, kvstore, btree, bufpool
	walSyncs, walCommits, commits, checkpoints int64
	poolHits, poolMisses, poolEvictions        int64
	treeHeight                                 int

	// serve, place
	submitted, admitted, rejected, dropped, served, failed, missed int64
	steered, tie, avoidedGC, quorumWrites, writeRejects            int64
}

// system is what a workload exposes for counting: the devices, and the
// upper layers where the workload has them.
type system struct {
	eng    *sim.Engine
	devs   []*ssd.Device
	stacks []*blockdev.Stack
	scheds []*sched.Scheduler
	fab    *serve.Fabric
	pl     *place.Placement
}

func (s *system) snap() counters {
	c := counters{at: s.eng.Now(), devReadLat: &metrics.Histogram{}, devWriteLat: &metrics.Histogram{}, shardLat: &metrics.Histogram{}}
	for _, d := range s.devs {
		arr := d.Array()
		c.pageSize = arr.PageSize()
		c.devReadLat.Merge(&d.Metrics().ReadLat)
		c.devWriteLat.Merge(&d.Metrics().WriteLat)
		c.nandReads += arr.PageReads
		c.nandPrograms += arr.PagePrograms + arr.CopyBacks
		c.nandErases += arr.BlockErases
		for i := 0; i < arr.Chips(); i++ {
			chip := arr.Chip(i)
			for l := 0; l < chip.Geometry().LUNsPerChip; l++ {
				c.lunBusy = append(c.lunBusy, chip.LUNServer(l).Busy())
			}
		}
		for i := 0; i < arr.Channels(); i++ {
			c.chanBusy = append(c.chanBusy, arr.Channel(i).Server().Busy())
		}
		c.linkBusy = append(c.linkBusy, d.Link().Busy())
		c.devReads += d.Metrics().ReadLat.Count()
		c.devWrites += d.Metrics().WriteLat.Count()
		st := d.FTL().Stats()
		c.hostWrites += st.HostWrites
		c.hostReads += st.HostReads
		c.gcMoves += st.GCMoves
		c.gcErases += st.GCErases
		c.bufStalls += st.BufferStalls
		c.bufHits += st.BufferHits
		c.readErrors += st.ReadErrors
	}
	for _, st := range s.stacks {
		c.cpuBusy += st.CPUBusy()
		for i := 0; i < st.CPUs(); i++ {
			c.coreBusy = append(c.coreBusy, st.CPU(i).Busy())
		}
		if l := st.Lock(); l != nil {
			c.lockBusy += l.Busy()
		}
	}
	for _, sc := range s.scheds {
		w := sc.WaitTotals()
		c.waitLS += w[sched.LatencySensitive.String()]
		c.waitTP += w[sched.Throughput.String()]
	}
	if s.fab != nil {
		for _, sh := range s.fab.Shards() {
			st := sh.System().Store
			c.walSyncs += st.WAL().Syncs
			c.walCommits += st.WAL().Commits
			c.commits += st.Commits
			c.checkpoints += st.Checkpoints
			c.poolHits += st.Cache().Hits
			c.poolMisses += st.Cache().Misses
			c.poolEvictions += st.Cache().Evictions
			if h := st.TreeHeight(); h > c.treeHeight {
				c.treeHeight = h
			}
		}
		for _, name := range s.fab.ShardLatencies().Tenants() {
			c.shardLat.Merge(s.fab.ShardLatencies().Hist(name))
		}
		t := s.fab.Stats().Totals()
		c.submitted, c.admitted, c.rejected = t.Submitted, t.Admitted, t.Rejected
		c.dropped, c.served, c.failed, c.missed = t.Dropped, t.Served, t.Failed, t.DeadlineMissed
	}
	if s.pl != nil {
		l := s.pl.Ledger()
		c.steered, c.tie, c.avoidedGC = l.SteeredReads, l.TieReads, l.AvoidedGC
		c.quorumWrites, c.writeRejects = l.QuorumWrites, l.WriteRejects
	}
	return c
}

func subTimes(a, b []sim.Time) []sim.Time {
	out := make([]sim.Time, len(a))
	for i := range a {
		out[i] = a[i]
		if i < len(b) {
			out[i] -= b[i]
		}
	}
	return out
}

// sub is the ledger of the interval between two snapshots.
func (c counters) sub(b counters) counters {
	d := c
	d.at = c.at - b.at
	d.nandReads -= b.nandReads
	d.nandPrograms -= b.nandPrograms
	d.nandErases -= b.nandErases
	d.lunBusy = subTimes(c.lunBusy, b.lunBusy)
	d.chanBusy = subTimes(c.chanBusy, b.chanBusy)
	d.linkBusy = subTimes(c.linkBusy, b.linkBusy)
	d.coreBusy = subTimes(c.coreBusy, b.coreBusy)
	d.devReads -= b.devReads
	d.devWrites -= b.devWrites
	d.hostWrites -= b.hostWrites
	d.hostReads -= b.hostReads
	d.gcMoves -= b.gcMoves
	d.gcErases -= b.gcErases
	d.bufStalls -= b.bufStalls
	d.bufHits -= b.bufHits
	d.readErrors -= b.readErrors
	d.cpuBusy -= b.cpuBusy
	d.lockBusy -= b.lockBusy
	d.waitLS -= b.waitLS
	d.waitTP -= b.waitTP
	d.walSyncs -= b.walSyncs
	d.walCommits -= b.walCommits
	d.commits -= b.commits
	d.checkpoints -= b.checkpoints
	d.poolHits -= b.poolHits
	d.poolMisses -= b.poolMisses
	d.poolEvictions -= b.poolEvictions
	d.submitted -= b.submitted
	d.admitted -= b.admitted
	d.rejected -= b.rejected
	d.dropped -= b.dropped
	d.served -= b.served
	d.failed -= b.failed
	d.missed -= b.missed
	d.steered -= b.steered
	d.tie -= b.tie
	d.avoidedGC -= b.avoidedGC
	d.quorumWrites -= b.quorumWrites
	d.writeRejects -= b.writeRejects
	return d
}

// ratio is a/b, or 0 when the layer did no such work.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// utilization reports the mean and the maximum share of span that the
// servers were busy.
func utilization(busy []sim.Time, span sim.Time) (mean, max float64) {
	if len(busy) == 0 || span <= 0 {
		return 0, 0
	}
	var sum float64
	for _, b := range busy {
		u := float64(b) / float64(span)
		sum += u
		if u > max {
			max = u
		}
	}
	return sum / float64(len(busy)), max
}

// histQuantileUs reads a quantile of a layer's own latency histogram in
// microseconds.
func histQuantileUs(h *metrics.Histogram, q float64) float64 {
	if h == nil || h.Count() == 0 {
		return 0
	}
	return float64(h.Quantile(q)) / 1e3
}
