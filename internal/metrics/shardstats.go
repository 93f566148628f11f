package metrics

// ShardCounters is one shard's serving-boundary accounting: what
// arrived, what admission let through, what was served within its
// deadline. The serving fabric (package serve) increments these at the
// shard boundary; experiments render them next to TenantLatencies.
type ShardCounters struct {
	// Submitted counts every request routed to the shard.
	Submitted int64
	// Admitted counts requests accepted into the shard queue.
	Admitted int64
	// Rejected counts requests refused at admission (queue full, token
	// bucket empty, or predicted to miss — every refusal, whatever the
	// reason).
	Rejected int64
	// EarlyDropped counts the subset of Rejected refused by the
	// p99-aware early drop: the observed service-time distribution said
	// the request's queue position already implied a deadline miss.
	EarlyDropped int64
	// Dropped counts admitted requests abandoned unserved (fabric
	// stopped with a backlog).
	Dropped int64
	// Served counts requests executed to completion.
	Served int64
	// Failed counts admitted requests whose execution errored in the
	// storage engine (they are neither served nor latency samples).
	Failed int64
	// DeadlineMissed counts served requests that completed after their
	// class deadline.
	DeadlineMissed int64
	// MaxQueue is the high-water queued-request count.
	MaxQueue int
}

// Add folds other into c, field by field (MaxQueue takes the max).
func (c *ShardCounters) Add(other ShardCounters) {
	c.Submitted += other.Submitted
	c.Admitted += other.Admitted
	c.Rejected += other.Rejected
	c.EarlyDropped += other.EarlyDropped
	c.Dropped += other.Dropped
	c.Served += other.Served
	c.Failed += other.Failed
	c.DeadlineMissed += other.DeadlineMissed
	if other.MaxQueue > c.MaxQueue {
		c.MaxQueue = other.MaxQueue
	}
}

// RejectRate is Rejected / Submitted.
func (c *ShardCounters) RejectRate() float64 { return rate(c.Rejected, c.Submitted) }

// MissRate is DeadlineMissed / Served.
func (c *ShardCounters) MissRate() float64 { return rate(c.DeadlineMissed, c.Served) }

func rate(part, whole int64) float64 {
	if whole == 0 {
		return 0
	}
	return float64(part) / float64(whole)
}

// ShardStats keys ShardCounters by shard name, preserving first-seen
// order so tables render deterministically — the serving-side sibling
// of TenantLatencies.
type ShardStats struct {
	order  []string
	shards map[string]*ShardCounters
}

// NewShardStats returns an empty per-shard counter set.
func NewShardStats() *ShardStats {
	return &ShardStats{shards: make(map[string]*ShardCounters)}
}

// Shard returns the named shard's counters, creating them on first use.
func (s *ShardStats) Shard(name string) *ShardCounters {
	c, ok := s.shards[name]
	if !ok {
		c = &ShardCounters{}
		s.shards[name] = c
		s.order = append(s.order, name)
	}
	return c
}

// Shards lists shard names in first-seen order.
func (s *ShardStats) Shards() []string { return s.order }

// Totals sums every shard's counters (MaxQueue is the max across
// shards).
func (s *ShardStats) Totals() ShardCounters {
	var t ShardCounters
	for _, name := range s.order {
		t.Add(*s.shards[name])
	}
	return t
}

// Reset zeroes every shard's counters but keeps the shard set.
func (s *ShardStats) Reset() {
	for _, c := range s.shards {
		*c = ShardCounters{}
	}
}
