package metrics

// PlaceLedger is the replica-placement and migration accounting of
// package place: how reads were steered between replicas, how quorum
// writes fared, and what every live migration moved: plain counters,
// one ledger per placement that every replica group counts into.
type PlaceLedger struct {
	// ResidentReads counts point reads some replica could answer from
	// memory (its memtables or page cache), routed to such a replica
	// without a device signal. The other reads of a replicated group
	// must reach a device: SteeredReads counts those routed by live
	// device signals (GC activity, urgency, observed service time),
	// TieReads those where every replica's device scored equal and
	// round-robin decided.
	ResidentReads int64
	SteeredReads  int64
	TieReads      int64
	// AvoidedGC counts the subset of SteeredReads that moved away from
	// a device with garbage collection in flight — the paper's tail
	// mechanism, dodged per request.
	AvoidedGC int64
	// QuorumWrites counts writes committed on every replica before the
	// ack; WriteRejects counts writes refused at group admission because
	// some replica would not admit them (refused whole: no replica
	// applies a write the group cannot ack).
	QuorumWrites int64
	WriteRejects int64
	// HeldWrites counts writes parked during a migration cutover and
	// released to the new replica set; HoldNs is the total virtual time
	// writes spent parked (the cutover cost clients actually paid).
	HeldWrites int64
	HoldNs     int64

	// Migrations counts completed live migrations; MigrationsAborted
	// counts migrations abandoned (fabric stopped mid-flight).
	Migrations        int64
	MigrationsAborted int64
	// DriftTrips counts device service-time drift alarms that pulled
	// the migration trigger.
	DriftTrips int64
	// CopiedKeys counts keys streamed in bulk-copy phases, DeltaKeys the
	// keys re-copied by delta catch-up (written while the copy ran), and
	// CatchupRounds the catch-up passes taken before cutover.
	CopiedKeys    int64
	DeltaKeys     int64
	CatchupRounds int64
}

// Table renders the ledger for experiment output.
func (l *PlaceLedger) Table(title string) *Table {
	t := NewTable(title, "metric", "value")
	t.AddRow("resident reads", l.ResidentReads)
	t.AddRow("steered reads", l.SteeredReads)
	t.AddRow("tie (round-robin) reads", l.TieReads)
	t.AddRow("reads steered off GC", l.AvoidedGC)
	t.AddRow("quorum writes", l.QuorumWrites)
	t.AddRow("write rejects", l.WriteRejects)
	t.AddRow("writes held at cutover", l.HeldWrites)
	t.AddRow("cutover hold (µs)", l.HoldNs/1e3)
	t.AddRow("migrations", l.Migrations)
	t.AddRow("migrations aborted", l.MigrationsAborted)
	t.AddRow("drift trips", l.DriftTrips)
	t.AddRow("bulk keys copied", l.CopiedKeys)
	t.AddRow("delta keys copied", l.DeltaKeys)
	t.AddRow("catch-up rounds", l.CatchupRounds)
	return t
}
