package metrics

// RepairLedger is the failure-domain accounting of package place: what
// device deaths cost and what the repair machinery did about them. Like
// PlaceLedger it is plain counters with Add, owned by the Placement (one
// per fabric — device death is a fabric-wide event, not a per-group one).
type RepairLedger struct {
	// DeviceDeaths counts devices killed under the placement;
	// ReplicasLost counts the replicas those deaths dropped out of their
	// groups (a device usually carries one replica of many groups).
	DeviceDeaths int64
	ReplicasLost int64
	// DegradedWrites and DegradedReads count requests served while their
	// group ran below full replication — the exposure window repairs
	// exist to close.
	DegradedWrites int64
	DegradedReads  int64
	// Unavailable counts requests refused because a group had no live
	// replica at all (the survivor died before or during rebuild) — the
	// loud failure mode: clients see errors, never silently lost acks.
	Unavailable int64

	// Repairs counts rebuilds completed (a lost replica re-created on a
	// spare from the survivor's snapshot plus delta catch-up);
	// RepairsAborted counts rebuilds abandoned mid-copy (survivor died,
	// destination drifted, fabric stopped); RepairStalls counts poll
	// rounds where an under-replicated group found no destination with a
	// free slot (spares exhausted — retried every round).
	Repairs        int64
	RepairsAborted int64
	RepairStalls   int64
	// RepairNs is total virtual time groups spent under-replicated
	// before a completed repair re-replicated them (summed per repair:
	// replica loss to cutover).
	RepairNs int64
	// CrashResyncs counts replicas re-synchronized from their survivor
	// after a single-device crash dropped that device's volatile acks.
	CrashResyncs int64
}

// Table renders the ledger for experiment output.
func (l *RepairLedger) Table(title string) *Table {
	t := NewTable(title, "metric", "value")
	t.AddRow("device deaths", l.DeviceDeaths)
	t.AddRow("replicas lost", l.ReplicasLost)
	t.AddRow("degraded writes", l.DegradedWrites)
	t.AddRow("degraded reads", l.DegradedReads)
	t.AddRow("unavailable requests", l.Unavailable)
	t.AddRow("repairs completed", l.Repairs)
	t.AddRow("repairs aborted", l.RepairsAborted)
	t.AddRow("repair stalls (no slot)", l.RepairStalls)
	t.AddRow("under-replicated time (µs)", l.RepairNs/1e3)
	t.AddRow("crash resyncs", l.CrashResyncs)
	return t
}
