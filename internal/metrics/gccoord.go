package metrics

// GCCoord is the host↔device GC-coordination ledger: one side records
// what the host's scheduler asked for (defer background garbage
// collection, resume it), the other what the device granted and what
// its free-pool floor forced. Package ftl fills the device-side fields,
// package sched the host-side ones, and package serve merges both
// across the devices of a fabric. Together the counters prove the
// mechanism engaged — and that deferral never starved the free pool.
type GCCoord struct {
	// HostRequests counts defer requests issued by the host scheduler
	// (fresh leases and renewals alike).
	HostRequests int64
	// HostResumes counts explicit resume calls issued by the host when
	// the latency burst that motivated a deferral drained.
	HostResumes int64

	// Defers counts defer requests the device accepted as a fresh
	// deferral session; Renewals counts accepted deadline extensions of
	// an already-active session.
	Defers   int64
	Renewals int64
	// Refused counts defer requests the device turned down because its
	// free pool was already at the floor (urgent state) — the bound
	// "deferral is limited by the device's headroom" in action.
	Refused int64
	// Expires counts sessions that lapsed at their deadline without a
	// host resume.
	Expires int64
	// FloorHits counts chip GC runs forced during an active session
	// because that chip reached the defer floor (or had writes parked
	// waiting for space); ForcedResumes counts sessions that hit the
	// floor at least once. FloorHits > ForcedResumes means several chips
	// (or several episodes) forced work within one session.
	FloorHits     int64
	ForcedResumes int64

	// MinHeadroomPages is the smallest free-pool headroom (in pages,
	// whole free blocks plus the GC frontier remainder) observed on any
	// chip while a deferral was active; -1 means no deferral was ever
	// active. The floor guarantee holds iff this never drops below the
	// device's GC reserve.
	MinHeadroomPages int
}

// NewGCCoord returns an empty ledger with MinHeadroomPages marked
// "never deferred".
func NewGCCoord() GCCoord { return GCCoord{MinHeadroomPages: -1} }

// Add folds other into g (counters sum; MinHeadroomPages takes the
// minimum over sides that ever deferred).
func (g *GCCoord) Add(other GCCoord) {
	g.HostRequests += other.HostRequests
	g.HostResumes += other.HostResumes
	g.Defers += other.Defers
	g.Renewals += other.Renewals
	g.Refused += other.Refused
	g.Expires += other.Expires
	g.FloorHits += other.FloorHits
	g.ForcedResumes += other.ForcedResumes
	if other.MinHeadroomPages >= 0 &&
		(g.MinHeadroomPages < 0 || other.MinHeadroomPages < g.MinHeadroomPages) {
		g.MinHeadroomPages = other.MinHeadroomPages
	}
}

// Table renders the ledger as a one-row table, for experiment output.
func (g *GCCoord) Table(title string) *Table {
	t := NewTable(title, "host req", "host resume", "defers", "renewals",
		"refused", "expires", "floor hits", "forced resumes", "min headroom (pages)")
	t.AddRow(g.HostRequests, g.HostResumes, g.Defers, g.Renewals, g.Refused,
		g.Expires, g.FloorHits, g.ForcedResumes, g.MinHeadroomPages)
	return t
}
