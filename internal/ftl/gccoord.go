package ftl

import (
	"fmt"

	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/sim"
)

// This file is the host→device half of the paper's "communicating
// peers" interface: the GC control surface. The device→host half
// (SetGCNotifier) tells the host when relocation traffic is running;
// this half lets the host shape *when* that traffic runs — defer
// background garbage collection while latency-sensitive work is in
// flight, bounded by a hard free-pool floor the host cannot override.

// GCUrgency classifies the device's reclamation pressure, coarsely
// enough to cross the host interface.
type GCUrgency int

// Urgency levels.
const (
	// GCRelaxed: every chip is at or above the low watermark; no GC
	// wants to run, deferral is free.
	GCRelaxed GCUrgency = iota
	// GCElevated: some chip is below the low watermark, so background
	// GC wants to run; deferral is honored but spends real headroom.
	GCElevated
	// GCUrgent: some chip is at or below the defer floor, or has writes
	// parked waiting for space. Defer requests are refused and forced
	// collection may already be running.
	GCUrgent
)

// GCUrgency reports the device's current reclamation pressure — the
// host-visible summary a scheduler can poll before spending a defer
// request.
func (f *PageFTL) GCUrgency() GCUrgency {
	worst := GCRelaxed
	for c := range f.chips {
		cs := &f.chips[c]
		if len(cs.free) <= f.cfg.gcReserve || cs.pending.Len() > 0 {
			return GCUrgent
		}
		if len(cs.free) < f.cfg.GCLowWater {
			worst = GCElevated
		}
	}
	return worst
}

// DeferGC asks the device to park background garbage collection until
// the given virtual-time deadline. It
// reports whether the request was honored: a device whose free pool is
// already at the defer floor (GCUrgent) refuses, and an honored
// deferral is still bounded by that floor — any chip that reaches it,
// or accumulates parked writes, collects anyway (a floor hit). Calling
// again with a later deadline extends the active session (a renewal);
// an earlier deadline leaves the session untouched. GC already in
// flight finishes its current victim but stops at the low watermark
// instead of the high one, returning the device to quiet as early as
// safety allows.
func (f *PageFTL) DeferGC(deadline sim.Time) bool {
	now := f.eng.Now()
	if deadline <= now {
		return false
	}
	if f.GCUrgency() == GCUrgent {
		f.coord.Refused++
		return false
	}
	if deadline <= f.gcDeferUntil {
		return true // already covered by the active session
	}
	if f.gcDeferUntil > now {
		f.coord.Renewals++
	} else {
		f.coord.Defers++
		f.deferFloorHit = false
	}
	f.gcDeferUntil = deadline
	f.eng.Schedule(deadline, f.deferExpired)
	return true
}

// ResumeGC ends an active deferral session immediately and kicks
// collection on every chip below its low watermark — the host's signal
// that the latency burst it was protecting has drained. (Resume counts
// live on the host side of the ledger; see sched.Scheduler.GCCoord.)
func (f *PageFTL) ResumeGC() {
	f.gcDeferUntil = 0
	f.kickAllGC()
}

// GCDeferred reports whether a deferral session is active right now.
func (f *PageFTL) GCDeferred() bool { return f.gcDeferUntil > f.eng.Now() }

// SetEventSink wires a health-event sink for the device-side GC
// coordination moments (floor hits, forced collection), labeled with
// the device's name. A nil sink detaches.
func (f *PageFTL) SetEventSink(sink obs.EventSink, label string) {
	f.evsink, f.evlabel = sink, label
}

// GCCoord returns the device-side coordination ledger.
func (f *PageFTL) GCCoord() metrics.GCCoord { return f.coord }

// deferExpired runs at a session deadline: if the session was neither
// resumed nor renewed past this instant, it lapses and parked GC runs.
func (f *PageFTL) deferExpired() {
	if f.gcDeferUntil == 0 || f.gcDeferUntil > f.eng.Now() {
		return // resumed early, or renewed to a later deadline
	}
	f.gcDeferUntil = 0
	f.coord.Expires++
	f.kickAllGC()
}

// kickAllGC re-evaluates GC on every chip (after a deferral ends).
func (f *PageFTL) kickAllGC() {
	for c := range f.chips {
		f.maybeStartGC(c)
	}
}

// deferredNow reports whether background GC on chip is parked by an
// active deferral session, charging floor accounting when the session
// is overridden. Callers have already established that chip wants GC.
func (f *PageFTL) deferredNow(chip int) bool {
	if f.gcDeferUntil <= f.eng.Now() {
		return false
	}
	cs := &f.chips[chip]
	if h := f.headroomPages(chip); f.coord.MinHeadroomPages < 0 || h < f.coord.MinHeadroomPages {
		f.coord.MinHeadroomPages = h
	}
	if len(cs.free) > f.cfg.gcReserve && cs.pending.Len() == 0 {
		return true // honored: stay parked
	}
	// The hard floor: this chip is out of discretionary headroom (or
	// host writes are already parked on it). Collect regardless of the
	// host's wishes; the session stays active for healthier chips.
	f.coord.FloorHits++
	if f.evsink != nil {
		f.evsink.Emit(obs.HealthEvent{
			Kind: obs.EventFloorHit, At: f.eng.Now(), Name: f.evlabel,
			Value:  float64(f.headroomPages(chip)),
			Detail: fmt.Sprintf("chip %d free pool at defer floor", chip),
		})
	}
	if !f.deferFloorHit {
		f.deferFloorHit = true
		f.coord.ForcedResumes++
		if f.evsink != nil {
			f.evsink.Emit(obs.HealthEvent{
				Kind: obs.EventForcedGC, At: f.eng.Now(), Name: f.evlabel,
				Value:  float64(chip),
				Detail: fmt.Sprintf("collection forced over an active lease on chip %d", chip),
			})
		}
	}
	return false
}

// gcStopWater is the free-block count at which a running GC pass
// parks: the high watermark normally, but only the low watermark while
// a deferral session is active — reclaim to safety, not to comfort,
// then hand the LUNs back to host traffic.
func (f *PageFTL) gcStopWater(chip int) int {
	if f.gcDeferUntil > f.eng.Now() && f.chips[chip].pending.Len() == 0 {
		return f.cfg.GCLowWater
	}
	return f.cfg.GCHighWater
}

// GCTouch is a point-in-time probe of the GC state relevant to one
// logical page: which chip currently holds it, whether that chip is
// collecting right now, whether a host defer lease is active, and the
// cumulative forced-collection counter (so a caller bracketing an I/O
// can detect a forced GC firing in its shadow). The observability
// layer (package obs, via blockdev) uses it to annotate trace spans.
type GCTouch struct {
	Chip       int   `json:"chip"`
	Collecting bool  `json:"collecting"`
	Deferred   bool  `json:"deferred"`
	FloorHits  int64 `json:"floor_hits"`
}

// GCTouch probes the GC context of lpn. For an unmapped or
// out-of-range lpn the chip is -1 and Collecting reports whether any
// chip is collecting (a write's destination chip is not yet known).
func (f *PageFTL) GCTouch(lpn int64) GCTouch {
	t := GCTouch{Chip: -1, Deferred: f.GCDeferred(), FloorHits: f.coord.FloorHits}
	if lpn >= 0 && lpn < int64(len(f.mapping)) {
		if ppa := f.lookup(lpn); ppa != InvalidPPA {
			c := f.arr.ChipOf(ppa)
			t.Chip = c
			t.Collecting = f.chips[c].gcActive
			return t
		}
	}
	t.Collecting = f.gcBusy > 0
	return t
}
