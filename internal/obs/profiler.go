package obs

import (
	"fmt"
	"maps"
	"sort"
	"strings"

	"repro/internal/sim"
)

// ResourceKind types a profiled resource.
type ResourceKind string

// Resource kinds, in stack order: flash chips and bus channels inside
// the device, the device's host link, the block layer's submission/
// completion cores and shared submission lock on the host.
const (
	ResChip    ResourceKind = "chip"
	ResChannel ResourceKind = "channel"
	ResLink    ResourceKind = "link"
	ResCPU     ResourceKind = "cpu"
	ResLock    ResourceKind = "lock"
)

// DeviceSide reports whether a kind lives below the host link boundary
// (chip, channel, link) — the "device-bound vs host-bound" split the
// bottleneck report names.
func (k ResourceKind) DeviceSide() bool {
	return k == ResChip || k == ResChannel || k == ResLink
}

// causeOf normalizes a server occupancy label into the cause taxonomy
// the profile reports: what kind of work held the resource. Labels a
// kind does not recognize land in "other", which a closed profile
// requires to be empty — a new label added anywhere in the stack must
// be claimed here before E24 passes again.
func causeOf(kind ResourceKind, label string) string {
	switch kind {
	case ResChip:
		switch label {
		case "read":
			return "read"
		case "prog":
			return "program"
		case "erase":
			return "erase"
		case "copyback", "gc-read", "gc-prog":
			return "gc-copy"
		case "map-read", "map-prog":
			return "map"
		}
	case ResChannel:
		switch label {
		case "xfer-out":
			return "read"
		case "xfer-in":
			return "program"
		case "erase-cmd":
			return "erase"
		case "gc-xfer-out", "gc-xfer-in":
			return "gc-copy"
		case "map-xfer":
			return "map"
		}
	case ResLink:
		switch label {
		case "cmd", "flush-cmd":
			return "command"
		case "read-xfer":
			return "read-transfer"
		case "write-xfer", "nameless-xfer", "atomic-xfer":
			return "write-transfer"
		}
	case ResCPU:
		switch {
		case label == "complete":
			return "complete"
		case strings.HasSuffix(label, "-submit"):
			return "submit"
		}
	case ResLock:
		if label == "queue-lock" {
			return "hold"
		}
	}
	return "other"
}

// profResource is one attributed resource: a named group of sim.Servers
// (a chip is its LUN servers, a channel/CPU/lock/link is one server).
type profResource struct {
	kind    ResourceKind
	name    string
	servers []*sim.Server

	base   sim.Time            // Σ server Busy() at attach/rebase
	seen   sim.Time            // Σ server Busy() at the last tap (absolute)
	causes map[string]sim.Time // attributed busy per cause
	attr   sim.Time            // Σ causes, kept as each tap lands
	waitNs sim.Time            // queue wait behind the resource (overlay)
}

// util is the resource's attributed busy over window × server count.
func (r *profResource) util(window sim.Time) float64 {
	if window <= 0 {
		return 0
	}
	return float64(r.attr) / (float64(window) * float64(len(r.servers)))
}

// waitSource is one wait overlay: an owner's cumulative per-class wait
// totals, read at snapshot time and diffed against the window's start.
type waitSource struct {
	name string
	read func() map[string]sim.Time
	base map[string]sim.Time
}

// Profiler attributes every unit of server busy time to a typed
// resource and a cause, by tapping each attached server's reservations
// (sim.Server.SetTap). Attribution is two-path by construction: the
// tap-fed cause ledger must close exactly against the busy counters the
// servers keep on their own — a missed wiring, a tap replaced by a
// double attach, or a mid-window StartTrace (which resets Busy) shows
// up as unattributed or double-counted time instead of silently wrong
// percentages. Profiling charges zero virtual time: taps only
// accumulate host-side counters.
type Profiler struct {
	resources []*profResource
	waits     []*waitSource
	since     sim.Time // window start (attach or last rebase)
	lastAt    sim.Time // most recent tap (window end)
}

// NewProfiler returns an empty profiler.
func NewProfiler() *Profiler { return &Profiler{} }

// Attach registers one resource backed by the given servers and taps
// them. Each server belongs to exactly one resource: attaching a server
// twice silently replaces its tap, which the closure check surfaces as
// drift on the first resource. Nil-safe.
func (p *Profiler) Attach(kind ResourceKind, name string, servers ...*sim.Server) {
	if p == nil || len(servers) == 0 {
		return
	}
	r := &profResource{kind: kind, name: name, servers: servers, causes: map[string]sim.Time{}}
	for _, s := range servers {
		r.base += s.Busy()
	}
	r.seen = r.base
	p.resources = append(p.resources, r)
	for _, s := range servers {
		s.SetTap(func(label string, wait, busy, at sim.Time) {
			r.causes[causeOf(kind, label)] += busy
			r.attr += busy
			r.waitNs += wait
			// Re-read the group's busy counters (the tap fires inside
			// Use) so the window ends at the last tap.
			var tot sim.Time
			for _, srv := range r.servers {
				tot += srv.Busy()
			}
			r.seen = tot
			if at > p.lastAt {
				p.lastAt = at
			}
		})
	}
}

// AttachWaits registers a named wait-overlay source: read returns its
// owner's cumulative per-class wait totals (sched.Scheduler.WaitTotals).
// A snapshot reports each class's growth since the window started,
// leaving out classes that did not grow. Nil-safe.
func (p *Profiler) AttachWaits(name string, read func() map[string]sim.Time) {
	if p == nil || read == nil {
		return
	}
	p.waits = append(p.waits, &waitSource{name: name, read: read, base: maps.Clone(read())})
}

// Rebase restarts the attribution window at now: cause ledgers clear,
// each resource's busy baseline re-reads its servers, and each wait
// source's baseline re-reads its totals. Call after warmup/preload, next to the fabric's stat reset.
// Nil-safe.
func (p *Profiler) Rebase(now sim.Time) {
	if p == nil {
		return
	}
	p.since, p.lastAt = now, now
	for _, r := range p.resources {
		r.base = 0
		for _, s := range r.servers {
			r.base += s.Busy()
		}
		r.seen = r.base
		r.causes = map[string]sim.Time{}
		r.attr, r.waitNs = 0, 0
	}
	for _, w := range p.waits {
		w.base = maps.Clone(w.read())
	}
}

// ResourceProfile is one resource's attributed window.
type ResourceProfile struct {
	Kind ResourceKind `json:"kind"`
	Name string       `json:"name"`
	// BusyNs is the measured busy delta: the servers' own counters,
	// independent of the cause ledger.
	BusyNs int64 `json:"busy_ns"`
	// AttributedNs sums the cause ledger; a closed profile has
	// AttributedNs == BusyNs exactly.
	AttributedNs    int64 `json:"attributed_ns"`
	UnattributedNs  int64 `json:"unattributed_ns"`
	DoubleCountedNs int64 `json:"double_counted_ns"`
	// OtherNs is busy time whose label no cause claims — attributed,
	// but unexplained; zero in a fully named profile.
	OtherNs int64 `json:"other_ns,omitempty"`
	// WaitNs is the queue-wait overlay: how long reservations waited
	// behind earlier work on this resource (not part of the closure).
	WaitNs int64 `json:"wait_ns,omitempty"`
	// Utilization is attributed busy over window × server count
	// (a chip with 4 LUNs divides by 4× the window).
	Utilization float64          `json:"utilization"`
	Causes      map[string]int64 `json:"causes,omitempty"`
}

// Profile is one profiler snapshot: every resource's attribution over
// the window, the wait-overlay sources, and the folded-stack flame
// export.
type Profile struct {
	WindowNs  int64                       `json:"window_ns"`
	Resources []ResourceProfile           `json:"resources"`
	Waits     map[string]map[string]int64 `json:"waits,omitempty"`
	// Folded is the flame export: one "kind;name;cause value" line per
	// non-zero cause, renderable by standard flamegraph tooling.
	Folded string `json:"folded"`
}

// Snapshot exports the current attribution.
func (p *Profiler) Snapshot() Profile {
	if p == nil {
		return Profile{}
	}
	window := p.lastAt - p.since
	pr := Profile{WindowNs: int64(window)}
	for _, r := range p.resources {
		rp := ResourceProfile{
			Kind:   r.kind,
			Name:   r.name,
			BusyNs: int64(r.seen - r.base),
			WaitNs: int64(r.waitNs),
			Causes: make(map[string]int64, len(r.causes)),
		}
		for cause, ns := range r.causes {
			rp.Causes[cause] = int64(ns)
			rp.AttributedNs += int64(ns)
		}
		rp.OtherNs = rp.Causes["other"]
		if gap := rp.BusyNs - rp.AttributedNs; gap > 0 {
			rp.UnattributedNs = gap
		} else {
			rp.DoubleCountedNs = -gap
		}
		rp.Utilization = r.util(window)
		pr.Resources = append(pr.Resources, rp)
	}
	sort.Slice(pr.Resources, func(i, j int) bool {
		a, b := pr.Resources[i], pr.Resources[j]
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		return a.Name < b.Name
	})
	if len(p.waits) > 0 {
		pr.Waits = make(map[string]map[string]int64, len(p.waits))
		for _, w := range p.waits {
			out := map[string]int64{}
			for class, ns := range w.read() {
				if d := ns - w.base[class]; d != 0 {
					out[class] = int64(d)
				}
			}
			pr.Waits[w.name] = out
		}
	}
	pr.Folded = pr.fold()
	return pr
}

// fold renders the folded-stack flame lines, sorted for determinism.
func (pr Profile) fold() string {
	var lines []string
	for _, r := range pr.Resources {
		for cause, ns := range r.Causes {
			if ns > 0 {
				lines = append(lines, fmt.Sprintf("%s;%s;%s %d", r.Kind, r.Name, cause, ns))
			}
		}
	}
	sort.Strings(lines)
	if len(lines) == 0 {
		return ""
	}
	return strings.Join(lines, "\n") + "\n"
}

// UnattributedNs sums busy time the cause ledger missed; DoubleCountedNs
// sums ledger time past the measured busy. A closed profile has both
// zero on every resource.
func (pr Profile) UnattributedNs() int64 {
	var n int64
	for _, r := range pr.Resources {
		n += r.UnattributedNs
	}
	return n
}

// DoubleCountedNs sums over-attributed time (see UnattributedNs).
func (pr Profile) DoubleCountedNs() int64 {
	var n int64
	for _, r := range pr.Resources {
		n += r.DoubleCountedNs
	}
	return n
}

// OtherNs sums busy time attributed only to the fallback "other" cause.
func (pr Profile) OtherNs() int64 {
	var n int64
	for _, r := range pr.Resources {
		n += r.OtherNs
	}
	return n
}

// TopResource is one entry of the saturation report: the most-utilized
// resource of a kind and the cause holding most of its time.
type TopResource struct {
	Resource    ResourceProfile `json:"resource"`
	TopCause    string          `json:"top_cause"`
	CauseNs     int64           `json:"cause_ns"`
	CauseShare  float64         `json:"cause_share"`
	DeviceBound bool            `json:"device_bound"`
}

// topCause names a resource's dominant cause (ties broken by name for
// determinism).
func topCause(r ResourceProfile) (string, int64) {
	var name string
	var max int64 = -1
	causes := make([]string, 0, len(r.Causes))
	for c := range r.Causes {
		causes = append(causes, c)
	}
	sort.Strings(causes)
	for _, c := range causes {
		if r.Causes[c] > max {
			name, max = c, r.Causes[c]
		}
	}
	if max < 0 {
		return "", 0
	}
	return name, max
}

// TopResources reports the saturated resource per kind, most-utilized
// kinds first — the "where does the machine's time go" answer. Kinds
// with no attributed time are omitted.
func (pr Profile) TopResources() []TopResource {
	best := map[ResourceKind]ResourceProfile{}
	for _, r := range pr.Resources {
		b, ok := best[r.Kind]
		if !ok || r.Utilization > b.Utilization ||
			(r.Utilization == b.Utilization && r.Name < b.Name) {
			best[r.Kind] = r
		}
	}
	var out []TopResource
	for _, r := range best {
		if r.AttributedNs == 0 {
			continue
		}
		cause, ns := topCause(r)
		t := TopResource{Resource: r, TopCause: cause, CauseNs: ns, DeviceBound: r.Kind.DeviceSide()}
		if r.AttributedNs > 0 {
			t.CauseShare = float64(ns) / float64(r.AttributedNs)
		}
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Resource.Utilization != b.Resource.Utilization {
			return a.Resource.Utilization > b.Resource.Utilization
		}
		return a.Resource.Name < b.Resource.Name
	})
	return out
}

// Top returns the single most-utilized resource, or false when nothing
// has attributed time yet.
func (pr Profile) Top() (TopResource, bool) {
	tops := pr.TopResources()
	if len(tops) == 0 {
		return TopResource{}, false
	}
	return tops[0], true
}

// MaxUtil reports the highest utilization among resources of the given
// kind — the sampler gauges behind the fabric.util.* series.
func (p *Profiler) MaxUtil(kind ResourceKind) float64 {
	if p == nil {
		return 0
	}
	var max float64
	for _, r := range p.resources {
		if r.kind != kind {
			continue
		}
		if u := r.util(p.lastAt - p.since); u > max {
			max = u
		}
	}
	return max
}

// UtilOf reports one named resource's utilization (the per-chip heatmap
// gauges). Unknown names read 0.
func (p *Profiler) UtilOf(kind ResourceKind, name string) float64 {
	if p == nil {
		return 0
	}
	for _, r := range p.resources {
		if r.kind == kind && r.name == name {
			return r.util(p.lastAt - p.since)
		}
	}
	return 0
}
