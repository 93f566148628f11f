package metrics

// Estimator is the windowed service-time estimator every adaptive
// policy in the control plane consumes: per operation class it keeps a
// ring of rolling sub-window histograms (so quantiles reflect only the
// recent past and forget a device's former self) plus an EWMA mean (so
// ratio queries are smooth). Times are int64 nanoseconds, matching
// Histogram; callers pass the current virtual time explicitly so the
// package stays clock-free.
//
// One Estimator feeds several actuators at once: blockdev calibrates
// DRR read/write billing from the class EWMAs, serve derives per-class
// admission deadlines and early-drop predictions from the window
// quantiles, and the SLO controller reads the same window the admission
// path does.
type Estimator struct {
	window int64 // sub-window span (ns)
	slots  int
	alpha  float64
	byName map[string]*ClassEstimate
}

// ClassEstimate is one op class's live estimate. The ring holds `slots`
// sub-windows; `merged` is kept equal to the sum of all live slots at
// all times (records land in both, roll-over rebuilds it), so quantile
// queries cost one histogram walk and never a sort or merge.
type ClassEstimate struct {
	e *Estimator

	ewma   float64
	seeded bool
	total  int64 // lifetime samples

	ring      []Histogram
	cur       int
	slotStart int64 // start instant of ring[cur]; -1 until first sample
	merged    Histogram
}

// NewEstimator builds an estimator with the given sub-window span in
// nanoseconds, ring size, and EWMA smoothing factor. window <= 0 means
// 2ms, slots < 2 means 4, alpha outside (0,1] means 0.2.
func NewEstimator(window int64, slots int, alpha float64) *Estimator {
	if window <= 0 {
		window = 2_000_000
	}
	if slots < 2 {
		slots = 4
	}
	if alpha <= 0 || alpha > 1 {
		alpha = 0.2
	}
	return &Estimator{
		window: window,
		slots:  slots,
		alpha:  alpha,
		byName: make(map[string]*ClassEstimate),
	}
}

// Class returns the named class's estimate, creating it on first use.
func (e *Estimator) Class(name string) *ClassEstimate {
	c, ok := e.byName[name]
	if !ok {
		c = &ClassEstimate{e: e, ring: make([]Histogram, e.slots), slotStart: -1}
		e.byName[name] = c
	}
	return c
}

// Record adds one service-time sample (ns) for class at virtual time
// now (ns).
func (e *Estimator) Record(class string, now, v int64) {
	e.Class(class).Record(now, v)
}

// EWMA reports the class's smoothed mean service time in nanoseconds,
// or 0 before any sample.
func (e *Estimator) EWMA(class string) float64 {
	if c, ok := e.byName[class]; ok {
		return c.EWMA()
	}
	return 0
}

// Record adds one sample at virtual time now.
func (c *ClassEstimate) Record(now, v int64) {
	if v < 0 {
		v = 0
	}
	c.roll(now)
	c.ring[c.cur].Record(v)
	c.merged.Record(v)
	c.total++
	if !c.seeded {
		c.ewma = float64(v)
		c.seeded = true
	} else {
		c.ewma += c.e.alpha * (float64(v) - c.ewma)
	}
}

// roll advances the ring so ring[cur] covers now. A gap longer than the
// whole ring discards everything (the window saw nothing; stale
// quantiles must not outlive their span).
func (c *ClassEstimate) roll(now int64) {
	w := c.e.window
	if c.slotStart < 0 {
		c.slotStart = now - now%w
		return
	}
	if now < c.slotStart+w {
		return
	}
	steps := (now - c.slotStart) / w
	if steps >= int64(len(c.ring)) {
		for i := range c.ring {
			c.ring[i].Reset()
		}
		c.merged.Reset()
		c.cur = 0
		c.slotStart = now - now%w
		return
	}
	for ; steps > 0; steps-- {
		c.cur = (c.cur + 1) % len(c.ring)
		c.ring[c.cur].Reset()
		c.slotStart += w
	}
	c.merged.Reset()
	for i := range c.ring {
		c.merged.Merge(&c.ring[i])
	}
}

// Observe rolls the window forward to now without recording a sample,
// so a class that went quiet ages out of its own estimate.
func (c *ClassEstimate) Observe(now int64) { c.roll(now) }

// EWMA reports the smoothed mean in nanoseconds (0 before any sample).
func (c *ClassEstimate) EWMA() float64 { return c.ewma }

// Quantile reports the q-quantile over the live window (0 when the
// window is empty). Callers that need freshness against a silent class
// should Observe(now) first.
func (c *ClassEstimate) Quantile(q float64) int64 { return c.merged.Quantile(q) }

// Mean reports the arithmetic mean over the live window (unlike EWMA,
// it weighs every windowed sample equally).
func (c *ClassEstimate) Mean() float64 { return c.merged.Mean() }

// WindowCount reports samples currently inside the window.
func (c *ClassEstimate) WindowCount() int64 { return c.merged.Count() }

// Count reports lifetime samples.
func (c *ClassEstimate) Count() int64 { return c.total }
