package metrics

// Drift is the one drift state machine both detectors run — the
// placement layer's DriftAlarm over a class's windowed mean, and the
// health monitor's drift watch over a sampled gauge. Its baseline is
// the mean of the first n positive values it observes, the device's
// known-good self; every later positive value is read as a ratio
// against it. It trips once confirm consecutive ratios reach threshold
// and stays tripped (aging does not heal) until Reset. A non-positive
// value neither arms nor trips: a gauge that is not yet meaningful
// says nothing about the device.
type Drift struct {
	threshold  float64
	n, confirm int

	sum     float64 // of the first seen (<= n) values
	seen    int
	run     int // consecutive ratios at or above threshold
	ratio   float64
	tripped bool
}

// NewDrift builds a detector that baselines on n values and trips on
// confirm consecutive ratios of at least threshold.
func NewDrift(threshold float64, n, confirm int) *Drift {
	return &Drift{threshold: threshold, n: n, confirm: confirm}
}

// Observe feeds one value and reports whether the detector has tripped.
func (d *Drift) Observe(v float64) bool {
	if d.tripped || v <= 0 {
		return d.tripped
	}
	if d.seen < d.n {
		d.sum += v
		d.seen++
		return false
	}
	if d.ratio = v / (d.sum / float64(d.n)); d.ratio < d.threshold {
		d.run = 0
		return false
	}
	d.run++
	d.tripped = d.run >= d.confirm
	return d.tripped
}

// Ratio reports the last value observed after arming over the baseline
// (0 before the baseline is armed).
func (d *Drift) Ratio() float64 { return d.ratio }

// Reset drops the baseline and the trip, so the next n positive values
// become the new known-good.
func (d *Drift) Reset() { d.sum, d.seen, d.run, d.ratio, d.tripped = 0, 0, 0, 0, false }

// DriftAlarm watches one class's windowed mean service time for a
// sustained trend away from a baseline captured when the device was
// last known-good — the "device aging" signal. The estimator's rolling
// window already forgets the device's former self; the alarm is the
// piece that *remembers* it: the first warm window arms the baseline,
// and every later check compares the current windowed mean against it
// (a Drift of n = 1, confirm = 1). A placement layer consumes the trip
// to trigger live shard migration before the SLO shows the damage.
//
// The alarm deliberately reads the windowed mean, not the EWMA: the
// EWMA carries decayed memory of the pre-drift device, so it understates
// a step change exactly when the alarm should be loudest.
type DriftAlarm struct {
	cls        *ClassEstimate
	minSamples int64
	drift      *Drift
}

// DriftAlarm builds an alarm over the class: it arms its baseline from
// the first window holding at least minSamples samples, and trips when
// a later window's mean reaches threshold × baseline.
func (c *ClassEstimate) DriftAlarm(threshold float64, minSamples int64) *DriftAlarm {
	return &DriftAlarm{cls: c, minSamples: minSamples, drift: NewDrift(threshold, 1, 1)}
}

// Check rolls the class window to now, feeds its mean to the drift
// state machine, and reports whether the alarm is tripped (latched).
// Checks against a cold window (fewer than minSamples samples) neither
// arm nor trip: a quiet class must not alarm on a handful of
// stragglers.
func (a *DriftAlarm) Check(now int64) bool {
	if a.drift.tripped {
		return true
	}
	a.cls.Observe(now)
	if a.cls.WindowCount() < a.minSamples {
		return false
	}
	return a.drift.Observe(a.cls.Mean())
}
