package serve

import (
	"fmt"

	"repro/internal/metrics"
	"repro/internal/sim"
)

// AutoscaleConfig bounds the fabric's SLO controller. The controller
// is the actuation half of the control plane at the serving boundary:
// it reads each shard's interval deadline-miss and reject rates (the
// same ShardStats the experiments print) and walks that shard's worker
// pool and admission token rate inside these bounds — capacity follows
// the observed SLO instead of a provisioning guess.
type AutoscaleConfig struct {
	// Enabled turns the controller on.
	Enabled bool
	// Interval is the control period (zero = 5ms). Each tick looks only
	// at the interval's delta counters, so old sins age out.
	Interval sim.Time
	// MinWorkers and MaxWorkers bound the per-shard worker pool (zeros
	// mean 1 and 4 × WorkersPerShard).
	MinWorkers, MaxWorkers int
}

// The controller's fixed parameters.
const (
	// missHigh and missLow are the deadband on the interval miss rate:
	// above missHigh the controller adds capacity (or sheds load at the
	// worker ceiling), below missLow it may return capacity. Inside the
	// band it does nothing — a steady workload must not make a steady
	// controller fidget.
	missHigh = 0.10
	missLow  = 0.02
	// rateStep is the multiplicative step for admission-rate walks, and
	// rateSpan bounds the walked rate to [1/rateSpan, rateSpan] ×
	// Admission.Rate; with no admission rate configured the controller
	// leaves rates alone.
	rateStep = 1.25
	rateSpan = 4
	// cooldown is how many intervals the controller holds a shard after
	// changing it: every actuation must be observed through at least
	// one full interval before the next, which is what keeps a marginal
	// shard from flapping between two sizes.
	cooldown = 2
)

// Autoscaler drives the per-shard control loop. Its counters are the
// oscillation evidence experiments quote: a converging controller
// shows a short burst of walks and then silence.
// The per-shard state is keyed by the shard, not its position: live
// migration (package place) grows and shrinks the fabric's shard list
// mid-run, and a positional snapshot would drift — or index out of
// range — the first time a replica is grafted in or retired.
type Autoscaler struct {
	fab  *Fabric
	cfg  AutoscaleConfig
	prev map[*Shard]metrics.ShardCounters // last tick's counter snapshot
	hold map[*Shard]int                   // cooldown intervals remaining

	// Grows/Shrinks count worker-pool walks; RateUps/RateDowns count
	// admission-rate walks; Ticks counts control periods.
	Grows, Shrinks, RateUps, RateDowns, Ticks int64
}

// newAutoscaler applies defaults against the fabric's (already
// defaulted) config.
func newAutoscaler(f *Fabric, cfg AutoscaleConfig) *Autoscaler {
	if cfg.Interval <= 0 {
		cfg.Interval = 5 * sim.Millisecond
	}
	if cfg.MinWorkers < 1 {
		cfg.MinWorkers = 1
	}
	if cfg.MaxWorkers <= 0 {
		cfg.MaxWorkers = 4 * f.cfg.WorkersPerShard
	}
	if cfg.MaxWorkers < cfg.MinWorkers {
		cfg.MaxWorkers = cfg.MinWorkers
	}
	return &Autoscaler{
		fab:  f,
		cfg:  cfg,
		prev: make(map[*Shard]metrics.ShardCounters, len(f.shards)),
		hold: make(map[*Shard]int, len(f.shards)),
	}
}

// forget drops a retired shard's controller state (called by
// Fabric.Retire, so recurring migrations cannot grow the maps).
func (a *Autoscaler) forget(sh *Shard) {
	delete(a.prev, sh)
	delete(a.hold, sh)
}

// Walks sums every actuation the controller ever made — the number an
// oscillation check bounds.
func (a *Autoscaler) Walks() int64 { return a.Grows + a.Shrinks + a.RateUps + a.RateDowns }

// run is the controller process: one tick per interval until the
// fabric stops.
func (a *Autoscaler) run(p *sim.Proc) {
	for !a.fab.stopped {
		p.Sleep(a.cfg.Interval)
		if a.fab.stopped {
			return
		}
		if a.fab.crashing {
			continue // never rescale a fabric mid-recovery
		}
		a.Ticks++
		for _, sh := range append([]*Shard(nil), a.fab.shards...) {
			a.tickShard(sh)
		}
	}
}

// tickShard makes one control decision for one shard from its interval
// delta counters.
func (a *Autoscaler) tickShard(sh *Shard) {
	if sh.retired {
		return
	}
	cur := *sh.stats
	d := cur
	p := a.prev[sh]
	d.Submitted -= p.Submitted
	d.Served -= p.Served
	d.Rejected -= p.Rejected
	d.DeadlineMissed -= p.DeadlineMissed
	a.prev[sh] = cur

	if a.hold[sh] > 0 {
		a.hold[sh]--
		return
	}
	if d.Submitted < 0 || d.Served < 0 || d.Rejected < 0 || d.DeadlineMissed < 0 {
		// The counters were reset under us (Fabric.ResetStats after a
		// warm-up): the snapshot above resynced, but this interval's
		// deltas describe the discarded epoch — never a control input.
		return
	}
	if d.Served == 0 {
		return // nothing observed; nothing to conclude
	}
	miss := float64(d.DeadlineMissed) / float64(d.Served)
	var rej float64
	if d.Submitted > 0 {
		rej = float64(d.Rejected) / float64(d.Submitted)
	}
	base := a.fab.cfg.Admission.Rate
	minRate, maxRate := base/rateSpan, base*rateSpan
	switch {
	case miss > missHigh:
		// The SLO is failing: add serving capacity, and once the pool is
		// at its ceiling shed load at admission instead — a smaller "yes"
		// beats a late one.
		if sh.target < a.cfg.MaxWorkers {
			sh.setWorkers(sh.target + 1)
			a.Grows++
			a.hold[sh] = cooldown
			a.fab.emitAutoscale(sh, fmt.Sprintf("grew workers to %d (miss %.0f%%)", sh.target, 100*miss), float64(sh.target))
		} else if sh.rate > 0 && sh.rate > minRate {
			next := sh.rate / rateStep
			if next < minRate {
				next = minRate
			}
			sh.setRate(next)
			a.RateDowns++
			a.hold[sh] = cooldown
			a.fab.emitAutoscale(sh, fmt.Sprintf("cut admission rate to %.0f/s (miss %.0f%%)", next, 100*miss), next)
		}
	case miss < missLow:
		// The SLO has slack. First hand back admission headroom that an
		// earlier tick took (rejects with a healthy SLO mean the gate,
		// not the shard, is the bottleneck); only then consider
		// shrinking, and only a provably idle pool — an empty queue at
		// the tick and fewer interval serves than one worker could do.
		if sh.rate > 0 && rej > 0.05 && sh.rate < maxRate {
			next := sh.rate * rateStep
			if next > maxRate {
				next = maxRate
			}
			sh.setRate(next)
			a.RateUps++
			a.hold[sh] = cooldown
			a.fab.emitAutoscale(sh, fmt.Sprintf("raised admission rate to %.0f/s (rej %.0f%%)", next, 100*rej), next)
		} else if sh.target > a.cfg.MinWorkers && sh.qn == 0 && rej == 0 {
			sh.setWorkers(sh.target - 1)
			a.Shrinks++
			a.hold[sh] = cooldown
			a.fab.emitAutoscale(sh, fmt.Sprintf("shrank workers to %d", sh.target), float64(sh.target))
		}
	}
}

// Table renders the controller's end state and walk counts, one row
// per shard plus the event totals.
func (a *Autoscaler) Table(title string) *metrics.Table {
	t := metrics.NewTable(title, "shard", "workers", "rate (req/s)")
	for _, sh := range a.fab.shards {
		t.AddRow(sh.name, sh.target, fmt.Sprintf("%.0f", sh.rate))
	}
	t.AddRow("walks", fmt.Sprintf("+%d/-%d", a.Grows, a.Shrinks),
		fmt.Sprintf("+%d/-%d", a.RateUps, a.RateDowns))
	return t
}
