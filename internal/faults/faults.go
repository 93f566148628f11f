// Package faults is the deterministic fault-injection harness: a
// seeded schedule of device failures — kills, stalls, slow media —
// armed against a serving fabric and fired at fractions of the armed
// window. Because the simulation is deterministic, a fault plan is
// perfectly reproducible: the same seed produces the same schedule,
// firing at the same instants, against the same interleaving of
// requests, so a failure scenario that trips an invariant replays
// exactly under a debugger. The harness knows nothing about devices
// beyond the Target surface (serve.Fabric implements it), which keeps
// the dependency one-way: faults drives the fabric, the fabric never
// sees the harness.
package faults

import (
	"fmt"

	"repro/internal/sim"
)

// Kind is one injectable failure mode.
type Kind int

// Failure modes. Every one is device-scoped: a chip death on the
// survivor of an R=2 group would be a second fault domain, outside
// what replica placement promises.
const (
	// KillDevice fails a whole device permanently: volatile buffer gone,
	// every future command errors — the device-death event replica
	// placement degrades and repairs on.
	KillDevice Kind = iota
	// StallDevice freezes a device's controller for Duration (firmware
	// hang): commands queue behind the stall and complete late.
	StallDevice
	// SlowDevice scales a device's flash timings by Read/Program/Erase
	// (media aging, thermal throttle) — the drift signal live migration
	// evacuates on.
	SlowDevice
)

// String names the kind for logs and test tables.
func (k Kind) String() string {
	switch k {
	case KillDevice:
		return "kill-device"
	case StallDevice:
		return "stall-device"
	case SlowDevice:
		return "slow-device"
	}
	return "fault"
}

// Target is the fault surface the harness drives. serve.Fabric
// implements it; tests substitute recorders.
type Target interface {
	Devices() int
	KillDevice(d int)
	StallDevice(d int, dur sim.Time)
	SlowDevice(d int, read, program, erase float64)
}

// Injection is one scheduled failure.
type Injection struct {
	Kind   Kind
	Device int
	// Frac places the injection as a fraction of the armed window —
	// the "kill at half-window" idiom that scales with the experiment
	// horizon.
	Frac float64
	// Duration is the stall length (StallDevice).
	Duration sim.Time
	// Read, Program, Erase are latency scale factors (SlowDevice).
	Read, Program, Erase float64
}

// Plan is a fault schedule: the injections of one scenario.
type Plan []Injection

// Validate checks pl against t: device indices in range, stalls with
// positive durations, slow factors positive, fractions in [0, 1]. An
// invalid plan is a harness bug, caught before anything is armed.
func (pl Plan) Validate(t Target) error {
	for i, inj := range pl {
		if inj.Device < 0 || inj.Device >= t.Devices() {
			return fmt.Errorf("faults: injection %d (%s): device %d out of range [0,%d)", i, inj.Kind, inj.Device, t.Devices())
		}
		if inj.Frac < 0 || inj.Frac > 1 {
			return fmt.Errorf("faults: injection %d (%s): fraction %v outside [0,1]", i, inj.Kind, inj.Frac)
		}
		switch inj.Kind {
		case StallDevice:
			if inj.Duration <= 0 {
				return fmt.Errorf("faults: injection %d (%s): stall needs a positive duration", i, inj.Kind)
			}
		case SlowDevice:
			if inj.Read <= 0 || inj.Program <= 0 || inj.Erase <= 0 {
				return fmt.Errorf("faults: injection %d (%s): slow factors must be positive", i, inj.Kind)
			}
		}
	}
	return nil
}

// Injector arms fault plans on a simulation engine.
type Injector struct {
	eng   *sim.Engine
	t     Target
	fired []Injection
}

// NewInjector builds an injector driving t on eng.
func NewInjector(eng *sim.Engine, t Target) *Injector {
	return &Injector{eng: eng, t: t}
}

// Arm validates pl and schedules every injection over the window
// [start, horizon]: each fires at start + Frac × (horizon − start).
// Arming charges no virtual time; the failures fire from the engine's
// event loop at their instants.
func (in *Injector) Arm(pl Plan, start, horizon sim.Time) error {
	if err := pl.Validate(in.t); err != nil {
		return err
	}
	for _, inj := range pl {
		at := start + sim.Time(inj.Frac*float64(horizon-start))
		in.eng.Schedule(at, func() { in.fire(inj) })
	}
	return nil
}

// fire delivers one injection to the target and logs it.
func (in *Injector) fire(inj Injection) {
	switch inj.Kind {
	case KillDevice:
		in.t.KillDevice(inj.Device)
	case StallDevice:
		in.t.StallDevice(inj.Device, inj.Duration)
	case SlowDevice:
		in.t.SlowDevice(inj.Device, inj.Read, inj.Program, inj.Erase)
	}
	in.fired = append(in.fired, inj)
}

// Fired returns the injections delivered so far, in firing order.
func (in *Injector) Fired() []Injection { return in.fired }

// PlanConfig bounds RandomPlan's draw.
type PlanConfig struct {
	// Devices is the device pool injections aim at (required).
	Devices int
	// Injections is the schedule length (0 = 4).
	Injections int
	// MaxKills caps whole-device kills (0 = 1 — an R=2 fabric survives
	// any single death but not two, so soak tests default to one).
	MaxKills int
}

// maxStall bounds RandomPlan's stall durations.
const maxStall = 2 * sim.Millisecond

// RandomPlan derives a deterministic fault schedule from seed: kinds,
// targets, placements and magnitudes all come from one seeded stream,
// so a seed names a scenario. Device kills land in the first 60% of
// the window (the rebuild needs runway to complete before scoring);
// everything else lands anywhere in [0.1, 0.9]. Kills never repeat a
// device — killing a corpse is a no-op, and the cap is about live
// deaths.
func RandomPlan(seed uint64, cfg PlanConfig) Plan {
	if cfg.Injections <= 0 {
		cfg.Injections = 4
	}
	if cfg.MaxKills == 0 {
		cfg.MaxKills = 1
	}
	rng := sim.NewRNG(seed)
	kinds := []Kind{StallDevice, SlowDevice}
	var pl Plan
	kills := 0
	killed := map[int]bool{}
	for len(pl) < cfg.Injections {
		inj := Injection{Device: rng.Intn(cfg.Devices)}
		// One draw decides kill-vs-milder so the stream stays aligned
		// whether or not the kill budget is spent.
		if rng.Float64() < 0.25 && kills < cfg.MaxKills && !killed[inj.Device] {
			inj.Kind = KillDevice
			inj.Frac = 0.1 + 0.5*rng.Float64()
			kills++
			killed[inj.Device] = true
			pl = append(pl, inj)
			continue
		}
		inj.Kind = kinds[rng.Intn(len(kinds))]
		inj.Frac = 0.1 + 0.8*rng.Float64()
		switch inj.Kind {
		case StallDevice:
			inj.Duration = 100*sim.Microsecond + sim.Time(rng.Int63n(int64(maxStall-100*sim.Microsecond)+1))
		case SlowDevice:
			inj.Read = 1 + 2*rng.Float64()
			inj.Program = 1 + 2*rng.Float64()
			inj.Erase = 1 + 2*rng.Float64()
		}
		pl = append(pl, inj)
	}
	return pl
}
