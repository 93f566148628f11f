// Package necro is the public face of this reproduction of "The
// Necessary Death of the Block Device Interface" (Bjørling, Bonnet,
// Bouganim, Dayan — CIDR 2013): the names this package's examples use,
// and nothing else. Everything else — the block layer, the
// scheduler, the serving fabric, replica placement, observability,
// fault injection and the experiment suite E1–E24 — lives in the
// internal/ packages, which the commands, the experiments and this
// package's own tests import directly.
//
// Quick start:
//
//	eng := necro.NewEngine()
//	dev, _ := necro.BuildDevice(eng, necro.Enterprise2012, necro.DeviceOptions{})
//	dev.Write(0, nil, func(err error) { fmt.Println("written", err) })
//	eng.Run()
//
// See the package examples for complete programs (quickstart, the same
// engine over both stacks), docs/ARCHITECTURE.md for the system map and
// docs/EXPERIMENTS.md for the experiment suite.
package necro

import (
	"repro/internal/kvstore"
	"repro/internal/pcm"
	"repro/internal/sim"
	"repro/internal/ssd"
)

// Simulation kernel.
type (
	// Engine is the deterministic discrete-event simulator every model
	// runs on.
	Engine = sim.Engine
	// Proc is a simulated process (blocking-style client code).
	Proc = sim.Proc
)

// Millisecond is one millisecond of virtual time.
const Millisecond = sim.Millisecond

// NewEngine returns a fresh simulation engine at time zero.
func NewEngine() *Engine { return sim.NewEngine() }

// Devices.
type (
	// Device is the host-visible contract of a simulated SSD.
	Device = ssd.Dev
	// FlashDevice is a flash SSD with the extended (§3) command set.
	FlashDevice = ssd.Device
	// DeviceOptions scales a preset.
	DeviceOptions = ssd.Options
	// DevicePreset selects a device generation.
	DevicePreset = ssd.Preset
)

// Device presets.
const (
	// Consumer2008 is the pre-2009 hybrid-FTL device (Myth 2 era).
	Consumer2008 = ssd.Consumer2008
	// Enterprise2012 is the page-mapped, battery-buffered device.
	Enterprise2012 = ssd.Enterprise2012
	// PCM2012 is an Onyx-style PCM SSD.
	PCM2012 = ssd.PCM2012
)

// BuildDevice constructs a preset device on eng.
func BuildDevice(eng *Engine, p DevicePreset, opt DeviceOptions) (Device, error) {
	return ssd.Build(eng, p, opt)
}

// NewMemBus attaches a PCM part to the memory bus (store + persist).
func NewMemBus(eng *Engine, name string, cfg pcm.Config) (*pcm.MemBus, error) {
	dev, err := pcm.New(eng, name, cfg)
	if err != nil {
		return nil, err
	}
	return pcm.NewMemBus(eng, dev), nil
}

// DefaultPCMConfig returns the 2012-flavoured PCM parameterization.
func DefaultPCMConfig() pcm.Config { return pcm.DefaultConfig() }

// The storage engine.
type (
	// KVConfig tunes the transactional key-value engine.
	KVConfig = kvstore.Config
	// KVSystem bundles an engine with its devices for crash testing.
	KVSystem = kvstore.System
)

// BuildConservativeKV assembles the engine over the conservative stack.
func BuildConservativeKV(p *Proc, eng *Engine, flash Device, logPages int64, cpus int, cfg KVConfig) (*KVSystem, error) {
	return kvstore.BuildConservative(p, eng, flash, logPages, cpus, cfg)
}

// BuildProgressiveKV assembles the engine over the progressive stack.
func BuildProgressiveKV(p *Proc, eng *Engine, flash *FlashDevice, membus *pcm.MemBus, logBytes int64, cpus int, cfg KVConfig) (*KVSystem, error) {
	return kvstore.BuildProgressive(p, eng, flash, membus, logBytes, cpus, cfg)
}
