package ssd

import (
	"fmt"

	"repro/internal/bus"
	"repro/internal/ecc"
	"repro/internal/ftl"
	"repro/internal/nand"
	"repro/internal/pcm"
	"repro/internal/sim"
)

// Preset identifies a ready-made device configuration.
type Preset int

// Device presets spanning the generations the paper contrasts.
const (
	// Consumer2008: hybrid log-block FTL on legacy SLC behind one slow
	// channel pair — the device generation for which "avoid random
	// writes" was true.
	Consumer2008 Preset = iota
	// Enterprise2012: page-mapped FTL, battery-backed write buffer, four
	// ONFI-2 channels of MLC — the generation that falsified Myth 2.
	Enterprise2012
	// Enterprise2012Unbuffered: the same device without its write
	// buffer, to isolate the buffer's contribution.
	Enterprise2012Unbuffered
	// DFTL2012: Enterprise2012 with a demand-paged mapping cache instead
	// of a full in-RAM page map.
	DFTL2012
	// PCM2012: a pure PCM SSD (Onyx-style) behind the same block
	// interface.
	PCM2012
	// Enterprise2012Suspend: Enterprise2012 on MLC that suspends an
	// erase to serve a read (nand.Spec.EraseSuspend), so a chip read
	// waits out at most one erase pulse instead of a whole 3 ms erase.
	// The serving fabric's devices.
	Enterprise2012Suspend
)

// String names the preset.
func (p Preset) String() string {
	switch p {
	case Consumer2008:
		return "Consumer2008"
	case Enterprise2012:
		return "Enterprise2012"
	case Enterprise2012Unbuffered:
		return "Enterprise2012Unbuffered"
	case DFTL2012:
		return "DFTL2012"
	case PCM2012:
		return "PCM2012"
	case Enterprise2012Suspend:
		return "Enterprise2012Suspend"
	default:
		return fmt.Sprintf("Preset(%d)", int(p))
	}
}

// Options scales a preset down for fast experiments.
type Options struct {
	// Channels and ChipsPerChannel override the fabric size (0 keeps
	// the preset default).
	Channels, ChipsPerChannel int
	// BlocksPerPlane overrides chip capacity (0 keeps default). Smaller
	// devices reach GC steady state faster.
	BlocksPerPlane int
	// PagesPerBlock overrides block size (0 keeps default).
	PagesPerBlock int
	// BufferPages overrides the write-buffer size (-1 disables, 0 keeps
	// default).
	BufferPages int
	// BufferVolatile drops the write buffer's battery backing: buffered
	// acks vanish on a crash instead of surviving it. Fault-injection
	// experiments use it to expose the volatile-ack durability trap.
	BufferVolatile bool
	// Placement overrides the write placement policy.
	Placement ftl.Placement
	// OverProvision overrides the spare fraction (0 keeps default).
	OverProvision float64
	// GCLowWater and GCHighWater override the FTL's GC watermarks in
	// free blocks per chip (0 keeps defaults). Raising the low watermark
	// widens the discretionary headroom host→device GC deferral may
	// spend before hitting the floor.
	GCLowWater, GCHighWater int
	// Seed drives all randomness (0 -> deterministic content, seed 1).
	Seed uint64
}

// Build constructs the preset device on eng.
func Build(eng *sim.Engine, p Preset, opt Options) (Dev, error) {
	if opt.Seed == 0 {
		opt.Seed = 1
	}
	switch p {
	case Consumer2008:
		spec := nand.LegacySLC
		if opt.BlocksPerPlane > 0 {
			spec.Geometry.BlocksPerPlane = opt.BlocksPerPlane
		}
		if opt.PagesPerBlock > 0 {
			spec.Geometry.PagesPerBlock = opt.PagesPerBlock
		}
		spec.Reliability.FactoryBadBlockRate = 0
		cfg := ftl.ArrayConfig{
			Channels:        pick(opt.Channels, 1),
			ChipsPerChannel: pick(opt.ChipsPerChannel, 4),
			Chip:            spec,
			Channel:         bus.ONFI1,
		}
		arr, err := ftl.NewArray(eng, cfg, 0)
		if err != nil {
			return nil, err
		}
		op := opt.OverProvision
		if op == 0 {
			op = 0.08
		}
		f, err := ftl.NewHybridFTL(arr, op, 8)
		if err != nil {
			return nil, err
		}
		return NewDevice(eng, p.String(), f, nil, arr, SATA2)

	case Enterprise2012, Enterprise2012Unbuffered, DFTL2012, Enterprise2012Suspend:
		spec := nand.MLC
		spec.EraseSuspend = p == Enterprise2012Suspend
		if opt.BlocksPerPlane > 0 {
			spec.Geometry.BlocksPerPlane = opt.BlocksPerPlane
		}
		if opt.PagesPerBlock > 0 {
			spec.Geometry.PagesPerBlock = opt.PagesPerBlock
		}
		spec.Reliability.FactoryBadBlockRate = 0
		cfg := ftl.ArrayConfig{
			Channels:        pick(opt.Channels, 4),
			ChipsPerChannel: pick(opt.ChipsPerChannel, 4),
			Chip:            spec,
			Channel:         bus.ONFI2,
		}
		arr, err := ftl.NewArray(eng, cfg, 0)
		if err != nil {
			return nil, err
		}
		fcfg := ftl.DefaultConfig()
		fcfg.Seed = opt.Seed
		fcfg.Placement = opt.Placement
		fcfg.ECC = ecc.BCH8Per512
		if opt.OverProvision != 0 {
			fcfg.OverProvision = opt.OverProvision
		}
		if opt.GCLowWater > 0 {
			fcfg.GCLowWater = opt.GCLowWater
		}
		if opt.GCHighWater > 0 {
			fcfg.GCHighWater = opt.GCHighWater
		}
		switch {
		case p == Enterprise2012Unbuffered || opt.BufferPages < 0:
			fcfg.BufferPages = 0
		case opt.BufferPages > 0:
			fcfg.BufferPages = opt.BufferPages
		}
		if opt.BufferVolatile {
			fcfg.BufferSafe = false
		}
		pf, err := ftl.NewPageFTL(arr, fcfg)
		if err != nil {
			return nil, err
		}
		var f ftl.FTL = pf
		if p == DFTL2012 {
			// CMT sized to cover ~1/16 of the logical space.
			entriesPerPage := int64(arr.PageSize() / 8)
			cmt := int(pf.Capacity() / entriesPerPage / 16)
			if cmt < 2 {
				cmt = 2
			}
			f = ftl.NewDFTL(pf, cmt)
		}
		return NewDevice(eng, p.String(), f, pf, arr, SATA3)

	case PCM2012:
		cfg := pcm.DefaultConfig()
		cfg.CapacityBytes = 1 << 28 // 256 MiB per bank
		banks := pick(opt.Channels, 4)
		return NewPCMSSD(eng, p.String(), banks, 4096, cfg, PCIe4)

	default:
		return nil, fmt.Errorf("ssd: unknown preset %d", int(p))
	}
}

func pick(v, def int) int {
	if v > 0 {
		return v
	}
	return def
}
