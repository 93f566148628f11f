package nand

import "repro/internal/sim"

// Timing holds datasheet operation latencies for one chip class.
// Command/address cycles and data transfer are charged by the channel
// (package bus); these are array-operation times only.
type Timing struct {
	ReadPage    sim.Time // tR: array -> page register
	ProgramPage sim.Time // tPROG: page register -> array
	EraseBlock  sim.Time // tBERS
}

// Reliability parameterizes wear-out and raw bit errors.
type Reliability struct {
	// RatedCycles is the endurance rating (C4). Erases beyond it see a
	// steeply growing failure probability.
	RatedCycles int
	// BaseBER is the raw bit error rate of a fresh block.
	BaseBER float64
	// BERGrowth scales how fast BER grows with wear: at full rated wear
	// the BER is BaseBER * (1 + BERGrowth).
	BERGrowth float64
	// FactoryBadBlockRate is the fraction of blocks marked bad at
	// manufacture.
	FactoryBadBlockRate float64
}

// Class presets, parameterized after circa-2012 datasheets. The paper's
// trend note (§2.2): density up, cell lifetime down, raw performance
// down — visible across these three presets.
var (
	// SLC: fast, 100k cycles.
	SLC = Spec{
		Name: "SLC",
		Geometry: Geometry{
			PageSize: 4096, OOBSize: 128, PagesPerBlock: 64,
			BlocksPerPlane: 1024, PlanesPerLUN: 2, LUNsPerChip: 1,
		},
		Timing:      Timing{ReadPage: 25 * sim.Microsecond, ProgramPage: 200 * sim.Microsecond, EraseBlock: 1500 * sim.Microsecond},
		Reliability: Reliability{RatedCycles: 100000, BaseBER: 1e-9, BERGrowth: 50, FactoryBadBlockRate: 0.002},
	}

	// MLC: the mainstream 2012 part used by default in experiments.
	MLC = Spec{
		Name: "MLC",
		Geometry: Geometry{
			PageSize: 4096, OOBSize: 224, PagesPerBlock: 128,
			BlocksPerPlane: 2048, PlanesPerLUN: 2, LUNsPerChip: 1,
		},
		Timing:      Timing{ReadPage: 50 * sim.Microsecond, ProgramPage: 600 * sim.Microsecond, EraseBlock: 3 * sim.Millisecond},
		Reliability: Reliability{RatedCycles: 5000, BaseBER: 1e-7, BERGrowth: 200, FactoryBadBlockRate: 0.005},
	}

	// TLC: dense, slow, 5000-cycle endurance per the paper's §2.2
	// ("5000 cycles for triple-level-cell flash") — we keep the paper's
	// number even though contemporary parts were often worse.
	TLC = Spec{
		Name: "TLC",
		Geometry: Geometry{
			PageSize: 8192, OOBSize: 448, PagesPerBlock: 256,
			BlocksPerPlane: 2048, PlanesPerLUN: 2, LUNsPerChip: 1,
		},
		Timing:      Timing{ReadPage: 75 * sim.Microsecond, ProgramPage: 1300 * sim.Microsecond, EraseBlock: 3500 * sim.Microsecond},
		Reliability: Reliability{RatedCycles: 5000, BaseBER: 5e-7, BERGrowth: 400, FactoryBadBlockRate: 0.01},
	}
)

// Spec bundles the full parameterization of one chip model.
type Spec struct {
	Name        string
	Geometry    Geometry
	Timing      Timing
	Reliability Reliability
	// SupportsRandomProgram relaxes constraint C3: old small-block SLC
	// parts (the chips inside pre-2009 devices) allowed programming the
	// pages of a block in any order, which block-mapped FTLs rely on.
	// Modern MLC/TLC chips require strictly sequential programming.
	SupportsRandomProgram bool
	// EraseSuspend lets a read that reaches a LUN mid-erase run before
	// the erase ends (read-only erase suspension, as in ONFI's
	// suspend/resume): the erase runs as erasePulses equal pulses, and a
	// read issued during one runs at its end. Programs, copybacks and
	// erases still wait out the whole erase.
	EraseSuspend bool
}

// LegacySLC is an old small-block part with random page programming, as
// found in the pre-2009 consumer devices whose FTLs were block-mapped or
// hybrid (Myth 2's "early flash-based SSDs").
var LegacySLC = Spec{
	Name: "LegacySLC",
	Geometry: Geometry{
		PageSize: 2048, OOBSize: 64, PagesPerBlock: 64,
		BlocksPerPlane: 1024, PlanesPerLUN: 1, LUNsPerChip: 1,
	},
	Timing:                Timing{ReadPage: 25 * sim.Microsecond, ProgramPage: 300 * sim.Microsecond, EraseBlock: 2 * sim.Millisecond},
	Reliability:           Reliability{RatedCycles: 50000, BaseBER: 1e-9, BERGrowth: 50, FactoryBadBlockRate: 0.002},
	SupportsRandomProgram: true,
}
