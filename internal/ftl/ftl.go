package ftl

import (
	"errors"

	"repro/internal/ecc"
)

// FTL-level errors.
var (
	// ErrLPNRange reports a logical page number beyond exported capacity.
	ErrLPNRange = errors.New("ftl: logical page out of range")
	// ErrDeviceFull reports exhaustion of writable space (GC could not
	// reclaim anything — the device is over-filled beyond its physical
	// capacity, which only happens on misconfiguration).
	ErrDeviceFull = errors.New("ftl: no writable space")
	// ErrUncorrectable reports a read whose raw bit errors exceeded the
	// ECC scheme.
	ErrUncorrectable = errors.New("ftl: uncorrectable read")
)

// FTL is the common contract of all translation layers: an asynchronous
// logical page store. All completion callbacks run in virtual time.
type FTL interface {
	// ReadLPN fetches a logical page. Reading a never-written page
	// yields a nil payload with no error (block devices read zeros).
	// The payload is shared with the device: read-only.
	ReadLPN(lpn int64, done func(data []byte, err error))
	// WriteLPN stores a logical page. data may be nil for traffic-only
	// experiments; otherwise it must be exactly one page. The FTL keeps a
	// copy, not data itself: the caller's buffer is its own again once
	// the write is acknowledged.
	WriteLPN(lpn int64, data []byte, done func(err error))
	// Trim declares a logical page unused (the ATA TRIM of the paper),
	// letting the FTL drop its mapping and skip copying it at GC time.
	Trim(lpn int64) error
	// Flush is a barrier over the writes acknowledged before it: done
	// fires once each of them is durable. It promises nothing about
	// writes submitted later or about the device being idle.
	Flush(done func())
	// Capacity reports the exported logical size in pages.
	Capacity() int64
	// PageSize reports the logical/physical page size in bytes.
	PageSize() int
	// Stats returns a snapshot of traffic counters.
	Stats() Stats
}

// GCPolicy selects the garbage-collection victim policy.
type GCPolicy int

// Victim selection policies.
const (
	// GCGreedy picks the block with the fewest valid pages.
	GCGreedy GCPolicy = iota
	// GCCostBenefit weighs reclaimable space against block age
	// (Rosenblum's cleaning heuristic), separating hot and cold data.
	GCCostBenefit
)

// Placement selects how writes are spread over chips.
type Placement int

// Placement policies.
const (
	// PlaceDynamic lets the scheduler put each write on the chip whose
	// LUN frees earliest — the freedom the paper says page mapping buys.
	PlaceDynamic Placement = iota
	// PlaceStatic stripes by logical address (lpn modulo chips), the
	// placement a host would impose through a chip-exposing interface —
	// used to reproduce the paper's "bimodal FTL" self-criticism (E4).
	PlaceStatic
)

// Stats counts FTL traffic. Flash-level counters live on the Array; the
// ratio of flash programs to host page writes is the write
// amplification.
type Stats struct {
	HostReads    int64
	HostWrites   int64
	HostTrims    int64
	BufferHits   int64 // reads served from the write buffer
	BufferStalls int64 // host writes that waited for buffer space
	GCMoves      int64 // valid pages relocated by GC
	GCErases     int64
	WearMoves    int64 // pages moved by static wear leveling
	MergeOps     int64 // block/hybrid FTL full-merge operations
	SwitchMerges int64 // hybrid FTL switch merges (cheap remaps)
	MapReads     int64 // DFTL translation-page reads
	MapWrites    int64 // DFTL translation-page write-backs
	ReadErrors   int64 // uncorrectable reads
}

// Option tuning shared by FTL implementations.
type Config struct {
	// OverProvision is the fraction of physical pages hidden from the
	// logical capacity (enterprise 2012 parts: 0.07–0.28).
	OverProvision float64
	// GCLowWater starts GC when a chip's free-block count drops below
	// it; GCHighWater stops GC once reached.
	GCLowWater, GCHighWater int
	// GCPolicy selects the victim policy.
	GCPolicy GCPolicy
	// Placement selects the write-scheduling policy.
	Placement Placement
	// BufferPages sizes the controller write-back buffer; 0 means
	// write-through (no buffer).
	BufferPages int
	// BufferSafe marks the buffer battery-backed: contents survive
	// Crash. High-end 2012 SSDs; consumer buffers are volatile.
	BufferSafe bool
	// ECC is the correction scheme applied to every flash read.
	ECC ecc.Scheme
	// Seed drives ECC error placement sampling.
	Seed uint64

	// gcReserve blocks per chip are allocatable only by GC, so cleaning
	// can always proceed. Every device ships with defaultGCReserve
	// (zero means that); tests on few-block geometries set 1. The
	// reserve is also the hard floor of host→device GC deferral
	// (gccoord.go): a chip at or below it collects even while the host
	// holds a deferral session, so deferral may spend the discretionary
	// headroom between the low watermark and the reserve, never the
	// reserve itself.
	gcReserve int
	// staticWearThreshold triggers static wear leveling when the
	// erase-count spread within a chip exceeds it. No device ships with
	// it on (zero disables); the wear-leveling tests set it.
	staticWearThreshold int
}

// defaultGCReserve is the GC-only block reserve per chip.
const defaultGCReserve = 2

// DefaultConfig is a sane 2012 page-mapped configuration.
func DefaultConfig() Config {
	return Config{
		OverProvision: 0.07,
		GCLowWater:    4,
		GCHighWater:   8,
		GCPolicy:      GCGreedy,
		Placement:     PlaceDynamic,
		BufferPages:   1024,
		BufferSafe:    true,
		ECC:           ecc.BCH8Per512,
		Seed:          1,
	}
}

func (c *Config) normalize() {
	if c.GCLowWater < 2 {
		c.GCLowWater = 2
	}
	if c.gcReserve < 1 {
		c.gcReserve = defaultGCReserve
	}
	// The deferral floor (the reserve) must sit strictly below the low
	// watermark: a floor at or above it would make every chip cycling
	// at the watermarks read as urgent, silently refusing all deferral.
	// Raise the low watermark rather than lower the floor — the floor
	// is a safety bound.
	if c.GCLowWater <= c.gcReserve {
		c.GCLowWater = c.gcReserve + 1
	}
	if c.GCHighWater <= c.GCLowWater {
		c.GCHighWater = c.GCLowWater + 2
	}
	if c.OverProvision < 0 {
		c.OverProvision = 0
	}
	if c.OverProvision > 0.5 {
		c.OverProvision = 0.5
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
}

// WriteAmplification reports flash programs per host page write for an
// FTL over array arr. On-chip copybacks program a page too, so they
// count.
func WriteAmplification(f FTL, arr *Array) float64 {
	s := f.Stats()
	if s.HostWrites == 0 {
		return 0
	}
	return float64(arr.PagePrograms+arr.CopyBacks) / float64(s.HostWrites)
}
