package ftl

import (
	"errors"
	"fmt"

	"repro/internal/bus"
	"repro/internal/nand"
	"repro/internal/sim"
)

// Array errors.
var (
	// ErrArrayGeometry reports inconsistent array construction.
	ErrArrayGeometry = errors.New("ftl: invalid array geometry")
	// ErrPPARange reports a physical page address outside the array.
	ErrPPARange = errors.New("ftl: physical page address out of range")
)

// PPA is a flat physical page address across the whole array.
type PPA int64

// InvalidPPA marks an unmapped or discarded page.
const InvalidPPA PPA = -1

// PBA is a flat physical block address across the whole array.
type PBA int64

// InvalidPBA marks no-block.
const InvalidPBA PBA = -1

// Array is the physical flash fabric: nChannels channels, each with
// chipsPerChannel chips, all of one spec. It provides timed composite
// operations (channel transfer + chip array op) and flat physical
// addressing.
type Array struct {
	eng      *sim.Engine
	spec     nand.Spec
	channels []*bus.Channel
	chips    []*nand.Chip // chip i sits on channel i / chipsPerChannel... see chanOf
	perChan  int

	pagesPerChip  int64
	blocksPerChip int64
	pagesPerBlock int64

	ops sim.Pool[arrayOp] // idle command records

	// Counters for traffic accounting (write amplification etc.).
	PageReads    int64
	PagePrograms int64
	BlockErases  int64
	CopyBacks    int64
}

// ArrayConfig sizes an array.
type ArrayConfig struct {
	Channels        int
	ChipsPerChannel int
	Chip            nand.Spec
	Channel         bus.Config
}

// NewArray builds the fabric on eng. seed drives per-chip reliability
// randomness; pass rngSeed 0 to disable wear/error randomness entirely
// (fully deterministic content experiments).
func NewArray(eng *sim.Engine, cfg ArrayConfig, rngSeed uint64) (*Array, error) {
	if cfg.Channels <= 0 || cfg.ChipsPerChannel <= 0 {
		return nil, fmt.Errorf("%w: %d channels x %d chips", ErrArrayGeometry, cfg.Channels, cfg.ChipsPerChannel)
	}
	if err := cfg.Chip.Geometry.Validate(); err != nil {
		return nil, err
	}
	a := &Array{
		eng:     eng,
		spec:    cfg.Chip,
		perChan: cfg.ChipsPerChannel,
	}
	g := cfg.Chip.Geometry
	a.pagesPerChip = int64(g.PagesPerChip())
	a.blocksPerChip = int64(g.BlocksPerChip())
	a.pagesPerBlock = int64(g.PagesPerBlock)
	for c := 0; c < cfg.Channels; c++ {
		ch, err := bus.NewChannel(eng, fmt.Sprintf("ch%d", c), cfg.Channel)
		if err != nil {
			return nil, err
		}
		a.channels = append(a.channels, ch)
		for k := 0; k < cfg.ChipsPerChannel; k++ {
			var rng *sim.RNG
			if rngSeed != 0 {
				rng = sim.NewRNG(rngSeed + uint64(c*cfg.ChipsPerChannel+k)*0x9e37)
			}
			chip, err := nand.NewChip(eng, cfg.Chip, rng, fmt.Sprintf("ch%d.chip%d", c, k))
			if err != nil {
				return nil, err
			}
			a.chips = append(a.chips, chip)
		}
	}
	return a, nil
}

// Engine returns the simulation engine.
func (a *Array) Engine() *sim.Engine { return a.eng }

// Spec returns the chip parameterization.
func (a *Array) Spec() nand.Spec { return a.spec }

// Chips reports the number of chips.
func (a *Array) Chips() int { return len(a.chips) }

// Channels reports the number of channels.
func (a *Array) Channels() int { return len(a.channels) }

// Chip returns chip i.
func (a *Array) Chip(i int) *nand.Chip { return a.chips[i] }

// Channel returns channel i.
func (a *Array) Channel(i int) *bus.Channel { return a.channels[i] }

// ChannelOf returns the channel serving chip i.
func (a *Array) ChannelOf(chip int) *bus.Channel { return a.channels[chip/a.perChan] }

// PageSize returns the page size in bytes.
func (a *Array) PageSize() int { return a.spec.Geometry.PageSize }

// PagesPerBlock returns pages per block.
func (a *Array) PagesPerBlock() int { return int(a.pagesPerBlock) }

// TotalPages reports all data pages in the array.
func (a *Array) TotalPages() int64 { return a.pagesPerChip * int64(len(a.chips)) }

// TotalBlocks reports all blocks in the array.
func (a *Array) TotalBlocks() int64 { return a.blocksPerChip * int64(len(a.chips)) }

// BlocksPerChip reports blocks in one chip.
func (a *Array) BlocksPerChip() int64 { return a.blocksPerChip }

// MakePPA builds a flat PPA from chip index and chip-local address.
func (a *Array) MakePPA(chip int, addr nand.Addr) PPA {
	g := a.spec.Geometry
	idx := ((int64(addr.LUN)*int64(g.PlanesPerLUN)+int64(addr.Plane))*int64(g.BlocksPerPlane)+int64(addr.Block))*a.pagesPerBlock + int64(addr.Page)
	return PPA(int64(chip)*a.pagesPerChip + idx)
}

// SplitPPA decomposes a flat PPA.
func (a *Array) SplitPPA(p PPA) (chip int, addr nand.Addr, err error) {
	if p < 0 || int64(p) >= a.TotalPages() {
		return 0, nand.Addr{}, fmt.Errorf("%w: %d", ErrPPARange, p)
	}
	g := a.spec.Geometry
	chip = int(int64(p) / a.pagesPerChip)
	idx := int64(p) % a.pagesPerChip
	addr.Page = int(idx % a.pagesPerBlock)
	idx /= a.pagesPerBlock
	addr.Block = int(idx % int64(g.BlocksPerPlane))
	idx /= int64(g.BlocksPerPlane)
	addr.Plane = int(idx % int64(g.PlanesPerLUN))
	addr.LUN = int(idx / int64(g.PlanesPerLUN))
	return chip, addr, nil
}

// SplitPBA decomposes a flat block address.
func (a *Array) SplitPBA(b PBA) (chip int, addr nand.BlockAddr, err error) {
	if b < 0 || int64(b) >= a.TotalBlocks() {
		return 0, nand.BlockAddr{}, fmt.Errorf("%w: block %d", ErrPPARange, b)
	}
	g := a.spec.Geometry
	chip = int(int64(b) / a.blocksPerChip)
	idx := int64(b) % a.blocksPerChip
	addr.Block = int(idx % int64(g.BlocksPerPlane))
	idx /= int64(g.BlocksPerPlane)
	addr.Plane = int(idx % int64(g.PlanesPerLUN))
	addr.LUN = int(idx / int64(g.PlanesPerLUN))
	return chip, addr, nil
}

// PPAOfBlock returns the PPA of page pg within block b. PPAs (MakePPA)
// and PBAs lay chips, LUNs, planes and blocks out in the same order, so a
// PPA is its block's PBA times pagesPerBlock plus the page index: this,
// BlockOf and ChipOf are one multiply or divide each.
func (a *Array) PPAOfBlock(b PBA, pg int) PPA {
	if b < 0 || int64(b) >= a.TotalBlocks() {
		return InvalidPPA
	}
	return PPA(int64(b)*a.pagesPerBlock + int64(pg))
}

// BlockOf returns the block containing PPA p.
func (a *Array) BlockOf(p PPA) PBA {
	if p < 0 || int64(p) >= a.TotalPages() {
		return InvalidPBA
	}
	return PBA(int64(p) / a.pagesPerBlock)
}

// ChipOf returns the chip index of a PPA.
func (a *Array) ChipOf(p PPA) int { return int(int64(p) / a.pagesPerChip) }

// ChipOfBlock returns the chip index of a PBA.
func (a *Array) ChipOfBlock(b PBA) int { return int(int64(b) / a.blocksPerChip) }

// arrayOp is one composite command in flight on the array: a page read
// (the chip read, then the transfer off the chip) or a cross-plane page
// copy (that read, then a program on the destination). The Array owns it
// from issue until the outcome is handed over, and recycles it first
// (sim.Pool); its callbacks are bound once, when it is built.
type arrayOp struct {
	a         *Array
	ch        *bus.Channel // the source chip's channel
	chanLabel string
	read      func(data []byte, bitErrors int, err error) // a page read
	moved     func(ok bool)                               // a page copy
	dstChip   int                                         // a page copy: where to program
	dst       nand.Addr
	data      []byte
	bitErrors int
	// oob is a page copy's source spare area, taken at the chip read; the
	// buffer stays with the record.
	oob    []byte
	onChip func(nand.ReadResult, error)
	onXfer func(start, end sim.Time)
}

// newOp takes a command record off the idle list, or builds one.
func (a *Array) newOp() *arrayOp {
	o := a.ops.Get()
	if o == nil {
		o = &arrayOp{a: a}
		o.onChip, o.onXfer = o.chipRead, o.transferred
	}
	return o
}

// recycle clears o, keeping its bindings and OOB buffer, and puts it
// back on the idle list.
func (a *Array) recycle(o *arrayOp) {
	*o = arrayOp{a: a, oob: o.oob[:0], onChip: o.onChip, onXfer: o.onXfer}
	a.ops.Put(o)
}

// ReadPage performs a timed page read: LUN busy for tR, then the data
// moves across the chip's channel. done receives the page's payload
// itself (read-only: see nand.ReadResult.Data), the raw bit-error count
// (for the ECC layer), and any chip error.
func (a *Array) ReadPage(p PPA, done func(data []byte, bitErrors int, err error)) {
	chip, addr, err := a.SplitPPA(p)
	if err != nil {
		done(nil, 0, err)
		return
	}
	o := a.newOp()
	o.read = done
	a.readOn(chip, addr, "read", "xfer-out", o)
}

// readOn issues o's chip read with explicit LUN and channel occupancy
// labels, so GC relocation traffic attributes to its own cause.
func (a *Array) readOn(chip int, addr nand.Addr, lunLabel, chanLabel string, o *arrayOp) {
	a.PageReads++
	o.ch, o.chanLabel = a.ChannelOf(chip), chanLabel
	if err := a.chips[chip].ReadAs(addr, lunLabel, o.onChip); err != nil {
		o.fail(err)
	}
}

// chipRead moves a page that reached the chip's register off the chip.
func (o *arrayOp) chipRead(res nand.ReadResult, err error) {
	if err != nil {
		o.fail(err)
		return
	}
	o.data, o.bitErrors = res.Data, res.BitErrors
	if o.moved != nil {
		o.oob = append(o.oob[:0], res.OOB...)
	}
	o.ch.TransferFrom(o.a.eng.Now(), o.a.PageSize(), o.chanLabel, o.onXfer)
}

// transferred ends a read, or programs a copy's destination with the
// payload it read: a programmed payload is never written again, so the
// destination may keep it (the chip copies the OOB at issue).
func (o *arrayOp) transferred(_, _ sim.Time) {
	a := o.a
	if o.moved != nil {
		a.writeOn(o.dstChip, o.dst, o.data, o.oob, "gc-prog", "gc-xfer-in", o.moved)
		a.recycle(o)
		return
	}
	read, data, bitErrors := o.read, o.data, o.bitErrors
	a.recycle(o)
	read(data, bitErrors, nil)
}

// fail ends o on a chip read error.
func (o *arrayOp) fail(err error) {
	read, moved := o.read, o.moved
	o.a.recycle(o)
	if moved != nil {
		moved(false)
		return
	}
	read(nil, 0, err)
}

// WritePage performs a timed page program: data crosses the channel,
// then the LUN is busy for tPROG, with the program chained behind the
// transfer. The chip keeps data (see nand.Chip.Program): the caller
// must never write it again. done receives ok=false on a wear-induced
// program failure.
// Constraint violations (C2/C3) indicate FTL bugs and panic.
func (a *Array) WritePage(p PPA, data, oob []byte, done func(ok bool)) {
	chip, addr, err := a.SplitPPA(p)
	if err != nil {
		panic(fmt.Sprintf("ftl: WritePage: %v", err))
	}
	a.writeOn(chip, addr, data, oob, "prog", "xfer-in", done)
}

// writeOn is WritePage on a split address, with explicit LUN and channel
// occupancy labels (see readOn).
func (a *Array) writeOn(chip int, addr nand.Addr, data, oob []byte, lunLabel, chanLabel string, done func(ok bool)) {
	a.PagePrograms++
	xferEnd := a.ChannelOf(chip).Transfer(a.PageSize(), chanLabel, nil)
	if perr := a.chips[chip].ProgramFromAs(xferEnd, addr, data, oob, lunLabel, done); perr != nil {
		panic(fmt.Sprintf("ftl: program %v: %v", addr, perr))
	}
}

// Discard tells the chip holding p that the page is dead, so the chip
// drops its payload and returns it (see nand.Chip.Discard: nil while the
// page's program is in flight). It takes no time: the page's death is
// the FTL's bookkeeping, not a flash command. A chip holding no payload
// — one only ever programmed without — is skipped before the address is
// split, so a payload-free device pays one division per dead page.
func (a *Array) Discard(p PPA) []byte {
	c := a.chips[a.ChipOf(p)]
	if c.PayloadPages() == 0 {
		return nil
	}
	_, addr, err := a.SplitPPA(p)
	if err != nil {
		panic(fmt.Sprintf("ftl: Discard: %v", err))
	}
	return c.Discard(addr)
}

// EraseBlock performs a timed erase: a command cycle on the channel,
// then the LUN busy for tBERS.
func (a *Array) EraseBlock(b PBA, done func(ok bool)) {
	chip, addr, err := a.SplitPBA(b)
	if err != nil {
		panic(fmt.Sprintf("ftl: EraseBlock: %v", err))
	}
	a.BlockErases++
	cmdEnd := a.ChannelOf(chip).Command("erase-cmd", nil)
	if eerr := a.chips[chip].EraseFrom(cmdEnd, addr, done); eerr != nil {
		panic(fmt.Sprintf("ftl: erase %v: %v", addr, eerr))
	}
}

// CopyPage moves one page src -> dst. When both live in the same plane
// of the same chip it uses on-chip copyback (no channel occupancy);
// otherwise it reads across the channel and programs across the
// destination channel. done receives ok=false on program failure.
func (a *Array) CopyPage(src, dst PPA, done func(ok bool)) {
	sc, saddr, err := a.SplitPPA(src)
	if err != nil {
		panic(fmt.Sprintf("ftl: CopyPage src: %v", err))
	}
	dc, daddr, err := a.SplitPPA(dst)
	if err != nil {
		panic(fmt.Sprintf("ftl: CopyPage dst: %v", err))
	}
	if sc == dc && saddr.LUN == daddr.LUN && saddr.Plane == daddr.Plane {
		a.CopyBacks++
		if cerr := a.chips[sc].CopyBack(saddr, daddr, done); cerr != nil {
			panic(fmt.Sprintf("ftl: copyback %v->%v: %v", saddr, daddr, cerr))
		}
		return
	}
	// The cross-plane fallback moves the page over the channels like any
	// host I/O would, but it is housekeeping: label the LUN and channel
	// occupancy as GC copy so resource attribution (obs.Profiler) splits
	// relocation traffic from the host's. Every CopyPage caller is a
	// GC/merge/relocation path.
	o := a.newOp()
	o.moved, o.dstChip, o.dst = done, dc, daddr
	a.readOn(sc, saddr, "gc-read", "gc-xfer-out", o)
}

// SetTimingScale applies a service-time drift to every chip in the
// array (see nand.Chip.SetTimingScale): the fabric-wide aging knob
// experiments use to slow a device mid-run and watch the host's
// calibration follow.
func (a *Array) SetTimingScale(read, program, erase float64) {
	for _, c := range a.chips {
		c.SetTimingScale(read, program, erase)
	}
}

// LUNFreeAt reports when the LUN holding PPA p frees up — the signal the
// write scheduler uses to pick the least-busy chip.
func (a *Array) LUNFreeAt(chip, lun int) sim.Time {
	return a.chips[chip].LUNServer(lun).FreeAt()
}
