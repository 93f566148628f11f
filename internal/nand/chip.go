package nand

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/sim"
)

// Sentinel errors for constraint violations and device failures.
var (
	// ErrBadAddress reports an address outside the chip geometry.
	ErrBadAddress = errors.New("nand: address out of range")
	// ErrPageProgrammed reports a program to an already-programmed page
	// (constraint C2: erase before rewrite).
	ErrPageProgrammed = errors.New("nand: page already programmed (erase block first)")
	// ErrOutOfOrder reports a program that skips ahead or behind the
	// block's sequential-write cursor (constraint C3).
	ErrOutOfOrder = errors.New("nand: program out of order within block")
	// ErrBadBlock reports an operation on a block marked bad.
	ErrBadBlock = errors.New("nand: block is marked bad")
	// ErrPageSize reports a payload that does not match the page size.
	ErrPageSize = errors.New("nand: payload does not match page size")
	// ErrOOBSize reports OOB metadata larger than the spare area.
	ErrOOBSize = errors.New("nand: OOB metadata exceeds spare area")
	// ErrNotProgrammed reports a read of an erased (never written) page.
	// Real chips return all-ones; we surface it so FTL bugs fail loudly.
	ErrNotProgrammed = errors.New("nand: page not programmed")
)

// Page flags, one byte per page.
const (
	pageProgrammed uint8 = 1 << iota
	pageBusy             // a program or copyback of the page is in flight
)

// block is one erase block's state, stored by value in Chip.blocks.
type block struct {
	nextPage   int // C3 cursor: next programmable page index
	eraseCount int
	bad        bool
}

// Stats counts chip-level operations, for verifying where traffic went.
type Stats struct {
	Reads    int64
	Programs int64
	Erases   int64
	// ProgramFails and EraseFails count wear-induced status failures.
	ProgramFails int64
	EraseFails   int64
}

// Chip is one simulated NAND flash device.
type Chip struct {
	eng  *sim.Engine
	rng  *sim.RNG
	spec Spec
	// luns times each LUN, the unit of operation interleaving: ops on
	// distinct LUNs overlap, ops on one LUN serialize.
	luns []lun

	// Per-block and per-page state in flat arrays: block b (numbered
	// LUN-major, then plane, then block within the plane) is blocks[b],
	// and its page p is page b*PagesPerBlock+p of each per-page array.
	blocks []block
	flags  []uint8 // pageProgrammed, pageBusy
	// data holds each programmed page's payload, nil when the write
	// carried none or once discarded; the array itself is nil until a
	// program first carries a payload. A payload buffer is never written
	// again while a page holds it: it is the buffer the program handed
	// in, Discard drops it (and hands it back) once the page's owner
	// declares it dead (erase, if nothing did before), and the next
	// program brings its own. So on-chip copies share it and a read
	// hands it out itself, read-only.
	data [][]byte
	// oob is the spare-area slab: oobWidth bytes per page, of which page
	// i's spare area is the first oobLen[i]. Both are nil until a program
	// first carries a spare area; a longer one than any before regrows
	// the slab to its length, leaving the old slab to the reads that
	// handed it out. A page's slot is rewritten by its next program, and
	// an erase only zeroes its length.
	oob      []byte
	oobLen   []uint16
	oobWidth int

	// baseTiming preserves the datasheet latencies so SetTimingScale
	// composes from a fixed origin instead of compounding.
	baseTiming Timing

	// failed marks a dead die (fault injection): every program and erase
	// reports a status failure, every read comes back with an
	// uncorrectable raw bit-error count. The chip still accepts and
	// times operations — a dead die answers the bus, it just answers
	// wrong — so the FTL's own failure handling (block retirement, ECC
	// rejection) is what surfaces the death.
	failed bool
	// stallUntil freezes the chip (firmware hang, fault injection):
	// operations submitted before it do not begin occupying their LUN
	// until it passes. In-flight operations keep the completion they
	// started with.
	stallUntil sim.Time

	// payloads counts the pages holding a payload (PayloadPages).
	payloads int

	ops   sim.Pool[op] // idle command records
	stats Stats
}

// op is one command in flight on a chip: what its completion needs, and
// the completion itself, bound once as fire. The chip owns it from issue
// until the LUN reservation ends, then puts it back on c.ops before
// handing the outcome to the caller's callback — which may issue the
// chip's next command on the same record.
type op struct {
	c     *Chip
	read  func(ReadResult, error) // a page read
	done  func(ok bool)           // a program, copyback or erase
	addr  Addr                    // read: for the not-programmed error
	pg    int                     // read, program, copyback: the page's index
	data  []byte                  // read: the page's payload at issue
	blk   int                     // erase: the block's index
	wear  int                     // read: erase count at issue
	fail  bool                    // program, copyback, erase: wear draw at issue
	erase bool
	fire  func(start, end sim.Time)
}

// erasePulses is how many equal pulses an erase runs as on a part with
// EraseSuspend: a read that reaches the LUN mid-erase runs at the end of
// the pulse in progress (375 µs into a 3 ms MLC erase at most), and the
// erase resumes behind it. The pulse boundary is the model's suspend
// latency; resuming charges nothing.
const erasePulses = 8

// lun is one LUN: its timing server and, on a part with EraseSuspend,
// the erase it is running and the commands that erase holds back.
type lun struct {
	srv *sim.Server
	// erase is the erase whose last pulse has not ended yet (nil when
	// none), with the pulses it has still to book.
	erase  *op
	pulses int
	// held keeps the programs, copybacks and erases issued while erase
	// runs, in issue order, until its last pulse ends. It holds at most
	// the commands the FTL has outstanding on the chip: with a
	// page-mapped FTL, its buffer's write-backs (at most one per chip of
	// the array), the chip's one GC copy or erase, and on an unbuffered
	// device the host writes within the host's queue depth.
	held sim.Queue[heldCmd]
	// endPulse runs at the end of each of erase's pulses, bound once.
	endPulse func(start, end sim.Time)
}

// heldCmd is a command a running erase holds back: its record, when it
// was ready at issue, and its LUN time.
type heldCmd struct {
	o     *op
	ready sim.Time
	d     sim.Time
	label string
}

// issue reserves LUN l for d from ready (behind any stall) and runs o at
// the reservation's end. While an erase runs on a part with
// EraseSuspend, a program, copyback or erase is held until it ends.
func (c *Chip) issue(l int, ready, d sim.Time, label string, o *op) {
	ln := &c.luns[l]
	ready = max(c.ready(ready), c.eng.Now())
	if ln.erase != nil && o.read == nil {
		ln.held.Push(heldCmd{o: o, ready: ready, d: d, label: label})
		return
	}
	c.reserve(ln, ready, d, label, o)
}

// reserve books o on ln from ready, which may have passed if o was held:
// the held time then shows as wait on the LUN's tap. A suspendable erase
// books its first pulse and becomes the LUN's running erase.
func (c *Chip) reserve(ln *lun, ready, d sim.Time, label string, o *op) {
	if !o.erase || !c.spec.EraseSuspend {
		ln.srv.UseHeld(ready, d, label, o.fire)
		return
	}
	ln.erase, ln.pulses = o, erasePulses
	c.pulse(ln, ready)
}

// pulse books the next pulse of ln's erase from ready, its length read
// from the current timing.
func (c *Chip) pulse(ln *lun, ready sim.Time) {
	ln.pulses--
	ln.srv.UseHeld(ready, c.spec.Timing.EraseBlock/erasePulses, "erase", ln.endPulse)
}

// endPulse books the next pulse of ln's erase behind whatever reads came
// in during this one; after the last, it books the held commands in
// issue order — up to the first erase among them, which holds the rest —
// and then completes the erase.
func (c *Chip) endPulse(ln *lun, start, end sim.Time) {
	if ln.pulses > 0 {
		c.pulse(ln, c.ready(end))
		return
	}
	o := ln.erase
	ln.erase = nil
	for ln.erase == nil && ln.held.Len() > 0 {
		h := ln.held.Pop()
		c.reserve(ln, c.ready(h.ready), h.d, h.label, h.o)
	}
	o.complete(start, end)
}

// opBatch is how many command records a chip builds at once when its
// idle list runs dry. A chip under a page-mapped FTL holds a few
// commands at a time — its write-backs and one GC command — and how
// many at most varies from run to run, so a pool that grew one record at
// each new peak built one more record tens of thousands of writes into
// a steady run; four at a time covers the common peaks in one step.
const opBatch = 4

// newOp takes a command record off the idle list, building opBatch of
// them in one allocation when it is empty.
func (c *Chip) newOp() *op {
	if o := c.ops.Get(); o != nil {
		return o
	}
	batch := make([]op, opBatch)
	for i := range batch {
		o := &batch[i]
		o.c = c
		o.fire = o.complete
		if i > 0 {
			c.ops.Put(o)
		}
	}
	return &batch[0]
}

// complete recycles o and hands its outcome over.
func (o *op) complete(_, _ sim.Time) {
	c, r := o.c, *o
	*o = op{c: c, fire: o.fire}
	c.ops.Put(o)
	if r.read == nil && !r.erase {
		c.flags[r.pg] &^= pageBusy // the program's outcome is known
	}
	switch {
	case r.read != nil:
		if c.flags[r.pg]&pageProgrammed == 0 {
			r.read(ReadResult{}, fmt.Errorf("%w: %v", ErrNotProgrammed, r.addr))
			return
		}
		data := r.data
		if data == nil {
			data = c.payload(r.pg) // erased at issue, programmed since
		}
		r.read(ReadResult{Data: data, OOB: c.spare(r.pg), BitErrors: c.sampleBitErrors(r.wear)}, nil)
	case r.fail && r.erase:
		c.stats.EraseFails++
		c.blocks[r.blk].bad = true
		r.done(false)
	case r.fail:
		c.stats.ProgramFails++
		r.done(false)
	case r.erase:
		c.eraseBlock(r.blk)
		r.done(true)
	default:
		r.done(true)
	}
}

// NewChip builds a chip from spec on eng. The rng drives factory bad
// blocks, wear-out failures and bit-error sampling; pass a chip-specific
// seed for reproducibility.
func NewChip(eng *sim.Engine, spec Spec, rng *sim.RNG, name string) (*Chip, error) {
	if err := spec.Geometry.Validate(); err != nil {
		return nil, err
	}
	g := spec.Geometry
	c := &Chip{
		eng: eng, rng: rng, spec: spec, baseTiming: spec.Timing,
		luns:   make([]lun, g.LUNsPerChip),
		blocks: make([]block, g.BlocksPerChip()),
		flags:  make([]uint8, g.PagesPerChip()),
	}
	for l := range c.luns {
		ln := &c.luns[l]
		ln.srv = sim.NewServer(eng, fmt.Sprintf("%s/lun%d", name, l))
		ln.endPulse = func(start, end sim.Time) { c.endPulse(ln, start, end) }
	}
	if rng != nil {
		for b := range c.blocks {
			c.blocks[b].bad = rng.Bool(spec.Reliability.FactoryBadBlockRate)
		}
	}
	return c, nil
}

// blockIndex numbers block b in the chip's flat block array.
func (c *Chip) blockIndex(b BlockAddr) int {
	g := &c.spec.Geometry
	return (b.LUN*g.PlanesPerLUN+b.Plane)*g.BlocksPerPlane + b.Block
}

// pageIndex numbers page a in the chip's flat per-page arrays.
func (c *Chip) pageIndex(a Addr) int {
	return c.blockIndex(a.BlockAddr())*c.spec.Geometry.PagesPerBlock + a.Page
}

// payload returns page i's payload, nil if it holds none.
func (c *Chip) payload(i int) []byte {
	if c.data == nil {
		return nil
	}
	return c.data[i]
}

// setPayload hands page i, which holds none, the buffer data.
func (c *Chip) setPayload(i int, data []byte) {
	if data == nil {
		return
	}
	if c.data == nil {
		c.data = make([][]byte, len(c.flags))
	}
	c.data[i] = data
	c.payloads++
}

// spare returns page i's spare area itself, capped at its length.
func (c *Chip) spare(i int) []byte {
	if c.oob == nil {
		return nil
	}
	lo := i * c.oobWidth
	hi := lo + int(c.oobLen[i])
	return c.oob[lo:hi:hi]
}

// setSpare writes oob into page i's slot of the slab, regrowing the slab
// first if oob is longer than any spare area before it.
func (c *Chip) setSpare(i int, oob []byte) {
	if len(oob) > c.oobWidth {
		w := len(oob)
		slab := make([]byte, len(c.flags)*w)
		if c.oobLen == nil {
			c.oobLen = make([]uint16, len(c.flags))
		}
		for j, n := range c.oobLen {
			copy(slab[j*w:j*w+int(n)], c.oob[j*c.oobWidth:])
		}
		c.oob, c.oobWidth = slab, w
	}
	if c.oob != nil {
		copy(c.oob[i*c.oobWidth:], oob)
		c.oobLen[i] = uint16(len(oob))
	}
}

// eraseBlock returns block b's pages to the erased state, dropping their
// payloads.
func (c *Chip) eraseBlock(b int) {
	n := c.spec.Geometry.PagesPerBlock
	lo, hi := b*n, (b+1)*n
	clear(c.flags[lo:hi])
	if c.data != nil {
		for _, d := range c.data[lo:hi] {
			if d != nil {
				c.payloads--
			}
		}
		clear(c.data[lo:hi])
	}
	if c.oobLen != nil {
		clear(c.oobLen[lo:hi])
	}
	c.blocks[b].nextPage = 0
}

// SetTimingScale multiplies the chip's datasheet operation latencies by
// the given factors — the service-time drift of an aging part (reads
// slow a little as ECC retries mount; programs and erases slow a lot as
// cells wear). Factors apply to the original datasheet timing, so
// repeated calls replace rather than compound; a factor <= 0 restores
// that operation's datasheet timing. Operations already in flight keep
// the latency they started with.
func (c *Chip) SetTimingScale(read, program, erase float64) {
	scale := func(t sim.Time, f float64) sim.Time {
		if f <= 0 {
			return t
		}
		return sim.Time(float64(t) * f)
	}
	c.spec.Timing.ReadPage = scale(c.baseTiming.ReadPage, read)
	c.spec.Timing.ProgramPage = scale(c.baseTiming.ProgramPage, program)
	c.spec.Timing.EraseBlock = scale(c.baseTiming.EraseBlock, erase)
}

// Fail kills the die: from now on programs and erases report status
// failures and reads return uncorrectable bit-error counts. There is no
// recovery — chip death models a failed die, not a transient.
func (c *Chip) Fail() { c.failed = true }

// Stall freezes the chip until the given virtual time: operations
// submitted before then queue behind the stall instead of starting.
// Later stalls extend, earlier ones never shorten.
func (c *Chip) Stall(until sim.Time) {
	if until > c.stallUntil {
		c.stallUntil = until
	}
}

// ready chains an operation's LUN occupancy behind any active stall.
func (c *Chip) ready(t sim.Time) sim.Time {
	if c.stallUntil > t {
		return c.stallUntil
	}
	return t
}

// Geometry returns the chip's layout.
func (c *Chip) Geometry() Geometry { return c.spec.Geometry }

// Stats returns a snapshot of operation counters.
func (c *Chip) Stats() Stats { return c.stats }

// PayloadPages counts the pages that hold a payload: programmed with
// one, and neither discarded nor erased since. Pages an on-chip copy
// shares a buffer between count once each.
func (c *Chip) PayloadPages() int { return c.payloads }

// LUNServer exposes the timing server of a LUN so the SSD assembly can
// trace occupancy (Figure 1) and compute utilization.
func (c *Chip) LUNServer(l int) *sim.Server { return c.luns[l].srv }

// checkAddr validates a page address.
func (c *Chip) checkAddr(a Addr) error {
	g := c.spec.Geometry
	if a.LUN < 0 || a.LUN >= g.LUNsPerChip ||
		a.Plane < 0 || a.Plane >= g.PlanesPerLUN ||
		a.Block < 0 || a.Block >= g.BlocksPerPlane ||
		a.Page < 0 || a.Page >= g.PagesPerBlock {
		return fmt.Errorf("%w: %v", ErrBadAddress, a)
	}
	return nil
}

// ReadResult carries a completed page read.
type ReadResult struct {
	// Data is the payload the page held when the read was issued, itself
	// and not a copy (nil if the program carried none, or the page was
	// discarded before the read was issued): read-only, shared with the
	// chip and every other reader. It stays valid after the page is
	// discarded, erased and reprogrammed, which drop the buffer instead of
	// writing it. Discard hands the buffer back to the page's owner, who
	// must not reuse one a read has handed out (an FTL tracks that: see
	// ftl.PageFTL).
	Data []byte
	// OOB is the page's spare area itself, not a copy: read-only, and
	// valid until the page is next programmed.
	OOB []byte
	// BitErrors is the number of raw bit errors the read suffered; the
	// ECC layer decides whether they are correctable.
	BitErrors int
}

// Read starts a page read (C1: page granularity). The LUN is busy for
// tR; done receives the result when the data is ready in the page
// register. Transfer off-chip is charged separately by the channel.
// A synchronous error means the operation was rejected and not started.
// Reads of bad blocks are permitted: controllers salvage live pages out
// of failing blocks before retiring them.
func (c *Chip) Read(a Addr, done func(ReadResult, error)) error {
	return c.ReadAs(a, "read", done)
}

// ReadAs is Read with an explicit occupancy label, so callers moving
// pages for their own housekeeping (GC relocation, hybrid-log merges)
// attribute the LUN time to their cause instead of masquerading as host
// reads. Timing and semantics are identical to Read.
//
// The read takes the page's payload when it is issued, so a Discard of
// the page while the read is in flight does not change what it returns.
// Whether the page is programmed is decided at completion
// (ErrNotProgrammed).
func (c *Chip) ReadAs(a Addr, label string, done func(ReadResult, error)) error {
	if err := c.checkAddr(a); err != nil {
		return err
	}
	b := c.blockIndex(a.BlockAddr())
	i := b*c.spec.Geometry.PagesPerBlock + a.Page
	c.stats.Reads++
	o := c.newOp()
	o.read, o.addr, o.pg, o.data, o.wear = done, a, i, c.payload(i), c.blocks[b].eraseCount
	c.issue(a.LUN, c.eng.Now(), c.spec.Timing.ReadPage, label, o)
	return nil
}

// Program starts a page program. data may be nil for metadata-only
// simulation (capacity experiments that do not need payloads); otherwise
// it must be exactly one page, and the chip keeps it instead of copying
// it until Discard hands it back or an erase drops it: until then the
// caller must not write that buffer, because the page's readers share it,
// and after Discard only if no read or copyback has shared it. oob is
// optional spare-area metadata, copied.
// done receives ok=false on a wear-induced program status failure, in
// which case the FTL must treat the block as bad (C4 management).
func (c *Chip) Program(a Addr, data, oob []byte, done func(ok bool)) error {
	return c.ProgramFrom(c.eng.Now(), a, data, oob, done)
}

// ProgramFrom is Program with the LUN occupancy starting no earlier than
// ready — used by controllers that reserve the channel for the data
// transfer first and want the array operation chained behind it, with
// constraint validation still happening up front at submission.
func (c *Chip) ProgramFrom(ready sim.Time, a Addr, data, oob []byte, done func(ok bool)) error {
	return c.ProgramFromAs(ready, a, data, oob, "prog", done)
}

// ProgramFromAs is ProgramFrom with an explicit occupancy label (see
// ReadAs).
func (c *Chip) ProgramFromAs(ready sim.Time, a Addr, data, oob []byte, label string, done func(ok bool)) error {
	if err := c.checkAddr(a); err != nil {
		return err
	}
	g := c.spec.Geometry
	if data != nil && len(data) != g.PageSize {
		return fmt.Errorf("%w: got %d, want %d", ErrPageSize, len(data), g.PageSize)
	}
	if len(oob) > g.OOBSize {
		return fmt.Errorf("%w: got %d, max %d", ErrOOBSize, len(oob), g.OOBSize)
	}
	b := c.blockIndex(a.BlockAddr())
	blk := &c.blocks[b]
	if blk.bad {
		return fmt.Errorf("%w: %v", ErrBadBlock, a.BlockAddr())
	}
	i := b*g.PagesPerBlock + a.Page
	if c.flags[i]&pageProgrammed != 0 {
		return fmt.Errorf("%w: %v", ErrPageProgrammed, a)
	}
	if a.Page != blk.nextPage && !c.spec.SupportsRandomProgram {
		return fmt.Errorf("%w: %v, expected page %d", ErrOutOfOrder, a, blk.nextPage)
	}
	// Commit state at submission: the page register is loaded and the
	// sequential cursor advances. Failure is reported at completion.
	if a.Page >= blk.nextPage {
		blk.nextPage = a.Page + 1
	}
	c.flags[i] = pageProgrammed | pageBusy
	c.setPayload(i, data) // the chip's now (see Program)
	c.setSpare(i, oob)
	c.stats.Programs++
	o := c.newOp()
	o.done, o.pg, o.fail = done, i, c.wearFailure(blk.eraseCount)
	c.issue(a.LUN, ready, c.spec.Timing.ProgramPage, label, o)
	return nil
}

// Discard drops the payload of page a: the page's owner has declared it
// dead, so no read issued from now on needs its bytes, and a read issued
// before holds them already (see ReadAs). The page stays programmed —
// only an erase makes it writable again — and reads back with no
// payload. Discard takes no time on the LUN and does nothing to a page
// without a payload.
//
// It returns the buffer it dropped, which the chip no longer holds; nil
// when the page held none, or while a program or copyback of the page is
// still in flight, since until that reports its caller may need the
// bytes to retry it elsewhere. The chip does not know who else holds the
// buffer: a read issued before hands it out, and a copyback shares it
// with its destination. Only the caller, who knows what it issued, can
// tell whether the buffer is free to write.
func (c *Chip) Discard(a Addr) []byte {
	i := c.pageIndex(a)
	data := c.payload(i)
	if data == nil {
		return nil
	}
	c.data[i] = nil
	c.payloads--
	if c.flags[i]&pageBusy != 0 {
		return nil
	}
	return data
}

// EraseFrom starts a block erase (C2) with the LUN occupancy starting
// no earlier than ready (chained behind the channel command cycle).
// done receives ok=false on wear-out failure; the block is then marked
// bad (grown bad block).
func (c *Chip) EraseFrom(ready sim.Time, b BlockAddr, done func(ok bool)) error {
	if err := c.checkAddr(Addr{LUN: b.LUN, Plane: b.Plane, Block: b.Block}); err != nil {
		return err
	}
	bi := c.blockIndex(b)
	blk := &c.blocks[bi]
	if blk.bad {
		return fmt.Errorf("%w: %v", ErrBadBlock, b)
	}
	blk.eraseCount++
	o := c.newOp()
	o.done, o.blk, o.erase, o.fail = done, bi, true, c.wearFailure(blk.eraseCount)
	c.stats.Erases++
	c.issue(b.LUN, ready, c.spec.Timing.EraseBlock, "erase", o)
	return nil
}

// CopyBack starts an on-chip copy (read into register, program to a new
// page in the same plane) without occupying the channel — the classic GC
// optimization. Destination constraints are the same as Program.
func (c *Chip) CopyBack(src, dst Addr, done func(ok bool)) error {
	if err := c.checkAddr(src); err != nil {
		return err
	}
	if err := c.checkAddr(dst); err != nil {
		return err
	}
	if src.LUN != dst.LUN || src.Plane != dst.Plane {
		return fmt.Errorf("nand: copyback must stay within one plane (src %v, dst %v)", src, dst)
	}
	db := c.blockIndex(dst.BlockAddr())
	dblk := &c.blocks[db]
	if dblk.bad {
		return fmt.Errorf("%w: copyback dest %v", ErrBadBlock, dst)
	}
	si, di := c.pageIndex(src), db*c.spec.Geometry.PagesPerBlock+dst.Page
	if c.flags[si]&pageProgrammed == 0 {
		return fmt.Errorf("%w: copyback source %v", ErrNotProgrammed, src)
	}
	if c.flags[di]&pageProgrammed != 0 {
		return fmt.Errorf("%w: copyback dest %v", ErrPageProgrammed, dst)
	}
	if dst.Page != dblk.nextPage && !c.spec.SupportsRandomProgram {
		return fmt.Errorf("%w: copyback dest %v, expected page %d", ErrOutOfOrder, dst, dblk.nextPage)
	}
	if dst.Page >= dblk.nextPage {
		dblk.nextPage = dst.Page + 1
	}
	c.flags[di] = pageProgrammed | pageBusy
	c.setPayload(di, c.payload(si)) // never written again: the copy may share it
	c.setSpare(di, c.spare(si))
	c.stats.Reads++
	c.stats.Programs++
	o := c.newOp()
	o.done, o.pg, o.fail = done, di, c.wearFailure(dblk.eraseCount)
	c.issue(src.LUN, c.eng.Now(), c.spec.Timing.ReadPage+c.spec.Timing.ProgramPage, "copyback", o)
	return nil
}

// IsBad reports whether a block is factory- or grown-bad.
func (c *Chip) IsBad(b BlockAddr) bool { return c.blocks[c.blockIndex(b)].bad }

// MarkBad flags a block bad (the FTL does this after a program failure).
func (c *Chip) MarkBad(b BlockAddr) { c.blocks[c.blockIndex(b)].bad = true }

// wearFailure samples whether an operation fails due to wear (C4).
// Below rated cycles the probability is negligible; past the rating it
// climbs steeply.
func (c *Chip) wearFailure(eraseCount int) bool {
	if c.failed {
		return true
	}
	if c.rng == nil {
		return false
	}
	r := c.spec.Reliability
	if r.RatedCycles <= 0 {
		return false
	}
	frac := float64(eraseCount) / float64(r.RatedCycles)
	if frac <= 1 {
		return c.rng.Bool(1e-7 * frac)
	}
	// Past rating: failure probability ramps from ~0.1% toward certainty.
	p := 0.001 * math.Pow(frac, 8)
	if p > 0.9 {
		p = 0.9
	}
	return c.rng.Bool(p)
}

// sampleBitErrors draws the raw bit error count for a read from a block
// with the given wear, using a Poisson approximation of the binomial.
func (c *Chip) sampleBitErrors(eraseCount int) int {
	if c.failed {
		// A dead die's raw read-back is garbage: no ECC corrects it.
		return c.spec.Geometry.PageSize * 8
	}
	if c.rng == nil {
		return 0
	}
	r := c.spec.Reliability
	ber := r.BaseBER
	if r.RatedCycles > 0 {
		frac := float64(eraseCount) / float64(r.RatedCycles)
		ber *= 1 + r.BERGrowth*frac*frac
	}
	lambda := ber * float64(c.spec.Geometry.PageSize*8)
	return c.poisson(lambda)
}

// poisson samples a Poisson(lambda) variate (Knuth's method; lambda is
// small in practice).
func (c *Chip) poisson(lambda float64) int {
	if lambda <= 0 {
		return 0
	}
	l := math.Exp(-lambda)
	k := 0
	p := 1.0
	for {
		p *= c.rng.Float64()
		if p <= l {
			return k
		}
		k++
		if k > 1<<20 {
			return k // defensive: lambda absurdly large
		}
	}
}
