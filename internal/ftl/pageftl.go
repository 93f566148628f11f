package ftl

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/sim"
)

// Reverse-map sentinels, kept in PageFTL.rmap and (rmapNameless) in a
// nameless writeJob's lpn.
const (
	rmapDead     = -1 // physical page holds no live data
	rmapNameless = -2 // physical page is live but host-addressed
)

// blockState tracks a physical block through its lifecycle.
type blockState uint8

const (
	blockFree blockState = iota
	blockOpen
	blockFull
	blockBad
)

// blockMeta is the FTL's bookkeeping for one physical block.
type blockMeta struct {
	state      blockState
	valid      int32
	writePtr   int32
	eraseCount int32
	lastWrite  sim.Time
}

// writeJob is a (possibly deferred) physical write request. It carries
// its completion as data, not as a closure: a write-back of the buffer
// entry admitted as seq (buffered), a nameless write's placement
// (placed), or a host write's outcome (done). settle hands it over.
type writeJob struct {
	lpn      int64 // >= 0 logical, rmapNameless for nameless writes
	data     []byte
	done     func(err error)
	placed   func(ppa PPA, err error)
	seq      uint64
	buffered bool
	parked   bool // a write-back the buffer keeps while it waits; landing checks it (writeBuffer.land)
}

// settle completes job: the page is on flash at ppa, or err says why not.
func (f *PageFTL) settle(job writeJob, ppa PPA, err error) {
	switch {
	case job.buffered:
		f.buf.written(job.seq) // flash-level failures were already retried
	case job.lpn == rmapNameless:
		job.placed(ppa, err)
	default:
		job.done(err)
	}
}

// pageOp is one PageFTL command in flight: a flash program
// (commitWrite), a flash read (readPhys), or an answer from controller
// RAM after a fixed latency (answer). The FTL owns it from issue until
// the outcome is handed over, and recycles it first (sim.Pool); its
// callbacks are bound once, when it is built.
type pageOp struct {
	f    *PageFTL
	chip int
	ppa  PPA
	job  writeJob            // a program; a write's answer (job.done)
	read func([]byte, error) // a flash read; a read's answer
	data []byte              // a read's answer
	oob  [8]byte             // a program: the owning LPN (oobFor)

	onProgram func(ok bool)
	onRead    func(data []byte, bitErrors int, err error)
	onAnswer  func()
}

// newOp takes a command record off the idle list, or builds one.
func (f *PageFTL) newOp() *pageOp {
	o := f.ops.Get()
	if o == nil {
		o = &pageOp{f: f}
		o.onProgram, o.onRead, o.onAnswer = o.programmed, o.flashRead, o.answered
	}
	return o
}

// recycle clears o, keeping its bindings, and puts it back on the list.
func (f *PageFTL) recycle(o *pageOp) {
	*o = pageOp{f: f, onProgram: o.onProgram, onRead: o.onRead, onAnswer: o.onAnswer}
	f.ops.Put(o)
}

// answer completes a read (with data) or a write from controller RAM, d
// from now.
func (f *PageFTL) answer(d sim.Time, read func([]byte, error), data []byte, write func(error)) {
	o := f.newOp()
	o.read, o.data, o.job.done = read, data, write
	f.eng.After(d, o.onAnswer)
}

func (o *pageOp) answered() {
	read, data, write := o.read, o.data, o.job.done
	o.f.recycle(o)
	if read != nil {
		read(data, nil)
		return
	}
	write(nil)
}

// chipState is per-chip allocation and relocation state.
type chipState struct {
	free     []PBA
	open     PBA // host write frontier
	gcOpen   PBA // relocation destination frontier
	gcActive bool
	pending  sim.Queue[writeJob] // writes stalled waiting for reclaimed space
	evac     evacuation          // the chip's one relocation (gc.go)
	retiring sim.Queue[PBA]      // retired blocks waiting for evac

	writeBacks int // buffer write-backs programming on the chip
}

// writeBackCap is how many buffer write-backs a chip may have
// programming while a host write waits on the full buffer (takes). The
// stalled write is admitted when the first write-back lands, wherever it
// lands, so each chip with room is handed one, which lands after one
// program, and the entries no chip can take yet stay resident instead
// of queueing on one LUN, where reads wait behind them. On dev_randwrite
// (seeds 1 and 2) a cap of 1 cuts the read trimmed mean by 24 %, caps of
// 2 and 3 by 9 % and 1 % (their read p99 a few points lower), and no cap
// raises read p99 by 49 to 58 %.
const writeBackCap = 1

// Controller-internal latencies.
const (
	bufferHitLatency = 2 * sim.Microsecond // RAM lookup + return path
	unmappedLatency  = 1 * sim.Microsecond // mapping miss answered from RAM
	bufferAckLatency = 2 * sim.Microsecond // write-back ack once buffered
)

// PageFTL is a page-level mapped FTL: any logical page can live on any
// physical page, so the scheduler is free to stripe writes over chips —
// the design the paper credits for making random writes cheap (Myth 2)
// — with cost-benefit GC (pickVictim), dynamic wear leveling (the
// least-worn free block is allocated first), bad-block retirement, and an
// optional write-back buffer that writes back the pages written least
// often first, so the often-rewritten ones stay resident through bursts
// of one-shot writes (writeBuffer). A battery-backed buffer kills an
// LPN's flash copy when it acknowledges a newer version, so GC never
// copies it; a volatile one keeps that copy live until the write-back
// lands.
type PageFTL struct {
	eng *sim.Engine
	arr *Array
	cfg Config
	rng *sim.RNG

	capacity int64
	// The map tables hold int32s, half the bytes of the PPA and int64
	// LPN they stand for: NewPageFTL refuses an array of more pages.
	mapping []int32 // lpn -> ppa | InvalidPPA (lookup)
	rmap    []int32 // ppa -> lpn | rmapDead | rmapNameless
	blocks  []blockMeta
	chips   []chipState

	// victimWeight[v] is ((P−v)/(P+v))² for a block of P pages holding v
	// live ones: pickVictim's squared score without a division per block.
	victimWeight []float64

	buf      *writeBuffer
	relocate func(old, new PPA)    // nameless-page relocation notifier
	gcNotify func(activeChips int) // GC activity notifier
	gcBusy   int                   // chips currently collecting

	// Host→device GC coordination (gccoord.go): while the virtual clock
	// is before gcDeferUntil, background GC stays parked on every chip
	// whose free pool is above the reserve (cfg.gcReserve blocks, the
	// deferral floor) with nothing pending.
	gcDeferUntil  sim.Time
	deferFloorHit bool // this session already charged a ForcedResume
	coord         metrics.GCCoord
	evsink        obs.EventSink // health-event sink (floor hits, forced GC)
	evlabel       string

	inFlight     int64    // outstanding flash programs, GC copies and erases
	flushWaiters []func() // unbuffered flushes waiting for inFlight == 0

	// Payload recycling (clone, kill). owned has one bit per physical
	// page, set while the page is live and its payload buffer is the
	// FTL's alone: programmed from a host write's entry copy and not
	// handed to a reader since (a GC move carries the bit to its
	// destination). It is allocated with the first payload a host write
	// carries, so a device that never carries one pays nothing. spares
	// holds the buffers of pages killed while owned, and of write-buffer
	// entries that died before reaching flash, for the next entry copy:
	// at most one block's pages, the rest left to the garbage collector.
	owned  []uint64
	spares [][]byte

	ops sim.Pool[pageOp] // idle command records

	rr    int // round-robin tiebreaker for placement
	stats Stats
}

var _ FTL = (*PageFTL)(nil)

// NewPageFTL builds a page-mapped FTL over arr.
func NewPageFTL(arr *Array, cfg Config) (*PageFTL, error) {
	cfg.normalize()
	f := &PageFTL{
		eng:   arr.Engine(),
		arr:   arr,
		cfg:   cfg,
		rng:   sim.NewRNG(cfg.Seed),
		coord: metrics.NewGCCoord(),
	}
	total := arr.TotalPages()
	if total > math.MaxInt32 {
		return nil, fmt.Errorf("%w: %d pages, more than the map's int32 entries address", ErrArrayGeometry, total)
	}
	f.capacity = int64(float64(total) * (1 - cfg.OverProvision))
	f.mapping = make([]int32, f.capacity)
	for i := range f.mapping {
		f.mapping[i] = int32(InvalidPPA)
	}
	f.rmap = make([]int32, total)
	for i := range f.rmap {
		f.rmap[i] = rmapDead
	}
	f.blocks = make([]blockMeta, arr.TotalBlocks())
	pages := float64(arr.PagesPerBlock())
	f.victimWeight = make([]float64, arr.PagesPerBlock()+1)
	for v := range f.victimWeight {
		r := (pages - float64(v)) / (pages + float64(v))
		f.victimWeight[v] = r * r
	}
	f.chips = make([]chipState, arr.Chips())
	blocksPerChip := arr.BlocksPerChip()
	for c := range f.chips {
		cs := &f.chips[c]
		cs.open, cs.gcOpen = InvalidPBA, InvalidPBA
		cs.evac = evacuation{f: f, chip: c, victim: InvalidPBA}
		cs.evac.onCopy, cs.evac.onErase = cs.evac.copied, cs.evac.erased
		for b := int64(0); b < blocksPerChip; b++ {
			pba := PBA(int64(c)*blocksPerChip + b)
			_, baddr, err := arr.SplitPBA(pba)
			if err != nil {
				return nil, err
			}
			if arr.Chip(c).IsBad(baddr) {
				f.blocks[pba].state = blockBad
				continue
			}
			cs.free = append(cs.free, pba)
		}
		if len(cs.free) <= cfg.gcReserve+1 {
			return nil, fmt.Errorf("%w: chip %d has only %d usable blocks", ErrArrayGeometry, c, len(cs.free))
		}
	}
	if cfg.BufferPages > 0 {
		f.buf = newWriteBuffer(f, cfg.BufferPages)
	}
	return f, nil
}

// Array returns the underlying flash fabric.
func (f *PageFTL) Array() *Array { return f.arr }

// Capacity reports the exported logical size in pages.
func (f *PageFTL) Capacity() int64 { return f.capacity }

// PageSize reports the page size in bytes.
func (f *PageFTL) PageSize() int { return f.arr.PageSize() }

// Stats returns a snapshot of the traffic counters.
func (f *PageFTL) Stats() Stats { return f.stats }

// SetRelocationNotifier registers the callback invoked when GC moves a
// nameless (host-addressed) page — the device-to-host half of the
// paper's "communicating peers" interface.
func (f *PageFTL) SetRelocationNotifier(fn func(old, new PPA)) { f.relocate = fn }

// SetGCNotifier registers the callback invoked whenever the number of
// chips running garbage collection changes —
// the device-state half of the paper's communication abstraction, which
// a host-side scheduler (package sched) uses to keep latency-sensitive
// traffic ahead of background relocations.
func (f *PageFTL) SetGCNotifier(fn func(activeChips int)) { f.gcNotify = fn }

// setGCActive flips one chip's GC interlock and fires the notifier on
// every change, so the host sees relocation activity start and stop.
func (f *PageFTL) setGCActive(chip int, active bool) {
	cs := &f.chips[chip]
	if cs.gcActive == active {
		return
	}
	cs.gcActive = active
	if active {
		f.gcBusy++
	} else {
		f.gcBusy--
	}
	if f.gcNotify != nil {
		f.gcNotify(f.gcBusy)
	}
}

// BufferSafe reports whether the write buffer survives power loss
// (battery/capacitor backed). A device without a buffer is trivially
// safe but cannot stage atomic groups, so this reports false then.
func (f *PageFTL) BufferSafe() bool { return f.buf != nil && f.cfg.BufferSafe }

// DropVolatileBuffer models a power failure: with a volatile buffer the
// un-flushed writes vanish (their LPNs are returned, for tests); with a
// battery-backed buffer (Config.BufferSafe) nothing is lost. Part of the
// Myth 2/Myth 3 story: the write-back cache that makes writes fast is a
// durability liability unless it is made safe.
func (f *PageFTL) DropVolatileBuffer() []int64 {
	if f.buf == nil || f.cfg.BufferSafe {
		return nil
	}
	return f.buf.dropVolatile()
}

// oobFor encodes the owning LPN into OOB metadata, as real FTLs do to
// rebuild their mapping after power loss.
func oobFor(lpn int64) (b [8]byte) {
	binary.LittleEndian.PutUint64(b[:], uint64(lpn))
	return b
}

func (f *PageFTL) checkLPN(lpn int64) error {
	if lpn < 0 || lpn >= f.capacity {
		return fmt.Errorf("%w: lpn %d, capacity %d", ErrLPNRange, lpn, f.capacity)
	}
	return nil
}

// lookup returns the physical page an in-range lpn maps to, or InvalidPPA.
func (f *PageFTL) lookup(lpn int64) PPA { return PPA(f.mapping[lpn]) }

// ReadLPN implements FTL.
func (f *PageFTL) ReadLPN(lpn int64, done func([]byte, error)) {
	if err := f.checkLPN(lpn); err != nil {
		done(nil, err)
		return
	}
	f.stats.HostReads++
	if f.buf != nil {
		if data, ok := f.buf.get(lpn); ok {
			f.stats.BufferHits++
			f.answer(bufferHitLatency, done, data, nil)
			return
		}
	}
	ppa := f.lookup(lpn)
	if ppa == InvalidPPA {
		f.answer(unmappedLatency, done, nil, nil)
		return
	}
	f.readPhys(ppa, done)
}

// readPhys reads a physical page and applies ECC. The read hands the
// page's payload buffer out, so the FTL no longer owns it alone.
func (f *PageFTL) readPhys(ppa PPA, done func([]byte, error)) {
	f.disown(ppa)
	o := f.newOp()
	o.ppa, o.read = ppa, done
	f.arr.ReadPage(ppa, o.onRead)
}

func (o *pageOp) flashRead(data []byte, bitErrors int, err error) {
	f, ppa, done := o.f, o.ppa, o.read
	f.recycle(o)
	if err != nil {
		done(nil, err)
		return
	}
	if _, eccErr := f.cfg.ECC.Decode(f.PageSize(), bitErrors, f.rng); eccErr != nil {
		f.stats.ReadErrors++
		done(nil, fmt.Errorf("%w: ppa %d: %v", ErrUncorrectable, ppa, eccErr))
		return
	}
	done(data, nil)
}

// ReadPhys reads a physical page directly — the read half of the
// nameless-write interface. The caller owns address translation.
func (f *PageFTL) ReadPhys(ppa PPA, done func([]byte, error)) {
	f.stats.HostReads++
	f.readPhys(ppa, done)
}

// WriteLPN implements FTL.
func (f *PageFTL) WriteLPN(lpn int64, data []byte, done func(error)) {
	if err := f.checkLPN(lpn); err != nil {
		done(err)
		return
	}
	if data != nil && len(data) != f.PageSize() {
		done(fmt.Errorf("ftl: payload %d bytes, page is %d", len(data), f.PageSize()))
		return
	}
	f.stats.HostWrites++
	if f.buf != nil {
		f.buf.insert(lpn, data, done)
		return
	}
	// The host's buffer is the host's again once this returns: the copy
	// made here is the one the chip keeps.
	f.writePhys(writeJob{lpn: lpn, data: f.clone(data), done: done})
}

// WriteNameless writes a page the device places wherever it likes and
// returns the physical address to the host — the paper's §3 "nameless
// writes". The page participates in GC; relocations are announced via
// the relocation notifier.
func (f *PageFTL) WriteNameless(data []byte, done func(PPA, error)) {
	if data != nil && len(data) != f.PageSize() {
		done(InvalidPPA, fmt.Errorf("ftl: payload %d bytes, page is %d", len(data), f.PageSize()))
		return
	}
	f.stats.HostWrites++
	f.writePhys(writeJob{lpn: rmapNameless, data: f.clone(data), placed: done})
}

// Trim implements FTL: drops the logical mapping so GC never copies the
// page again.
func (f *PageFTL) Trim(lpn int64) error {
	if err := f.checkLPN(lpn); err != nil {
		return err
	}
	f.stats.HostTrims++
	if f.buf != nil {
		f.buf.drop(lpn)
	}
	f.unmap(lpn)
	return nil
}

// unmap drops lpn's mapping and kills the page it pointed at.
func (f *PageFTL) unmap(lpn int64) {
	if old := f.lookup(lpn); old != InvalidPPA {
		f.mapping[lpn] = int32(InvalidPPA)
		f.invalidate(old)
	}
}

// TrimPhys drops a nameless page by physical address.
func (f *PageFTL) TrimPhys(ppa PPA) error {
	if ppa < 0 || int64(ppa) >= f.arr.TotalPages() {
		return fmt.Errorf("%w: %d", ErrPPARange, ppa)
	}
	f.stats.HostTrims++
	if f.rmap[ppa] == rmapNameless {
		f.invalidate(ppa)
	}
	return nil
}

// Flush implements FTL. With a write buffer it is a barrier over the
// writes acknowledged before it: done fires once each of them is on
// flash (or was trimmed since), and writes submitted later, GC copies
// and erases never hold it; a buffer holding nothing volatile costs the
// flush only its command cycle.
//
// Without a buffer an acknowledged write is already on flash, so the
// same barrier would be the command cycle alone. That half is not made
// here: the unbuffered device keeps the old rule — done fires when no
// program, GC copy or erase is outstanding — because E17–E22 run on
// unbuffered devices and their acceptance bars were measured against it
// (ROADMAP item 7 re-measures them, then this branch goes).
func (f *PageFTL) Flush(done func()) {
	if f.buf != nil {
		if !f.buf.flush(done) {
			f.eng.After(0, done)
		}
		return
	}
	if f.inFlight == 0 {
		f.eng.After(0, done)
		return
	}
	f.flushWaiters = append(f.flushWaiters, done)
}

// wakeFlushWaiters completes the unbuffered device's flushes once it
// has gone quiet.
func (f *PageFTL) wakeFlushWaiters() {
	if len(f.flushWaiters) == 0 || f.inFlight != 0 {
		return
	}
	ws := f.flushWaiters
	f.flushWaiters = nil
	for _, w := range ws {
		w()
	}
}

// invalidate marks a live physical page dead and decrements its block's
// valid count.
func (f *PageFTL) invalidate(ppa PPA) {
	if f.rmap[ppa] == rmapDead {
		return
	}
	f.kill(ppa)
	f.blocks[f.arr.BlockOf(ppa)].valid--
}

// kill marks a physical page dead and has its chip drop the page's
// payload. The map is the only authority on what is live, so a payload
// lives from its program until the FTL kills its page — an overwrite, a
// trim, a GC move, a failed program — not until GC erases the block.
// Every rmapDead store after construction goes through here. A buffer
// the FTL still owned alone goes on the spare list for the next host
// write's entry copy; while the page's program is in flight the chip
// hands nothing back, so the page keeps its bit and the program's
// report recycles the buffer (programmed).
func (f *PageFTL) kill(ppa PPA) {
	f.rmap[ppa] = rmapDead
	if data := f.arr.Discard(ppa); data != nil && f.disown(ppa) {
		f.spare(data)
	}
}

// own records that ppa's payload buffer is the FTL's alone.
func (f *PageFTL) own(ppa PPA) {
	if f.owned == nil {
		f.owned = make([]uint64, (f.arr.TotalPages()+63)/64)
	}
	f.owned[ppa/64] |= 1 << (ppa % 64)
}

// disown clears ppa's ownership bit and reports whether it was set.
func (f *PageFTL) disown(ppa PPA) bool {
	if f.owned == nil || ppa < 0 || int64(ppa) >= f.arr.TotalPages() {
		return false
	}
	w, bit := &f.owned[ppa/64], uint64(1)<<(ppa%64)
	was := *w&bit != 0
	*w &^= bit
	return was
}

// spare keeps buf, a dead payload buffer nothing else holds, for the
// next entry copy while the list is under one block's pages.
func (f *PageFTL) spare(buf []byte) {
	if buf == nil {
		return
	}
	if f.spares == nil {
		f.spares = make([][]byte, 0, f.arr.PagesPerBlock())
	}
	if len(f.spares) < cap(f.spares) {
		f.spares = append(f.spares, buf)
	}
}

// clone is the entry copy of a host write's payload, the one place a
// PageFTL takes the host's bytes (writeBuffer.insert, its stalled
// writes, unbuffered WriteLPN, WriteNameless): into a spare buffer when
// there is one, into a new one otherwise.
func (f *PageFTL) clone(data []byte) []byte {
	n := len(f.spares)
	if data == nil || n == 0 {
		return cloneBytes(data)
	}
	buf := f.spares[n-1]
	f.spares[n-1] = nil
	f.spares = f.spares[:n-1]
	copy(buf, data)
	return buf
}

// pickChip chooses the chip for a write job; ok is false when no chip
// can take it right now (takes).
func (f *PageFTL) pickChip(job writeJob) (int, bool) {
	n := f.arr.Chips()
	if f.cfg.Placement == PlaceStatic && job.lpn >= 0 {
		return int(job.lpn % int64(n)), true
	}
	// Dynamic: chip with space whose LUN 0 frees earliest; round-robin
	// breaks ties so an idle array still stripes.
	best, bestAt := -1, sim.MaxTime
	for i := 0; i < n; i++ {
		c := (f.rr + i) % n
		if !f.takes(c, job.buffered) {
			continue
		}
		at := f.arr.LUNFreeAt(c, 0)
		if at < bestAt {
			best, bestAt = c, at
		}
	}
	f.rr = (f.rr + 1) % n
	if best < 0 {
		return f.rr, false
	}
	return best, true
}

// headroomPages counts the free pages GC can still write into on a
// chip: whole free blocks plus the remainder of the GC frontier.
func (f *PageFTL) headroomPages(c int) int {
	cs := &f.chips[c]
	ppb := f.arr.PagesPerBlock()
	pages := len(cs.free) * ppb
	if cs.gcOpen != InvalidPBA {
		pages += ppb - int(f.blocks[cs.gcOpen].writePtr)
	}
	return pages
}

// hostSpace reports whether chip c can accept a host write now without
// eating into the headroom GC needs to keep reclaiming.
func (f *PageFTL) hostSpace(c int) bool {
	cs := &f.chips[c]
	if cs.open != InvalidPBA && int(f.blocks[cs.open].writePtr) < f.arr.PagesPerBlock() {
		return true
	}
	return f.headroomPages(c) >= (f.cfg.gcReserve+1)*f.arr.PagesPerBlock()
}

// takes reports whether chip c can take a write now: it has host space,
// and while a host write waits on the full buffer, a write-back also
// needs the chip to have fewer than writeBackCap write-backs programming.
func (f *PageFTL) takes(c int, writeBack bool) bool {
	if writeBack && f.chips[c].writeBacks >= writeBackCap && f.buf.stalled() {
		return false
	}
	return f.hostSpace(c)
}

// writeBackRoom reports whether a write-back taken now is placed at
// once: some chip takes it, or placement is static, where its LPN names
// the chip.
func (f *PageFTL) writeBackRoom() bool {
	if f.cfg.Placement == PlaceStatic {
		return true
	}
	for c := range f.chips {
		if f.takes(c, true) {
			return true
		}
	}
	return false
}

// resumeWriteBacks kicks a flusher that a stalled host write holds back
// (writeBuffer.kick) where a chip may have become able to take a
// write-back: an erase landing, a GC pass ending. A write-back landing
// kicks it anyway (written). A deferral lease lapsing need not: it
// starts GC but frees no room.
func (f *PageFTL) resumeWriteBacks() {
	if f.buf != nil && f.buf.stalled() {
		f.buf.kick()
	}
}

// writePhys routes a write job to a chip, possibly deferring it until GC
// reclaims space.
func (f *PageFTL) writePhys(job writeJob) {
	chip, ok := f.pickChip(job)
	if !ok && f.cfg.Placement != PlaceStatic {
		// No chip has immediate space: park the job where reclamation
		// can actually happen.
		f.reroute(job)
		return
	}
	f.writeOnChip(chip, job)
}

// reroute finds a home for jobs whose chip cannot reclaim space: first a
// chip with immediate room, then a chip whose GC is running or could
// run. Only when no chip anywhere holds reclaimable garbage do the jobs
// fail with ErrDeviceFull.
//
// The second scan parks a job on the lowest-numbered such chip, and on a
// chip-bound device every chip is collecting, so that is always chip 0.
// A write-back taken while a host write waits on the full buffer does
// not get here: the flusher then takes an entry only for a chip that
// takes it now (writeBuffer.kick), so the entry stays resident,
// readable and coalescing, instead of parking on chip 0 in front of the
// stalled write. Write-backs taken with no host write waiting still
// park here: they are the overflow that keeps dev_mixed's writes at RAM
// speed (handing each chip one at a time then too took its write p99
// from 86 µs to milliseconds). Parking on the chip with the most
// headroom instead, or letting the other chips adopt chip 0's parked
// jobs, raised dev_randwrite's read p99 by 18 to 23 %.
func (f *PageFTL) reroute(job writeJob) {
	n := f.arr.Chips()
	for c := 0; c < n; c++ {
		if f.hostSpace(c) {
			f.writeOnChip(c, job)
			return
		}
	}
	for c := 0; c < n; c++ {
		cs := &f.chips[c]
		if cs.gcActive || f.pickVictim(c) != InvalidPBA {
			f.wait(c, job)
			f.maybeStartGC(c)
			// GC may already be at its high watermark yet garbage
			// remains; force another pass for the parked job.
			if !cs.gcActive {
				f.setGCActive(c, true)
				f.gcStep(c)
			}
			return
		}
	}
	// Emergency: no garbage anywhere. Writing on a GC frontier creates
	// fresh garbage (these are overwrites — the device is at logical
	// capacity) and restarts the reclamation cycle.
	for c := 0; c < n; c++ {
		if ppa, ok := f.frontierPage(c); ok {
			f.commitWrite(c, ppa, job)
			return
		}
	}
	f.settle(job, InvalidPPA, fmt.Errorf("%w: all chips full of valid data", ErrDeviceFull))
}

// frontierPage takes a page off chip's GC frontier for a parked host
// write when nothing on the chip is reclaimable. It refuses while the
// chip's evacuation runs, since a copy's program may be waiting for its
// turn on that frontier, and at one block of headroom, the floor one
// worst-case victim evacuation needs.
func (f *PageFTL) frontierPage(chip int) (PPA, bool) {
	if f.chips[chip].evac.busy() || f.headroomPages(chip) <= f.arr.PagesPerBlock() {
		return InvalidPPA, false
	}
	return f.allocPage(chip, true)
}

func (f *PageFTL) writeOnChip(chip int, job writeJob) {
	ppa, ok := f.allocPage(chip, false)
	if !ok {
		cs := &f.chips[chip]
		if f.cfg.Placement == PlaceStatic || cs.gcActive || f.pickVictim(chip) != InvalidPBA {
			// Space will come back on this chip (or must, for static
			// placement): park the write here.
			f.wait(chip, job)
			f.maybeStartGC(chip)
			return
		}
		f.reroute(job)
		return
	}
	f.commitWrite(chip, ppa, job)
}

// commitWrite updates mapping state and issues the flash program. A
// parked buffer write-back that is no longer its LPN's newest — a newer
// one was taken, or the LPN trimmed, while it waited — is superseded:
// the host's later word stands, so it maps nothing. Its page is already
// allocated and a block programs in order, so the program still goes
// out, without the stale bytes, and the page is dead from the start.
func (f *PageFTL) commitWrite(chip int, ppa PPA, job writeJob) {
	bm := &f.blocks[f.arr.BlockOf(ppa)]
	stale := job.parked && !f.buf.land(job)
	job.parked = false // landed: the map, not the buffer, knows it now
	switch {
	case stale:
		f.spare(job.data)
		job.data = nil
	case job.lpn >= 0:
		if old := f.lookup(job.lpn); old != InvalidPPA {
			f.invalidate(old)
		}
		f.mapping[job.lpn] = int32(ppa)
		f.rmap[ppa] = int32(job.lpn)
	default:
		f.rmap[ppa] = rmapNameless
	}
	if job.data != nil {
		f.own(ppa) // the job's entry copy, or a failed program's retry of it
	}
	if f.rmap[ppa] != rmapDead {
		bm.valid++
	}
	bm.lastWrite = f.eng.Now()
	if job.buffered {
		f.chips[chip].writeBacks++
	}
	f.inFlight++
	o := f.newOp()
	o.chip, o.ppa, o.job, o.oob = chip, ppa, job, oobFor(job.lpn)
	f.arr.WritePage(ppa, job.data, o.oob[:], o.onProgram)
}

func (o *pageOp) programmed(ok bool) {
	f, chip, ppa, job := o.f, o.chip, o.ppa, o.job
	f.recycle(o)
	f.inFlight--
	if job.buffered {
		f.chips[chip].writeBacks--
	}
	if f.rmap[ppa] == rmapDead && f.disown(ppa) {
		f.spare(job.data) // killed while it programmed, unread: the buffer is free now
	}
	if !ok {
		f.disown(ppa) // the retry programs the same buffer
		f.handleProgramFailure(chip, ppa, job)
		return
	}
	f.maybeStartGC(chip)
	f.settle(job, ppa, nil)
	f.wakeFlushWaiters()
}

// handleProgramFailure retires the block and relocates the write —
// unless a trim or a newer write killed the page while it programmed.
// That job is superseded: the host's later word stands, and a retry
// would map the LPN back to these stale bytes, so it settles without a
// retry or an error, and the dead page is not invalidated a second time.
func (f *PageFTL) handleProgramFailure(chip int, ppa PPA, job writeJob) {
	if f.rmap[ppa] == rmapDead {
		f.retireBlock(chip, f.arr.BlockOf(ppa))
		f.settle(job, InvalidPPA, nil)
		f.wakeFlushWaiters()
		return
	}
	f.invalidate(ppa) // undo the failed page's bookkeeping
	if job.lpn >= 0 && f.lookup(job.lpn) == ppa {
		f.mapping[job.lpn] = int32(InvalidPPA)
	}
	if job.buffered {
		job = f.buf.park(job) // reads take its bytes until the retry maps
	}
	f.retireBlock(chip, f.arr.BlockOf(ppa))
	// Rewrite elsewhere.
	f.writeOnChip(f.pickChipExcept(chip, job), job)
}

func (f *PageFTL) pickChipExcept(except int, job writeJob) int {
	n := f.arr.Chips()
	if n == 1 {
		return 0
	}
	c, _ := f.pickChip(job)
	if c == except {
		c = (c + 1) % n
	}
	return c
}

// retireBlock marks a block bad after a program failure and queues its
// remaining valid pages for the chip's evacuation (the error management
// of Myth 1: the device must be able to redirect live data away from
// failing media).
func (f *PageFTL) retireBlock(chip int, blk PBA) {
	bm := &f.blocks[blk]
	if bm.state == blockBad {
		return
	}
	cs := &f.chips[chip]
	if cs.open == blk {
		cs.open = InvalidPBA
	}
	if cs.gcOpen == blk {
		cs.gcOpen = InvalidPBA
	}
	bm.state = blockBad
	if _, baddr, err := f.arr.SplitPBA(blk); err == nil {
		f.arr.Chip(chip).MarkBad(baddr)
	}
	if bm.valid > 0 {
		cs.retiring.Push(blk)
		f.nextEvacuation(chip)
	}
}

// allocPage hands out the next physical page on a chip frontier.
// forGC selects the GC frontier, which may dig into the reserve.
func (f *PageFTL) allocPage(chip int, forGC bool) (PPA, bool) {
	cs := &f.chips[chip]
	openPtr := &cs.open
	if forGC {
		openPtr = &cs.gcOpen
	}
	for {
		if *openPtr != InvalidPBA {
			bm := &f.blocks[*openPtr]
			if int(bm.writePtr) < f.arr.PagesPerBlock() {
				pg := int(bm.writePtr)
				bm.writePtr++
				ppa := f.arr.PPAOfBlock(*openPtr, pg)
				if int(bm.writePtr) == f.arr.PagesPerBlock() {
					bm.state = blockFull
					*openPtr = InvalidPBA
				}
				return ppa, true
			}
			bm.state = blockFull
			*openPtr = InvalidPBA
		}
		pba, ok := f.allocBlock(chip, forGC)
		if !ok {
			return InvalidPPA, false
		}
		*openPtr = pba
		f.blocks[pba].state = blockOpen
	}
}

// allocBlock pops the least-worn free block (dynamic wear leveling).
// Host allocations must leave GC a full reserve of headroom pages; GC
// allocations only need any free block at all.
func (f *PageFTL) allocBlock(chip int, forGC bool) (PBA, bool) {
	cs := &f.chips[chip]
	if len(cs.free) == 0 {
		return InvalidPBA, false
	}
	if !forGC && f.headroomPages(chip) < (f.cfg.gcReserve+1)*f.arr.PagesPerBlock() {
		return InvalidPBA, false
	}
	best := 0
	for i := 1; i < len(cs.free); i++ {
		if f.blocks[cs.free[i]].eraseCount < f.blocks[cs.free[best]].eraseCount {
			best = i
		}
	}
	pba := cs.free[best]
	cs.free[best] = cs.free[len(cs.free)-1]
	cs.free = cs.free[:len(cs.free)-1]
	return pba, true
}

// wait parks job on chip until reclamation frees space; a write-back
// parks where the buffer keeps it (writeBuffer.park).
func (f *PageFTL) wait(chip int, job writeJob) {
	if job.buffered {
		job = f.buf.park(job)
	}
	f.chips[chip].pending.Push(job)
}

// drainPending re-admits writes stalled on chip for want of space.
func (f *PageFTL) drainPending(chip int) {
	cs := &f.chips[chip]
	for cs.pending.Len() > 0 && f.hostSpace(chip) {
		f.writeOnChip(chip, cs.pending.Pop())
	}
}
