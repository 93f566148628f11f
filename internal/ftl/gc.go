package ftl

import (
	"fmt"

	"repro/internal/sim"
)

// This file implements garbage collection and bad-block relocation for
// PageFTL — the Figure 2 modules whose traffic "interferes with the IOs
// submitted by the applications" because it shares the same LUNs and
// channels. A chip runs one relocation at a time (chipState.evac), so
// its GC frontier programs in allocation order.

// maybeStartGC kicks the per-chip GC loop when the free pool drops below
// the low watermark — unless the host holds a deferral session and this
// chip still has discretionary headroom above the defer floor
// (gccoord.go), in which case collection stays parked until the session
// ends or the floor forces the issue.
func (f *PageFTL) maybeStartGC(chip int) {
	cs := &f.chips[chip]
	if cs.gcActive || len(cs.free) >= f.cfg.GCLowWater {
		return
	}
	if f.deferredNow(chip) {
		return
	}
	f.setGCActive(chip, true)
	f.gcStep(chip)
}

// collect reports whether some chip collects, starting GC on the
// lowest-numbered chip that holds garbage when none does: a stalled
// flusher waits for the space it frees (writeBuffer.kick). GC that found
// no victim stays idle until a program lands on its chip, so garbage
// made there since — a write-back elsewhere killed the page it replaced
// — waits for this.
func (f *PageFTL) collect() bool {
	for c := range f.chips {
		if f.gcBusy > 0 {
			return true
		}
		if f.pickVictim(c) != InvalidPBA {
			f.setGCActive(c, true)
			f.gcStep(c)
		}
	}
	return f.gcBusy > 0
}

// gcStep reclaims one victim block, then reschedules itself until the
// stop watermark is met (the high watermark normally, the low one while
// the host is deferring GC). While the chip's evacuation is busy with a
// retired block, GC waits: the evacuation takes the next step when it
// ends (nextEvacuation).
func (f *PageFTL) gcStep(chip int) {
	cs := &f.chips[chip]
	if cs.evac.busy() {
		return
	}
	if len(cs.free) >= f.gcStopWater(chip) {
		f.setGCActive(chip, false)
		f.drainPending(chip)
		f.resumeWriteBacks()
		return
	}
	victim := f.pickVictim(chip)
	if victim == InvalidPBA {
		// Nothing reclaimable on this chip right now. Under pressure,
		// hand parked writes the GC frontier itself: overwrites create
		// fresh garbage, which restarts the reclamation cycle. What it
		// cannot take is rerouted from an emptied queue, since a reroute
		// may park a job back on this chip.
		for cs.pending.Len() > 0 {
			ppa, ok := f.frontierPage(chip)
			if !ok {
				break
			}
			f.commitWrite(chip, ppa, cs.pending.Pop())
		}
		f.setGCActive(chip, false)
		jobs := cs.pending
		cs.pending = sim.Queue[writeJob]{}
		for jobs.Len() > 0 {
			f.reroute(jobs.Pop())
		}
		f.resumeWriteBacks()
		return
	}
	cs.evac.start(victim)
}

// pickVictim selects the next GC victim on a chip, or InvalidPBA when no
// block would yield free space. The score is Rosenblum and Ousterhout's
// cost-benefit with the age term damped to its square root,
// (1−u)/(1+u)·√age for a block u full, age counted from its last
// program. Undamped age picks old blocks with too many live pages under
// uniform writes, where age says nothing about temperature; √age keeps
// most of the gain on skewed writes for about 1 % on uniform ones. The
// square of the score ranks the blocks the same, so a block costs one
// lookup in victimWeight and one multiply.
func (f *PageFTL) pickVictim(chip int) PBA {
	blocksPerChip := f.arr.BlocksPerChip()
	start := PBA(int64(chip) * blocksPerChip)
	pagesPerBlock := int32(f.arr.PagesPerBlock())
	now := f.eng.Now()

	best := InvalidPBA
	var bestScore float64
	for b := start; b < start+PBA(blocksPerChip); b++ {
		bm := &f.blocks[b]
		if bm.state != blockFull || bm.valid >= pagesPerBlock {
			continue
		}
		score := f.victimWeight[bm.valid] * float64(now-bm.lastWrite+1)
		if best == InvalidPBA || score > bestScore {
			best, bestScore = b, score
		}
	}
	return best
}

// evacuation relocates the live pages of one block to its chip's GC
// frontier, one page at a time: a GC victim, which it then erases, or a
// retired block, which stays bad (retireBlock marks it before it
// queues it). Each chip owns one, its callbacks bound once in
// NewPageFTL, so a chip has at most one copy in flight and its GC
// frontier programs in allocation order; a block retired meanwhile
// waits in chipState.retiring, and GC's next victim waits behind it.
type evacuation struct {
	f      *PageFTL
	chip   int
	victim PBA // InvalidPBA while idle
	pg     int // next page index to examine

	src, dst PPA   // the move in flight
	owner    int32 // src's rmap entry when the move was issued

	onCopy  func(ok bool)
	onErase func(ok bool)
}

// busy reports whether the evacuation holds a block.
func (e *evacuation) busy() bool { return e.victim != InvalidPBA }

// start relocates blk's live pages on the idle evacuation.
func (e *evacuation) start(blk PBA) {
	e.victim, e.pg = blk, 0
	e.step()
}

// step issues the next page move, or ends the evacuation when no live
// page is left. A page stays live until its copy lands, so a move that
// failed is issued again from the same source.
func (e *evacuation) step() {
	f := e.f
	base := f.arr.PPAOfBlock(e.victim, 0)
	for ; e.pg < f.arr.PagesPerBlock(); e.pg++ {
		src := base + PPA(e.pg)
		owner := f.rmap[src]
		if owner == rmapDead {
			continue
		}
		dst, ok := f.allocPage(e.chip, true)
		if !ok {
			panic(fmt.Sprintf("ftl: GC starved of reserve blocks on chip %d: %v", e.chip, ErrDeviceFull))
		}
		f.stats.GCMoves++
		f.inFlight++
		e.src, e.dst, e.owner = src, dst, owner
		f.arr.CopyPage(src, dst, e.onCopy)
		return
	}
	bm := &f.blocks[e.victim]
	if bm.state == blockBad {
		e.victim = InvalidPBA // retired, before or during this evacuation: never erased
		f.nextEvacuation(e.chip)
		return
	}
	if bm.valid != 0 {
		panic(fmt.Sprintf("ftl: erasing block %d with %d valid pages", e.victim, bm.valid))
	}
	f.stats.GCErases++
	f.inFlight++
	f.arr.EraseBlock(e.victim, e.onErase)
}

// copied commits (or discards) one page move and issues the next. The
// page may have been overwritten or trimmed by the host while the copy
// was in flight, in which case the destination is garbage. A program
// failure at the destination kills it and retires its block, which
// queues behind this evacuation; the source is still live, so step
// moves it again.
func (e *evacuation) copied(ok bool) {
	f := e.f
	f.inFlight--
	switch {
	case !ok:
		f.kill(e.dst) // the failed copy's destination holds nothing live
		f.retireBlock(e.chip, f.arr.BlockOf(e.dst))
	case f.rmap[e.src] != e.owner:
		f.kill(e.dst) // died in flight: leave dst dead
	default:
		// The page's buffer now lives at dst alone (a copyback shares it,
		// a cross-plane move programs the buffer it read), so ownership
		// moves with it instead of freeing it with the source.
		owned := f.disown(e.src)
		f.invalidate(e.src)
		if owned {
			f.own(e.dst)
		}
		f.rmap[e.dst] = e.owner
		bm := &f.blocks[f.arr.BlockOf(e.dst)]
		bm.valid++
		bm.lastWrite = f.eng.Now() // not the victim's age: that cost dev_randwrite 2.3 % ops/s for +0.8 % on dev_mixed
		if e.owner >= 0 {
			f.mapping[e.owner] = int32(e.dst)
		} else if e.owner == rmapNameless && f.relocate != nil {
			f.relocate(e.src, e.dst)
		}
	}
	e.step()
	f.wakeFlushWaiters()
}

// erased returns the emptied victim to the free pool, unless the erase
// wore it out, and hands the chip's evacuation on.
func (e *evacuation) erased(ok bool) {
	f, chip, victim := e.f, e.chip, e.victim
	e.victim = InvalidPBA
	f.inFlight--
	bm, cs := &f.blocks[victim], &f.chips[chip]
	if !ok {
		bm.state = blockBad
	} else {
		bm.state = blockFree
		bm.writePtr = 0
		bm.eraseCount++
		cs.free = append(cs.free, victim)
	}
	f.drainPending(chip)
	f.nextEvacuation(chip)
	f.resumeWriteBacks()
	f.wakeFlushWaiters()
}

// nextEvacuation gives the chip's idle evacuation its next block: a
// retired block waiting in line, else GC's next victim while GC runs.
func (f *PageFTL) nextEvacuation(chip int) {
	cs := &f.chips[chip]
	switch {
	case cs.evac.busy():
	case cs.retiring.Len() > 0:
		cs.evac.start(cs.retiring.Pop())
	case cs.gcActive:
		f.gcStep(chip)
	}
}
