package ftl

import "fmt"

// This file implements garbage collection and static wear leveling for
// PageFTL — the Figure 2 modules whose traffic "interferes with the IOs
// submitted by the applications" because it shares the same LUNs and
// channels.

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

// gcStep reclaims one victim block, then reschedules itself until the
// stop watermark is met (the high watermark normally, the low one while
// the host is deferring GC).
func (f *PageFTL) gcStep(chip int) {
	cs := &f.chips[chip]
	if len(cs.free) >= f.gcStopWater(chip) {
		f.setGCActive(chip, false)
		f.drainPending(chip)
		f.maybeStaticWL(chip)
		return
	}
	victim := f.pickVictim(chip)
	if victim == InvalidPBA {
		// Nothing reclaimable on this chip right now. Under pressure,
		// hand parked writes the GC frontier itself (down to the floor
		// one worst-case victim evacuation needs): overwrites create
		// fresh garbage, which restarts the reclamation cycle.
		floor := f.arr.PagesPerBlock()
		for cs.pending.len() > 0 && f.headroomPages(chip) > floor {
			ppa, ok := f.allocPage(chip, true)
			if !ok {
				break
			}
			f.commitWrite(chip, ppa, cs.pending.pop())
		}
		f.setGCActive(chip, false)
		if jobs := cs.pending.takeAll(); len(jobs) > 0 {
			f.reroute(jobs)
		}
		return
	}
	f.evacuate(chip, victim, thenGC)
}

// pickVictim selects the next GC victim on a chip, or InvalidPBA when no
// block would yield free space.
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
		var score float64
		switch f.cfg.GCPolicy {
		case GCCostBenefit:
			// Rosenblum/Ousterhout: benefit/cost = (1-u)*age / (1+u).
			u := float64(bm.valid) / float64(pagesPerBlock)
			age := float64(now-bm.lastWrite) + 1
			score = (1 - u) * age / (1 + u)
		default: // GCGreedy: fewest valid pages wins.
			score = float64(pagesPerBlock - bm.valid)
		}
		if best == InvalidPBA || score > bestScore {
			best, bestScore = b, score
		}
	}
	return best
}

// evacuation relocates the valid pages of one block to its chip's GC
// frontier, one page at a time, then ends as its purpose says (then). A
// chip can run two at once — retireBlock starts one while GC's is
// running — so they come from a pool (PageFTL.evacs), and each carries
// its callbacks bound once; it goes back on the pool before its last
// callback moves the chip on.
type evacuation struct {
	f      *PageFTL
	chip   int
	victim PBA
	then   evacThen
	pg     int   // next page index to examine
	moved  int32 // valid pages at the start (wear leveling counts them)

	src, dst PPA   // the move in flight
	owner    int32 // src's rmap entry when the move was issued

	onCopy  func(ok bool)
	onErase func(ok bool)
}

// evacThen is what an evacuation does once the block holds no valid
// page.
type evacThen uint8

const (
	thenGC        evacThen = iota // erase it, then take the next GC step
	thenWearLevel                 // count the moves, erase it, release the chip
	thenRetire                    // nothing: a retired block is never erased
)

// evacuate starts relocating victim's valid pages.
func (f *PageFTL) evacuate(chip int, victim PBA, then evacThen) {
	e := f.evacs.Get()
	if e == nil {
		e = &evacuation{f: f}
		e.onCopy, e.onErase = e.copied, e.erased
	}
	e.chip, e.victim, e.then, e.pg, e.moved = chip, victim, then, 0, f.blocks[victim].valid
	e.step()
}

// step issues the next page move, or ends the evacuation when no valid
// page is left.
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
		e.pg++
		f.arr.CopyPage(src, dst, e.onCopy)
		return
	}
	switch e.then {
	case thenRetire:
		f.evacs.Put(e)
		return
	case thenWearLevel:
		f.stats.WearMoves += int64(e.moved)
	}
	f.erase(e)
}

// copied commits (or discards) one page move and issues the next. The
// page may have been overwritten or trimmed by the host while the copy
// was in flight, in which case the destination is garbage. A program
// failure at the destination retires that block and leaves the source
// live; the evacuation moves on (so a GC victim is then erased with a
// valid page, which panics: wear-out failures are not survived yet).
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
		bm.lastWrite = f.eng.Now()
		if e.owner >= 0 {
			f.mapping[e.owner] = int32(e.dst)
		} else if e.owner == rmapNameless && f.relocate != nil {
			f.relocate(e.src, e.dst)
		}
	}
	e.step()
	f.wakeFlushWaiters()
}

// erase erases a fully-evacuated block; erased returns it to the free
// pool.
func (f *PageFTL) erase(e *evacuation) {
	if bm := &f.blocks[e.victim]; bm.valid != 0 {
		panic(fmt.Sprintf("ftl: erasing block %d with %d valid pages", e.victim, bm.valid))
	}
	f.stats.GCErases++
	f.inFlight++
	f.arr.EraseBlock(e.victim, e.onErase)
}

func (e *evacuation) erased(ok bool) {
	f, chip, victim, then := e.f, e.chip, e.victim, e.then
	f.evacs.Put(e)
	f.inFlight--
	bm, cs := &f.blocks[victim], &f.chips[chip]
	if !ok {
		bm.state = blockBad
	} else {
		bm.state = blockFree
		bm.writePtr = 0
		bm.eraseCount++
		cs.free = append(cs.free, victim)
		cs.erases++
	}
	f.drainPending(chip)
	if then == thenWearLevel {
		f.setGCActive(chip, false)
		f.drainPending(chip)
	} else {
		f.gcStep(chip)
	}
	f.wakeFlushWaiters()
}

// maybeStaticWL runs static wear leveling: when the erase-count spread
// on a chip exceeds the threshold, the coldest full block is forcibly
// rewritten so its barely-worn cells rejoin the allocation pool.
func (f *PageFTL) maybeStaticWL(chip int) {
	if f.cfg.staticWearThreshold <= 0 {
		return
	}
	if f.gcDeferUntil > f.eng.Now() {
		// Static wear leveling is the most discretionary background work
		// there is: a host deferral session parks it outright (it resumes
		// with the first post-session GC pass).
		return
	}
	cs := &f.chips[chip]
	if cs.gcActive || cs.erases-cs.lastWLCheck < staticWLCheckRate {
		return
	}
	cs.lastWLCheck = cs.erases
	blocksPerChip := f.arr.BlocksPerChip()
	start := PBA(int64(chip) * blocksPerChip)
	var coldest PBA = InvalidPBA
	minEC, maxEC := int32(1<<30), int32(-1)
	for b := start; b < start+PBA(blocksPerChip); b++ {
		bm := &f.blocks[b]
		if bm.state == blockBad {
			continue
		}
		if bm.eraseCount > maxEC {
			maxEC = bm.eraseCount
		}
		if bm.state == blockFull && bm.eraseCount < minEC {
			minEC = bm.eraseCount
			coldest = b
		}
	}
	if coldest == InvalidPBA || int(maxEC-minEC) <= f.cfg.staticWearThreshold {
		return
	}
	f.setGCActive(chip, true) // reuse the GC interlock
	f.evacuate(chip, coldest, thenWearLevel)
}
