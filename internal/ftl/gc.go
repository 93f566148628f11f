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
	f.evacuateBlock(chip, victim, 0, func() {
		f.eraseAndFree(chip, victim, func() { f.gcStep(chip) })
	})
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

// evacuateBlock copies the valid pages of victim (from page index pg
// onward) to the chip's GC frontier, then calls done.
func (f *PageFTL) evacuateBlock(chip int, victim PBA, pg int, done func()) {
	pagesPerBlock := f.arr.PagesPerBlock()
	for ; pg < pagesPerBlock; pg++ {
		src := f.arr.PPAOfBlock(victim, pg)
		owner := f.rmap[src]
		if owner == rmapDead {
			continue
		}
		dst, ok := f.allocPage(chip, true)
		if !ok {
			panic(fmt.Sprintf("ftl: GC starved of reserve blocks on chip %d: %v", chip, ErrDeviceFull))
		}
		f.stats.GCMoves++
		f.inFlight++
		next := pg + 1
		f.arr.CopyPage(src, dst, func(ok bool) {
			f.inFlight--
			f.finishMove(src, dst, owner, ok)
			f.evacuateBlock(chip, victim, next, done)
			f.wakeFlushWaiters()
		})
		return
	}
	done()
}

// finishMove commits (or discards) one GC page move. The page may have
// been overwritten or trimmed by the host while the copy was in flight,
// in which case the destination is garbage.
func (f *PageFTL) finishMove(src, dst PPA, owner int64, ok bool) {
	dstBlk := f.arr.BlockOf(dst)
	if !ok {
		// Program failure at the destination: retire that block; source
		// stays live and a later GC pass will retry it.
		f.retireBlock(f.arr.ChipOf(dst), dstBlk)
		return
	}
	if f.rmap[src] != owner {
		// Died in flight: leave dst dead.
		f.rmap[dst] = rmapDead
		return
	}
	f.rmap[src] = rmapDead
	f.blocks[f.arr.BlockOf(src)].valid--
	f.rmap[dst] = owner
	bm := &f.blocks[dstBlk]
	bm.valid++
	bm.lastWrite = f.eng.Now()
	if owner >= 0 {
		f.mapping[owner] = dst
	} else if owner == rmapNameless && f.relocate != nil {
		f.relocate(src, dst)
	}
}

// eraseAndFree erases a fully-evacuated block and returns it to the free
// pool.
func (f *PageFTL) eraseAndFree(chip int, victim PBA, done func()) {
	bm := &f.blocks[victim]
	if bm.valid != 0 {
		panic(fmt.Sprintf("ftl: erasing block %d with %d valid pages", victim, bm.valid))
	}
	f.stats.GCErases++
	f.inFlight++
	f.arr.EraseBlock(victim, func(ok bool) {
		f.inFlight--
		cs := &f.chips[chip]
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
		done()
		f.wakeFlushWaiters()
	})
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
	moved := f.blocks[coldest].valid
	f.evacuateBlock(chip, coldest, 0, func() {
		f.stats.WearMoves += int64(moved)
		f.eraseAndFree(chip, coldest, func() {
			f.setGCActive(chip, false)
			f.drainPending(chip)
		})
	})
}
