package ftl

import (
	"fmt"

	"repro/internal/sim"
)

// HybridFTL is a FAST-style hybrid log-block FTL — the design inside
// pre-2009 consumer SSDs. Data blocks are block-mapped; a small pool of
// page-mapped log blocks absorbs overwrites. Sequential overwrites of a
// whole logical block resolve with a cheap "switch merge" (remap the log
// block as the data block). Random overwrites scatter pages of many
// logical blocks across the log pool, so reclaiming one log block forces
// a "full merge" per logical block it touches — the log-block thrashing
// that made random writes 10-100x slower than sequential ones (Myth 2).
type HybridFTL struct {
	eng *sim.Engine
	arr *Array

	ops opQueue

	capacity int64
	lbnToPbn []PBA
	written  []bool // logical slot live (newest version may be in log)
	burned   []bool // physical slot of mapped data block programmed

	maxLogBlocks int
	logBlocks    []PBA           // active log blocks, oldest first
	logOwner     map[PBA][]int64 // per log block: owning lpn per page, -1 dead
	logPtr       int             // next page in newest log block
	logMap       map[int64]PPA   // lpn -> newest version in the log

	freeBlocks [][]PBA
	stats      Stats
}

var _ FTL = (*HybridFTL)(nil)

// NewHybridFTL builds the hybrid FTL with the given log pool size
// (FAST used a handful of log blocks; 4-16 is era-accurate).
func NewHybridFTL(arr *Array, overProvision float64, logBlocks int) (*HybridFTL, error) {
	if !arr.Spec().SupportsRandomProgram {
		return nil, fmt.Errorf("%w: hybrid mapping needs random-page-program chips", ErrArrayGeometry)
	}
	if logBlocks < 1 {
		logBlocks = 4
	}
	if overProvision < 0.05 {
		overProvision = 0.05
	}
	if overProvision > 0.5 {
		overProvision = 0.5
	}
	f := &HybridFTL{
		eng:          arr.Engine(),
		arr:          arr,
		maxLogBlocks: logBlocks,
		logOwner:     make(map[PBA][]int64),
		logMap:       make(map[int64]PPA),
	}
	totalBlocks := arr.TotalBlocks()
	exported := int64(float64(totalBlocks)*(1-overProvision)) - int64(logBlocks)
	if exported < 1 {
		return nil, fmt.Errorf("%w: device too small for %d log blocks", ErrArrayGeometry, logBlocks)
	}
	f.capacity = exported * int64(arr.PagesPerBlock())
	f.lbnToPbn = make([]PBA, exported)
	for i := range f.lbnToPbn {
		f.lbnToPbn[i] = InvalidPBA
	}
	f.written = make([]bool, f.capacity)
	f.burned = make([]bool, f.capacity)
	f.freeBlocks = make([][]PBA, arr.Chips())
	for c := 0; c < arr.Chips(); c++ {
		for b := int64(0); b < arr.BlocksPerChip(); b++ {
			pba := PBA(int64(c)*arr.BlocksPerChip() + b)
			_, baddr, err := arr.SplitPBA(pba)
			if err != nil {
				return nil, err
			}
			if arr.Chip(c).IsBad(baddr) {
				continue
			}
			f.freeBlocks[c] = append(f.freeBlocks[c], pba)
		}
	}
	return f, nil
}

// Capacity implements FTL.
func (f *HybridFTL) Capacity() int64 { return f.capacity }

// PageSize implements FTL.
func (f *HybridFTL) PageSize() int { return f.arr.PageSize() }

// Stats implements FTL.
func (f *HybridFTL) Stats() Stats { return f.stats }

// Flush implements FTL (no volatile data cache).
func (f *HybridFTL) Flush(done func()) { f.eng.After(0, done) }

func (f *HybridFTL) split(lpn int64) (lbn int64, off int) {
	return lpn / int64(f.arr.PagesPerBlock()), int(lpn % int64(f.arr.PagesPerBlock()))
}

func (f *HybridFTL) checkLPN(lpn int64) error {
	if lpn < 0 || lpn >= f.capacity {
		return fmt.Errorf("%w: lpn %d, capacity %d", ErrLPNRange, lpn, f.capacity)
	}
	return nil
}

func (f *HybridFTL) allocBlock(preferred int) (PBA, bool) {
	n := f.arr.Chips()
	for i := 0; i < n; i++ {
		c := (preferred + i) % n
		if len(f.freeBlocks[c]) > 0 {
			fb := f.freeBlocks[c]
			pba := fb[len(fb)-1]
			f.freeBlocks[c] = fb[:len(fb)-1]
			return pba, true
		}
	}
	return InvalidPBA, false
}

func (f *HybridFTL) freeBlock(pba PBA) {
	c := f.arr.ChipOfBlock(pba)
	f.freeBlocks[c] = append(f.freeBlocks[c], pba)
}

// ReadLPN implements FTL: the log pool holds the newest version.
// Commands execute one at a time (see opQueue).
func (f *HybridFTL) ReadLPN(lpn int64, done func([]byte, error)) {
	if err := f.checkLPN(lpn); err != nil {
		done(nil, err)
		return
	}
	f.ops.run(func(next func()) {
		f.readLPN(lpn, func(d []byte, err error) {
			done(d, err)
			next()
		})
	})
}

func (f *HybridFTL) readLPN(lpn int64, done func([]byte, error)) {
	f.stats.HostReads++
	if ppa, ok := f.logMap[lpn]; ok {
		f.arr.ReadPage(ppa, func(data []byte, _ int, err error) { done(data, err) })
		return
	}
	lbn, off := f.split(lpn)
	pbn := f.lbnToPbn[lbn]
	if pbn == InvalidPBA || !f.written[lpn] {
		f.eng.After(unmappedLatency, func() { done(nil, nil) })
		return
	}
	f.arr.ReadPage(f.arr.PPAOfBlock(pbn, off), func(data []byte, _ int, err error) { done(data, err) })
}

// WriteLPN implements FTL. In-place fills go straight to the data block;
// overwrites go to the log pool, merging when the pool is exhausted.
func (f *HybridFTL) WriteLPN(lpn int64, data []byte, done func(error)) {
	if err := f.checkLPN(lpn); err != nil {
		done(err)
		return
	}
	if data != nil && len(data) != f.PageSize() {
		done(fmt.Errorf("ftl: payload %d bytes, page is %d", len(data), f.PageSize()))
		return
	}
	// Copied once, here: the command may wait behind others, and the
	// host's buffer is the host's again once this returns.
	data = cloneBytes(data)
	f.ops.run(func(next func()) {
		f.writeLPN(lpn, data, func(err error) {
			done(err)
			next()
		})
	})
}

func (f *HybridFTL) writeLPN(lpn int64, data []byte, done func(error)) {
	f.stats.HostWrites++
	lbn, off := f.split(lpn)
	pbn := f.lbnToPbn[lbn]
	if pbn == InvalidPBA {
		newPbn, ok := f.allocBlock(int(lbn) % f.arr.Chips())
		if !ok {
			done(fmt.Errorf("%w: no free blocks", ErrDeviceFull))
			return
		}
		f.lbnToPbn[lbn] = newPbn
		f.programData(newPbn, lpn, off, data, done)
		return
	}
	if !f.burned[lpn] {
		f.programData(pbn, lpn, off, data, done)
		return
	}
	f.appendLog(lpn, data, done)
}

func (f *HybridFTL) programData(pbn PBA, lpn int64, off int, data []byte, done func(error)) {
	f.written[lpn] = true
	f.burned[lpn] = true
	oob := oobFor(lpn)
	f.arr.WritePage(f.arr.PPAOfBlock(pbn, off), data, oob[:], func(ok bool) {
		if !ok {
			done(fmt.Errorf("ftl: program failure at block %d", pbn))
			return
		}
		done(nil)
	})
}

// appendLog writes the page into the newest log block, merging the
// oldest log block first if the pool is full.
func (f *HybridFTL) appendLog(lpn int64, data []byte, done func(error)) {
	ppb := f.arr.PagesPerBlock()
	if len(f.logBlocks) == 0 || f.logPtr >= ppb {
		if len(f.logBlocks) >= f.maxLogBlocks {
			f.mergeOldestLog(func(err error) {
				if err != nil {
					done(err)
					return
				}
				f.appendLog(lpn, data, done)
			})
			return
		}
		nb, ok := f.allocBlock(len(f.logBlocks) % f.arr.Chips())
		if !ok {
			done(fmt.Errorf("%w: no log blocks", ErrDeviceFull))
			return
		}
		f.logBlocks = append(f.logBlocks, nb)
		owners := make([]int64, ppb)
		for i := range owners {
			owners[i] = -1
		}
		f.logOwner[nb] = owners
		f.logPtr = 0
	}
	cur := f.logBlocks[len(f.logBlocks)-1]
	slot := f.logPtr
	f.logPtr++
	// Invalidate any older version in the log.
	if old, ok := f.logMap[lpn]; ok {
		f.invalidateLogEntry(old)
	}
	ppa := f.arr.PPAOfBlock(cur, slot)
	f.logOwner[cur][slot] = lpn
	f.logMap[lpn] = ppa
	f.written[lpn] = true
	oob := oobFor(lpn)
	f.arr.WritePage(ppa, data, oob[:], func(ok bool) {
		if !ok {
			done(fmt.Errorf("ftl: program failure in log block %d", cur))
			return
		}
		done(nil)
	})
}

func (f *HybridFTL) invalidateLogEntry(ppa PPA) {
	blk := f.arr.BlockOf(ppa)
	owners, ok := f.logOwner[blk]
	if !ok {
		return
	}
	chip, addr, err := f.arr.SplitPPA(ppa)
	if err != nil {
		return
	}
	_ = chip
	owners[addr.Page] = -1
}

// mergeOldestLog reclaims the oldest log block. If it holds exactly one
// logical block's pages in order, a switch merge just remaps it;
// otherwise every logical block it touches pays a full merge.
func (f *HybridFTL) mergeOldestLog(done func(error)) {
	victim := f.logBlocks[0]
	owners := f.logOwner[victim]
	ppb := f.arr.PagesPerBlock()

	if lbn, ok := f.switchMergeable(victim); ok {
		// Switch merge: the log block becomes the data block.
		f.stats.SwitchMerges++
		old := f.lbnToPbn[lbn]
		f.lbnToPbn[lbn] = victim
		base := lbn * int64(ppb)
		for p := 0; p < ppb; p++ {
			delete(f.logMap, base+int64(p))
			f.burned[base+int64(p)] = true
		}
		f.popLogBlock(victim)
		if old == InvalidPBA {
			f.eng.After(0, func() { done(nil) })
			return
		}
		f.arr.EraseBlock(old, func(ok bool) {
			if ok {
				f.freeBlock(old)
			}
			done(nil)
		})
		return
	}

	// Collect the distinct logical blocks with live pages in the victim.
	seen := map[int64]bool{}
	var lbns []int64
	for p := 0; p < ppb; p++ {
		if owners[p] < 0 {
			continue
		}
		lbn, _ := f.split(owners[p])
		if !seen[lbn] {
			seen[lbn] = true
			lbns = append(lbns, lbn)
		}
	}
	var step func(i int)
	step = func(i int) {
		if i >= len(lbns) {
			f.popLogBlock(victim)
			f.arr.EraseBlock(victim, func(ok bool) {
				if ok {
					f.freeBlock(victim)
				}
				done(nil)
			})
			return
		}
		f.fullMergeLbn(lbns[i], func(err error) {
			if err != nil {
				done(err)
				return
			}
			step(i + 1)
		})
	}
	step(0)
}

// switchMergeable reports whether a log block contains exactly the full,
// in-order contents of one logical block.
func (f *HybridFTL) switchMergeable(victim PBA) (int64, bool) {
	owners := f.logOwner[victim]
	ppb := f.arr.PagesPerBlock()
	if owners[0] < 0 || owners[0]%int64(ppb) != 0 {
		return 0, false
	}
	lbn := owners[0] / int64(ppb)
	for p := 0; p < ppb; p++ {
		want := lbn*int64(ppb) + int64(p)
		if owners[p] != want {
			return 0, false
		}
		// The log must hold the newest version of every page.
		if cur, ok := f.logMap[want]; !ok || f.arr.BlockOf(cur) != victim {
			return 0, false
		}
	}
	return lbn, true
}

func (f *HybridFTL) popLogBlock(victim PBA) {
	delete(f.logOwner, victim)
	for i, b := range f.logBlocks {
		if b == victim {
			f.logBlocks = append(f.logBlocks[:i], f.logBlocks[i+1:]...)
			break
		}
	}
	if len(f.logBlocks) == 0 {
		f.logPtr = f.arr.PagesPerBlock()
	}
}

// fullMergeLbn folds the newest version of every page of lbn (from data
// block and log pool) into a fresh block.
func (f *HybridFTL) fullMergeLbn(lbn int64, done func(error)) {
	f.stats.MergeOps++
	ppb := f.arr.PagesPerBlock()
	base := lbn * int64(ppb)
	oldPbn := f.lbnToPbn[lbn]
	newPbn, ok := f.allocBlock(int(lbn) % f.arr.Chips())
	if !ok {
		done(fmt.Errorf("%w: no merge block", ErrDeviceFull))
		return
	}

	// Snapshot sources before mutating state.
	type src struct {
		ppa  PPA
		live bool
	}
	srcs := make([]src, ppb)
	for p := 0; p < ppb; p++ {
		lpn := base + int64(p)
		if !f.written[lpn] {
			continue
		}
		if ppa, ok := f.logMap[lpn]; ok {
			srcs[p] = src{ppa: ppa, live: true}
			f.invalidateLogEntry(ppa)
			delete(f.logMap, lpn)
		} else if f.burned[lpn] && oldPbn != InvalidPBA {
			srcs[p] = src{ppa: f.arr.PPAOfBlock(oldPbn, p), live: true}
		}
	}
	f.lbnToPbn[lbn] = newPbn
	for p := 0; p < ppb; p++ {
		f.burned[base+int64(p)] = srcs[p].live
	}

	var step func(p int)
	step = func(p int) {
		if p >= ppb {
			if oldPbn == InvalidPBA {
				f.eng.After(0, func() { done(nil) })
				return
			}
			f.arr.EraseBlock(oldPbn, func(ok bool) {
				if ok {
					f.freeBlock(oldPbn)
				}
				done(nil)
			})
			return
		}
		if !srcs[p].live {
			step(p + 1)
			return
		}
		f.arr.CopyPage(srcs[p].ppa, f.arr.PPAOfBlock(newPbn, p), func(bool) { step(p + 1) })
	}
	step(0)
}

// Trim implements FTL (page-level trim just marks the slot dead).
func (f *HybridFTL) Trim(lpn int64) error {
	if err := f.checkLPN(lpn); err != nil {
		return err
	}
	f.stats.HostTrims++
	f.written[lpn] = false
	if ppa, ok := f.logMap[lpn]; ok {
		f.invalidateLogEntry(ppa)
		delete(f.logMap, lpn)
	}
	return nil
}
