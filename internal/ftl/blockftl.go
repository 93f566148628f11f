package ftl

import (
	"fmt"

	"repro/internal/sim"
)

// BlockFTL is a pure block-mapped translation layer, the cheapest FTL of
// the earliest flash devices: one mapping entry per logical *block*, and
// a page's offset inside its block is fixed. Overwriting any page forces
// a read-modify-write of the whole block (a "full merge"): copy the
// still-valid pages plus the new page into a fresh block, remap, erase
// the old block. Sequential writes fill blocks in order and only pay a
// cheap remap ("switch merge"); random writes pay a merge per write —
// the pathology behind Myth 2's "random writes are very costly".
type BlockFTL struct {
	eng *sim.Engine
	arr *Array

	ops opQueue

	capacity   int64   // exported pages
	lbnToPbn   []PBA   // logical block -> physical block
	written    []bool  // logical slot holds live data
	burned     []bool  // physical slot of the mapped block is programmed
	freeBlocks [][]PBA // per chip

	stats Stats
}

var _ FTL = (*BlockFTL)(nil)

// NewBlockFTL builds a block-mapped FTL over arr. A small fraction of
// blocks is held back as merge scratch space. The chips must support
// random page programming (the old parts these FTLs shipped with).
func NewBlockFTL(arr *Array, overProvision float64) (*BlockFTL, error) {
	if !arr.Spec().SupportsRandomProgram {
		return nil, fmt.Errorf("%w: block mapping needs random-page-program chips", ErrArrayGeometry)
	}
	if overProvision < 0.05 {
		overProvision = 0.05
	}
	if overProvision > 0.5 {
		overProvision = 0.5
	}
	f := &BlockFTL{eng: arr.Engine(), arr: arr}
	totalBlocks := arr.TotalBlocks()
	exported := int64(float64(totalBlocks) * (1 - overProvision))
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
		if len(f.freeBlocks[c]) < 2 {
			return nil, fmt.Errorf("%w: chip %d unusable", ErrArrayGeometry, c)
		}
	}
	return f, nil
}

// Capacity implements FTL.
func (f *BlockFTL) Capacity() int64 { return f.capacity }

// PageSize implements FTL.
func (f *BlockFTL) PageSize() int { return f.arr.PageSize() }

// Stats implements FTL.
func (f *BlockFTL) Stats() Stats { return f.stats }

// Flush implements FTL (block FTLs hold no volatile state).
func (f *BlockFTL) Flush(done func()) { f.eng.After(0, done) }

func (f *BlockFTL) split(lpn int64) (lbn int64, off int) {
	return lpn / int64(f.arr.PagesPerBlock()), int(lpn % int64(f.arr.PagesPerBlock()))
}

func (f *BlockFTL) checkLPN(lpn int64) error {
	if lpn < 0 || lpn >= f.capacity {
		return fmt.Errorf("%w: lpn %d, capacity %d", ErrLPNRange, lpn, f.capacity)
	}
	return nil
}

// ReadLPN implements FTL. Commands execute one at a time (see opQueue).
func (f *BlockFTL) ReadLPN(lpn int64, done func([]byte, error)) {
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

func (f *BlockFTL) readLPN(lpn int64, done func([]byte, error)) {
	f.stats.HostReads++
	lbn, off := f.split(lpn)
	pbn := f.lbnToPbn[lbn]
	if pbn == InvalidPBA || !f.written[lpn] {
		f.eng.After(unmappedLatency, func() { done(nil, nil) })
		return
	}
	f.arr.ReadPage(f.arr.PPAOfBlock(pbn, off), func(data, _ []byte, _ int, err error) {
		done(data, err)
	})
}

// allocBlock takes a free block from the chip with the most headroom.
func (f *BlockFTL) allocBlock(preferred int) (PBA, bool) {
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

func (f *BlockFTL) freeBlock(pba PBA) {
	c := f.arr.ChipOfBlock(pba)
	f.freeBlocks[c] = append(f.freeBlocks[c], pba)
}

// WriteLPN implements FTL. Three cases:
//
//  1. the logical block is unmapped: allocate a block, program the page;
//  2. the target page slot is still erased and no later slot is written
//     (in-order fill): program in place;
//  3. otherwise: full merge.
func (f *BlockFTL) WriteLPN(lpn int64, data []byte, done func(err error)) {
	if err := f.checkLPN(lpn); err != nil {
		done(err)
		return
	}
	if data != nil && len(data) != f.PageSize() {
		done(fmt.Errorf("ftl: payload %d bytes, page is %d", len(data), f.PageSize()))
		return
	}
	f.ops.run(func(next func()) {
		f.writeLPN(lpn, data, func(err error) {
			done(err)
			next()
		})
	})
}

func (f *BlockFTL) writeLPN(lpn int64, data []byte, done func(err error)) {
	f.stats.HostWrites++
	lbn, off := f.split(lpn)
	pbn := f.lbnToPbn[lbn]
	chipHint := int(lbn) % f.arr.Chips()
	if pbn == InvalidPBA {
		newPbn, ok := f.allocBlock(chipHint)
		if !ok {
			done(fmt.Errorf("%w: no free blocks", ErrDeviceFull))
			return
		}
		f.lbnToPbn[lbn] = newPbn
		f.programInto(newPbn, lbn, off, data, done)
		return
	}
	if f.canProgramInPlace(pbn, lbn, off) {
		f.programInto(pbn, lbn, off, data, done)
		return
	}
	f.fullMerge(pbn, lbn, off, data, done)
}

// canProgramInPlace reports whether page off of the mapped block is
// still erased (these chips program pages in any order, so that is the
// only requirement).
func (f *BlockFTL) canProgramInPlace(pbn PBA, lbn int64, off int) bool {
	return !f.burned[lbn*int64(f.arr.PagesPerBlock())+int64(off)]
}

func (f *BlockFTL) programInto(pbn PBA, lbn int64, off int, data []byte, done func(error)) {
	lpn := lbn*int64(f.arr.PagesPerBlock()) + int64(off)
	f.written[lpn] = true
	f.burned[lpn] = true
	f.arr.WritePage(f.arr.PPAOfBlock(pbn, off), data, oobFor(lpn), func(ok bool) {
		if !ok {
			done(fmt.Errorf("ftl: program failure at block %d", pbn))
			return
		}
		done(nil)
	})
}

// fullMerge rewrites a whole logical block to fold in one new page: the
// random-write pathology. It reads every other valid page of the old
// block, programs them plus the new page into a fresh block, remaps, and
// erases the old block.
func (f *BlockFTL) fullMerge(oldPbn PBA, lbn int64, off int, data []byte, done func(error)) {
	f.stats.MergeOps++
	newPbn, ok := f.allocBlock(f.arr.ChipOfBlock(oldPbn))
	if !ok {
		done(fmt.Errorf("%w: no merge block", ErrDeviceFull))
		return
	}
	base := lbn * int64(f.arr.PagesPerBlock())
	f.lbnToPbn[lbn] = newPbn
	f.written[base+int64(off)] = true

	// Snapshot which source slots must move before rewriting burn state.
	move := make([]bool, f.arr.PagesPerBlock())
	for p := 0; p < f.arr.PagesPerBlock(); p++ {
		move[p] = p != off && f.written[base+int64(p)] && f.burned[base+int64(p)]
		f.burned[base+int64(p)] = p == off || move[p]
	}

	var step func(p int)
	step = func(p int) {
		if p >= f.arr.PagesPerBlock() {
			f.arr.EraseBlock(oldPbn, func(ok bool) {
				if ok {
					f.freeBlock(oldPbn)
				}
				done(nil)
			})
			return
		}
		dst := f.arr.PPAOfBlock(newPbn, p)
		if p == off {
			f.arr.WritePage(dst, data, oobFor(base+int64(p)), func(bool) { step(p + 1) })
			return
		}
		if !move[p] {
			step(p + 1)
			return
		}
		f.arr.CopyPage(f.arr.PPAOfBlock(oldPbn, p), dst, func(bool) { step(p + 1) })
	}
	step(0)
}

// Trim implements FTL. Block mapping can only drop whole logical blocks;
// trimming a single page just clears its written bit (and the block is
// reclaimed when every page is trimmed).
func (f *BlockFTL) Trim(lpn int64) error {
	if err := f.checkLPN(lpn); err != nil {
		return err
	}
	f.stats.HostTrims++
	f.written[lpn] = false
	lbn, _ := f.split(lpn)
	base := lbn * int64(f.arr.PagesPerBlock())
	for p := 0; p < f.arr.PagesPerBlock(); p++ {
		if f.written[base+int64(p)] {
			return nil
		}
	}
	// Whole block dead: unmap and erase it lazily.
	if pbn := f.lbnToPbn[lbn]; pbn != InvalidPBA {
		f.lbnToPbn[lbn] = InvalidPBA
		for p := 0; p < f.arr.PagesPerBlock(); p++ {
			f.burned[base+int64(p)] = false
		}
		f.arr.EraseBlock(pbn, func(ok bool) {
			if ok {
				f.freeBlock(pbn)
			}
		})
	}
	return nil
}
