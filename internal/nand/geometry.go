// Package nand models NAND flash chips at the fidelity the paper's
// arguments need: pages, blocks, planes and LUNs; read/program/erase
// timing; and the four flash constraints the paper lists in §2.2:
//
//	C1: reads and writes happen at page granularity;
//	C2: a block must be erased before any page in it is rewritten;
//	C3: writes within a block must be sequential;
//	C4: a block survives a limited number of erase cycles.
//
// Chips are passive timed devices: operations occupy a LUN (the unit of
// operation interleaving) for their datasheet duration on the simulation
// engine, and report completion through callbacks. Data transfer to and
// from the chip is the channel's job (package bus).
//
// Each command in flight is an op record the chip owns: taken from the
// chip's idle list at issue, holding the caller's callback and what the
// completion needs, with its own completion bound once. When the LUN
// reservation ends the chip puts the record back before calling the
// caller, whose callback may issue the chip's next command on it — so a
// caller that passes pre-bound callbacks issues commands without
// allocating. A program keeps the payload buffer it is handed and never
// writes it again (Discard — the page's death — hands it back to the
// page's owner, erase drops it, copyback shares it); the spare area is
// rewritten in place and kept
// across erase; a read hands out the payload it found at issue and the
// spare area, both themselves.
package nand

import "fmt"

// Geometry describes the physical layout of one chip.
type Geometry struct {
	PageSize       int // data bytes per page
	OOBSize        int // out-of-band (spare) bytes per page
	PagesPerBlock  int
	BlocksPerPlane int
	PlanesPerLUN   int
	LUNsPerChip    int
}

// maxOOBSize bounds the spare area: the chip keeps each page's spare-area
// length in 16 bits.
const maxOOBSize = 1<<16 - 1

// Validate reports an error if any dimension is non-positive, or the
// spare area is negative or over maxOOBSize.
func (g Geometry) Validate() error {
	switch {
	case g.PageSize <= 0:
		return fmt.Errorf("nand: PageSize %d must be positive", g.PageSize)
	case g.PagesPerBlock <= 0:
		return fmt.Errorf("nand: PagesPerBlock %d must be positive", g.PagesPerBlock)
	case g.BlocksPerPlane <= 0:
		return fmt.Errorf("nand: BlocksPerPlane %d must be positive", g.BlocksPerPlane)
	case g.PlanesPerLUN <= 0:
		return fmt.Errorf("nand: PlanesPerLUN %d must be positive", g.PlanesPerLUN)
	case g.LUNsPerChip <= 0:
		return fmt.Errorf("nand: LUNsPerChip %d must be positive", g.LUNsPerChip)
	case g.OOBSize < 0 || g.OOBSize > maxOOBSize:
		return fmt.Errorf("nand: OOBSize %d must be in [0, %d]", g.OOBSize, maxOOBSize)
	}
	return nil
}

// BlocksPerLUN reports blocks across all planes of one LUN.
func (g Geometry) BlocksPerLUN() int { return g.BlocksPerPlane * g.PlanesPerLUN }

// PagesPerLUN reports pages in one LUN.
func (g Geometry) PagesPerLUN() int { return g.BlocksPerLUN() * g.PagesPerBlock }

// PagesPerChip reports pages in the whole chip.
func (g Geometry) PagesPerChip() int { return g.PagesPerLUN() * g.LUNsPerChip }

// BlocksPerChip reports blocks in the whole chip.
func (g Geometry) BlocksPerChip() int { return g.BlocksPerLUN() * g.LUNsPerChip }

// Addr identifies one page inside a chip.
type Addr struct {
	LUN   int
	Plane int
	Block int // block index within the plane
	Page  int // page index within the block
}

// String formats the address as l/p/b/pg.
func (a Addr) String() string {
	return fmt.Sprintf("lun%d/pl%d/blk%d/pg%d", a.LUN, a.Plane, a.Block, a.Page)
}

// BlockAddr identifies one block inside a chip.
type BlockAddr struct {
	LUN   int
	Plane int
	Block int
}

// String formats the block address.
func (b BlockAddr) String() string {
	return fmt.Sprintf("lun%d/pl%d/blk%d", b.LUN, b.Plane, b.Block)
}

// Block returns a's containing block.
func (a Addr) BlockAddr() BlockAddr {
	return BlockAddr{LUN: a.LUN, Plane: a.Plane, Block: a.Block}
}
