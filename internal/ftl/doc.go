// Package ftl implements the flash translation layer family the paper's
// Figure 2 describes — scheduling & mapping, garbage collection, and
// wear leveling over a shared flash array — in two mapping designs plus
// a wrapper:
//
//   - PageFTL: full page-level mapping with write-back buffering, the
//     "modern 2012 enterprise" design (random writes ≈ sequential);
//   - HybridFTL: FAST-style log blocks over block mapping, the pre-2009
//     consumer design whose random writes collapse (Myth 2) — the
//     ssd.Consumer2008 device of E5/E6 and E12–E14;
//   - DFTL: a demand-paged mapping cache (Gupta et al., ASPLOS 2009,
//     referenced directly by the paper) wrapped around a PageFTL.
//
// All of them drive an Array: channels × chips with real operation
// timing, so FTL policy differences surface as latency and bandwidth.
//
// # Garbage collection and the watermarks
//
// PageFTL collects per chip: when a chip's free-block pool drops below
// Config.GCLowWater, a GC loop picks victims (greedy or cost-benefit,
// Config.GCPolicy), evacuates their live pages to the chip's GC
// frontier and erases them, stopping at Config.GCHighWater.
// A fixed reserve of blocks per chip (defaultGCReserve) is allocatable
// only by GC itself, so cleaning can always make progress; host writes
// that outrun reclamation park on the chip and drain as space returns.
//
// # Who owns a command in flight
//
// PageFTL and Array run every command on a record from their own idle
// list (sim.Pool), built once with its callbacks bound as method values:
// Array an arrayOp per page read or cross-plane copy (chip read, channel
// transfer, destination program), PageFTL a pageOp per flash program,
// flash read or answer from controller RAM (buffer hit, unmapped read,
// buffered-write ack), and an evacuation per block being relocated — a
// GC victim, a wear-leveling block, a retired block; a chip can run two
// evacuations at once, so they are pooled too. The owner holds a record
// from issue until the outcome is known, then puts it back on its list
// before handing the outcome over, since the callback may issue the next
// command. A write's completion travels as data in its writeJob (a
// buffer write-back's admission number, a nameless write's placement, or
// the host's ack) and settle hands it over, so no command wraps its
// caller's callback in a closure.
//
// # Who owns a page buffer
//
// A payload is copied once, where its owner changes: when the host
// hands a write in (PageFTL.clone, behind the write buffer's admission
// and its stalled writes and the entry copy of an unbuffered or nameless
// write; HybridFTL keeps a plain clone). From then on the FTL owns the
// buffer: the write buffer while the entry is resident (a buffer hit
// copies out, because the buffer overwrites an entry in place), then the
// chip, whose program keeps it. A programmed payload is never written
// again while its page holds it, so nothing below copies it further: a
// read hands the page's own buffer up, read-only and shared with the
// device, and a GC copy programs the buffer it read. A payload lives
// while the map holds its page live: PageFTL.kill, the one place a page
// dies (an overwrite, a trim, a GC move, a failed program), has the chip
// drop it and hand it back (Array.Discard), and a chip read takes the
// payload when it is issued, so a read in flight across the page's death
// still returns its bytes.
//
// A buffer handed back goes to the next host write's entry copy only if
// no one else can hold it. PageFTL keeps one bit per physical page
// (owned), set when commitWrite programs a write's entry copy and
// cleared wherever the buffer escapes: a flash read (host reads and
// ReadPhys), a failed program (the retry programs the same buffer), and
// a GC move's source, whose bit passes to the destination once the move
// lands. The chip hands nothing back while the page's program is in
// flight, since a failure would retry from it. A killed page whose bit
// was set gives its buffer to PageFTL.spares, as do write-buffer entries
// that die before reaching flash (a trim, a stalled write replacing a
// resident entry, a volatile buffer's loss); the list holds at most one
// block's pages, and clone takes from it before it allocates.
//
// # What Flush promises
//
// On a device with a write buffer, PageFTL.Flush is a barrier over the
// writes acknowledged before it. The
// write buffer numbers its admissions; a flush records the next number
// and how many earlier entries are still buffered or being programmed,
// drains oldest-first until those are on their way to flash, and
// completes when the last of them is programmed, trimmed, or lost to a
// power cut on a volatile buffer. Writes submitted later, GC copies and
// erases never hold it, and once it is served the buffer goes back to
// writing back between its watermarks. A battery-backed buffer still
// drains on flush: "safe" is the buffer's promise, "on flash" is the
// flush's.
//
// A device without a write buffer acknowledges a write only when it is
// on flash, so the same barrier there would be the command cycle and
// nothing else. That device still runs the older rule — its flush
// completes when no program, GC copy or erase is outstanding
// (inFlight, flushWaiters) — because E17–E22 are measured on unbuffered
// devices and making their flush free moves E18 off two of its
// acceptance bars; it goes when those operating points are re-measured
// (ROADMAP item 7).
//
// # The peer interface: GC state up, GC control down
//
// The paper's replacement for the block contract is a pair of
// communicating peers, and this package carries both halves of that
// conversation for background collection:
//
//   - Device→host: SetGCNotifier reports every change in the number of
//     chips currently collecting or wear-leveling, so a host scheduler
//     (package sched) can steer latency-sensitive traffic around
//     relocation bursts. SetRelocationNotifier announces nameless-page
//     moves so a host that tracks physical addresses stays current.
//
//   - Host→device: DeferGC(deadline) leases a pause of background
//     collection and static wear leveling — the host shaping *when* the
//     device cleans. ResumeGC releases the lease early. The lease is
//     bounded by a hard floor (the GC reserve): a chip that reaches
//     the floor, or accumulates parked writes, collects regardless, and a device already at its floor
//     refuses the lease outright (GCUrgency reports that pressure as
//     relaxed/elevated/urgent). While a lease is active, collection
//     that is forced anyway stops at the low watermark instead of the
//     high one — reclaim to safety, then yield the LUNs back.
//
// GCCoord returns the coordination ledger (sessions granted, renewals,
// refusals, expiries, floor hits, minimum observed headroom) — the
// evidence experiments use to show the mechanism engaged and the floor
// held.
package ftl
