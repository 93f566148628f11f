// Package kvstore is the database storage manager the experiments run:
// a transactional key-value engine with a write-ahead log, an in-memory
// memtable of committed-but-not-checkpointed updates, and an immutable
// copy-on-write B+tree checkpointed in batches.
//
// The engine is persistence-agnostic: it runs unchanged over the
// conservative stack (log and tree pages on one flash SSD behind the
// single-queue block layer) and over the paper's progressive stack (log
// on memory-bus PCM, tree pages on flash via the direct path, metadata
// flipped with an atomic write, dead pages trimmed). Comparing the two
// is experiments E10/E11.
//
// A commit is a hand-off and a publish. The committer appends the
// write set and its commit record and hands the transaction to the
// WAL's log writer (ApplyBatchAsync returns there; Txn.Commit and
// ApplyBatch wait); when the writer reports the record durable the
// updates are published into the memtable and the caller's callback
// fires, so a read never sees a write that is not yet durable and a
// crash recovers every acknowledged one. The checkpoint a full memtable
// needs runs on whichever process next finds it full — a Txn committer
// after its commit, a serving worker at the end of its drain
// (CheckpointIfFull) — never on the log writer.
package kvstore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"repro/internal/btree"
	"repro/internal/bufpool"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/ssd"
	"repro/internal/wal"
)

// Package errors.
var (
	// ErrNotFound reports a missing key.
	ErrNotFound = errors.New("kvstore: key not found")
	// ErrClosed reports use after Close.
	ErrClosed = errors.New("kvstore: store closed")
)

// Config tunes the engine. Where the store lives — its log, its pages,
// and whether it speaks the paper's interface to the device under them —
// is the builder's choice (System), not a knob.
type Config struct {
	// CacheFrames sizes the page read cache (0 = 256).
	CacheFrames int
	// CheckpointBytes triggers a checkpoint when the memtable holds
	// this many bytes of committed updates (0 = 256 KiB).
	CheckpointBytes int
}

// Store is the engine.
type Store struct {
	eng   *sim.Engine
	log   *wal.WAL
	pages core.PageStore
	cache *bufpool.Pool
	cfg   Config

	// peer is the device under the pages when the store speaks the
	// paper's interface to it: the meta flip is one atomic write at
	// metaBase (the first device page of the page region) and pages freed
	// by checkpoints are trimmed. nil on the block interface: double-write
	// meta and no trims.
	peer     *ssd.Device
	metaBase int64

	tree     *btree.Tree
	mem      memtable // committed, not yet checkpointed
	memBytes int
	frozen   memtable // snapshot being checkpointed
	// spare is the last frozen memtable's array, cleared, which the next
	// checkpoint gives mem — kept only when no pin could still hold it.
	spare memtable
	// chunk is where hold cuts the memtable's copies from.
	chunk []byte
	// gen counts changes to mem, frozen and tree, so a scan that was
	// suspended in a page read can tell its position went stale.
	gen uint64

	nextTxn     uint64
	nextPage    int64
	freePages   []int64
	pendingFree []int64
	metaVer     uint64
	replayLSN   int64 // WAL replay horizon persisted in meta

	// Live snapshots (Snapshot) and running scans pin old tree versions:
	// while any exist, pages freed by checkpoints are quarantined —
	// neither trimmed nor recycled — so retained trees stay readable.
	// unpin drains the quarantine back into pendingFree.
	snapshots  int
	quarantine []int64

	// active maps every transaction between its first log record and its
	// landing to that record's LSN (the replay horizon's floor); idle
	// pools the commit records of landed ones.
	active        map[uint64]int64
	idle          sim.Pool[commit]
	cursors       sim.Pool[btree.Cursor] // idle scan cursors (scanLayers)
	checkpointing bool
	cpWaiters     []*sim.Cond
	closed        bool

	// Stats.
	Commits     int64
	Checkpoints int64
	Recoveries  int64
	// BatchCommits counts ApplyBatch group commits; BatchOps counts the
	// operations they carried (BatchOps/BatchCommits is the realized
	// amortization factor of batched serving).
	BatchCommits int64
	BatchOps     int64
}

type memVal struct {
	value     []byte
	tombstone bool
}

// metaPages reserves the first two pages of the page store for the
// ping-pong metadata slots.
const metaPages = 2

// WAL exposes the log (experiment instrumentation).
func (s *Store) WAL() *wal.WAL { return s.log }

// Cache exposes the page cache (experiment instrumentation).
func (s *Store) Cache() *bufpool.Pool { return s.cache }

// TreeHeight reports the current checkpointed tree height.
func (s *Store) TreeHeight() int { return s.tree.Height() }

// Close flushes a final checkpoint and stops the store.
func (s *Store) Close(p *sim.Proc) error {
	if s.closed {
		return ErrClosed
	}
	if err := s.checkpoint(p); err != nil {
		return err
	}
	s.closed = true
	return nil
}

// ---- meta page handling ----

// meta is one checkpoint generation's metadata slot. Layout: magic u32,
// version u64, root i64, height i64, nextPage i64, replayLSN i64, crc
// u32 over everything before it — metaSize bytes at the start of a page.
type meta struct {
	ver                 uint64
	root                int64
	height              int
	nextPage, replayLSN int64
}

const (
	metaMagic = 0xDEADB10C
	metaSize  = 48
)

// encode lays m out at the start of a zeroed page of pageSize bytes.
func (m meta) encode(pageSize int) []byte {
	buf := make([]byte, pageSize)
	binary.LittleEndian.PutUint32(buf[0:], metaMagic)
	binary.LittleEndian.PutUint64(buf[4:], m.ver)
	binary.LittleEndian.PutUint64(buf[12:], uint64(m.root))
	binary.LittleEndian.PutUint64(buf[20:], uint64(int64(m.height)))
	binary.LittleEndian.PutUint64(buf[28:], uint64(m.nextPage))
	binary.LittleEndian.PutUint64(buf[36:], uint64(m.replayLSN))
	binary.LittleEndian.PutUint32(buf[44:], crc32.ChecksumIEEE(buf[:44]))
	return buf
}

// decodeMeta parses a meta slot; ok is false for a slot that was never
// written or is torn (bad magic or checksum).
func decodeMeta(buf []byte) (m meta, ok bool) {
	if len(buf) < metaSize || binary.LittleEndian.Uint32(buf[0:]) != metaMagic {
		return meta{}, false
	}
	if crc32.ChecksumIEEE(buf[:44]) != binary.LittleEndian.Uint32(buf[44:]) {
		return meta{}, false
	}
	return meta{
		ver:       binary.LittleEndian.Uint64(buf[4:]),
		root:      int64(binary.LittleEndian.Uint64(buf[12:])),
		height:    int(int64(binary.LittleEndian.Uint64(buf[20:]))),
		nextPage:  int64(binary.LittleEndian.Uint64(buf[28:])),
		replayLSN: int64(binary.LittleEndian.Uint64(buf[36:])),
	}, true
}

// writeMeta persists the metadata the way the device allows.
func (s *Store) writeMeta(p *sim.Proc) error {
	s.metaVer++
	buf := meta{
		ver: s.metaVer, root: s.tree.Root(), height: s.tree.Height(),
		nextPage: s.nextPage, replayLSN: s.replayLSN,
	}.encode(s.pages.PageSize())
	slot := int64(s.metaVer % metaPages)
	if s.peer != nil {
		// One atomic command; the safe buffer makes it durable.
		return core.AtomicWrite(p, s.peer, []int64{s.metaBase + slot}, [][]byte{buf})
	}
	// Double-write discipline: write the slot, then flush so a torn
	// write cannot destroy both generations.
	if err := s.pages.WritePage(p, slot, buf); err != nil {
		return err
	}
	return s.pages.Flush(p)
}

// readMeta loads the newest valid meta slot. A slot that was never
// written or fails its checksum is torn and the other generation stands
// in; a slot that cannot be read is an error, because taking it for torn
// would open the store empty, or on a generation whose pages have since
// been recycled.
func (s *Store) readMeta(p *sim.Proc) (found bool, err error) {
	var bestVer uint64
	for slot := int64(0); slot < metaPages; slot++ {
		buf, rerr := s.pages.ReadPage(p, slot)
		if rerr != nil {
			return false, fmt.Errorf("kvstore: read meta slot %d: %w", slot, rerr)
		}
		if buf == nil {
			continue
		}
		m, ok := decodeMeta(buf)
		if !ok || m.ver < bestVer {
			continue
		}
		bestVer = m.ver
		s.metaVer = m.ver
		s.tree = btree.New(s.pager(), m.root, m.height)
		s.nextPage = m.nextPage
		s.replayLSN = m.replayLSN
		found = true
	}
	return found, nil
}

// ---- pager (btree storage adapter) ----

type pagerAdapter struct{ s *Store }

func (s *Store) pager() btree.Pager { return pagerAdapter{s} }

func (a pagerAdapter) PageSize() int { return a.s.pages.PageSize() }

func (a pagerAdapter) Alloc() int64 {
	s := a.s
	if n := len(s.freePages); n > 0 {
		id := s.freePages[n-1]
		s.freePages = s.freePages[:n-1]
		return id
	}
	if s.nextPage < metaPages {
		s.nextPage = metaPages
	}
	id := s.nextPage
	s.nextPage++
	return id
}

// WritePage persists a freshly encoded page and caches it as it is: the
// tree never writes a page it has handed over (btree.Pager), and the
// device keeps its own copy.
func (a pagerAdapter) WritePage(p *sim.Proc, pageID int64, data []byte) error {
	if err := a.s.pages.WritePage(p, pageID, data); err != nil {
		return err
	}
	a.s.cache.Put(pageID, data)
	return nil
}

func (a pagerAdapter) ReadPage(p *sim.Proc, pageID int64) ([]byte, error) {
	return a.s.cache.Get(p, pageID)
}

func (a pagerAdapter) Free(pageID int64) {
	// Deferred: recycled only after the meta flip publishes the new
	// tree, so a crash mid-checkpoint still finds the old version.
	a.s.pendingFree = append(a.s.pendingFree, pageID)
}
