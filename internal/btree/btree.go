// Package btree implements an immutable (copy-on-write) B+tree over
// fixed-size pages. Updates are applied in sorted batches: every page on
// a modified path is rewritten to a freshly allocated page, and the old
// pages are reported as freed — never overwritten. The engine flips its
// metadata root atomically after a batch, so any crash exposes either
// the old tree or the new one, and the freed pages become TRIM
// candidates. Out-of-place updates at the host level mirror what the
// FTL does at the device level, which is exactly the duplication §3
// says the interface redesign should exploit.
package btree

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/sim"
)

// Package errors.
var (
	// ErrKeyTooLarge reports a key/value pair no leaf could hold.
	ErrKeyTooLarge = errors.New("btree: entry exceeds page capacity")
	// ErrCorrupt reports an undecodable page.
	ErrCorrupt = errors.New("btree: corrupt page")
	// ErrNotFound reports a missing key.
	ErrNotFound = errors.New("btree: key not found")
)

// Pager is the storage the tree runs on: page buffers, immutable page
// allocation, reads, and free notification. The engine implements it
// over a page store plus cache.
//
// A page buffer has one owner at a time. NewPage hands the tree a
// zeroed buffer, which it encodes one page into and passes to WritePage;
// from then on the pager owns it and the tree never writes it again. A
// pager may recycle the buffer of a page it was told to Free, but only
// once no read that could still reach the page is in flight: ReadPage
// and ScanPage, and so Get and a Cursor, hand out the buffer itself.
//
// A read says how the tree will use the page. A point read (Get) and a
// rewrite (ApplyBatch) read through ReadPage: their pages are the ones
// worth keeping. A Cursor reads through ScanPage: a range read takes
// each page once and moves on, so a caching pager should not let it
// push out what point reads keep hot. Both return the same bytes.
type Pager interface {
	PageSize() int
	// NewPage returns a zeroed PageSize buffer for the tree to encode a
	// page into. Every page the tree writes is built in one.
	NewPage() []byte
	// Alloc reserves a fresh page ID.
	Alloc() int64
	// WritePage persists data at pageID (a freshly allocated page). The
	// tree never writes data again, so the pager may keep it.
	WritePage(p *sim.Proc, pageID int64, data []byte) error
	// ReadPage fetches a page for a point read or a rewrite. The tree
	// only reads it.
	ReadPage(p *sim.Proc, pageID int64) ([]byte, error)
	// ScanPage fetches a page for a range read, which will not read it
	// again. The tree only reads it.
	ScanPage(p *sim.Proc, pageID int64) ([]byte, error)
	// Free declares an old page version dead.
	Free(pageID int64)
}

// NilPage marks an absent page reference (empty tree).
const NilPage int64 = -1

// Page layout:
//
//	byte 0:   type (1 = leaf, 2 = internal)
//	byte 1-2: entry count (uint16)
//	leaf entries:     klen u16 | key | vlen u16 | value
//	internal layout:  child0 i64, then entries: klen u16 | key | child i64
//
// An internal node with N entries has N+1 children; entry i's key is the
// smallest key reachable under child i+1.
const (
	pageLeaf     = 1
	pageInternal = 2
	headerBytes  = 3
)

// Entry is one key/value pair in a batch. A nil Value is a tombstone
// (delete).
type Entry struct {
	Key   []byte
	Value []byte
	// Tombstone distinguishes "delete key" from "store empty value".
	Tombstone bool
}

// Tree is a handle to one immutable tree version.
type Tree struct {
	pager Pager
	root  int64
	// height is the root's depth (see Height), kept for diagnostics.
	height int
	// w is the scratch of the one writer: shared by the tree New returned
	// and every version ApplyBatch derives from it.
	w *writer
}

// writer is ApplyBatch's scratch: the level of new nodes being built
// and, while it is packed into internal nodes, the level above it.
type writer struct{ level, up []nodeRef }

// New returns a handle on an existing root (NilPage for an empty tree).
func New(pager Pager, root int64, height int) *Tree {
	return &Tree{pager: pager, root: root, height: height, w: &writer{}}
}

// Root returns the current root page (NilPage when empty).
func (t *Tree) Root() int64 { return t.root }

// Height returns the number of pages a Get of the smallest key visits
// (0 when empty, 1 for a single leaf). A batch dissolves the internal
// nodes on its path into the level above, so subtrees a batch skipped
// can sit one level deeper than the ones it rewrote; Height follows the
// leftmost path.
func (t *Tree) Height() int { return t.height }

// Get fetches the value for key. It searches each encoded page in
// place; the returned slice aliases the pager's page buffer, which the
// pager may recycle once the page is freed and no read of it is in
// flight, so it is valid only until the caller next yields.
func (t *Tree) Get(p *sim.Proc, key []byte) ([]byte, error) {
	if t.root == NilPage {
		return nil, ErrNotFound
	}
	pageID := t.root
	for {
		data, err := t.pager.ReadPage(p, pageID)
		if err != nil {
			return nil, err
		}
		switch data[0] {
		case pageLeaf:
			return searchLeaf(data, key)
		case pageInternal:
			if pageID, _, _, err = routeInternal(data, key); err != nil {
				return nil, err
			}
		default:
			return nil, fmt.Errorf("%w: page %d type %d", ErrCorrupt, pageID, data[0])
		}
	}
}

// Resident reports whether a Get of key would find every page it
// visits through lookup, which answers from memory alone: the descent
// Get makes, with lookup in place of the pager's read. It reads, yields
// and allocates nothing itself.
func (t *Tree) Resident(key []byte, lookup func(pageID int64) ([]byte, bool)) bool {
	if t.root == NilPage {
		return true
	}
	pageID := t.root
	for {
		data, ok := lookup(pageID)
		if !ok {
			return false
		}
		if data[0] != pageInternal {
			// A leaf, or a page Get fails on: either way Get reads no
			// further.
			return true
		}
		var err error
		if pageID, _, _, err = routeInternal(data, key); err != nil {
			return true
		}
	}
}

// ---- in-place page search ----
//
// Nothing materialises a page's entries: lookups, cursors and ApplyBatch
// walk the length-prefixed cells of the encoded page. Lookups and
// cursors compare and stop at the first key past the target, so
// corruption behind the stopping point goes unseen; ApplyBatch first
// bounds-checks every cell of a page it rewrites or takes a minimum key
// from (checkLeaf, checkInternal).

// cellCount validates the page header and returns the entry count.
func cellCount(data []byte) (int, bool) {
	if len(data) < headerBytes {
		return 0, false
	}
	return int(binary.LittleEndian.Uint16(data[1:])), true
}

// leafCell decodes the leaf cell at off and returns the next cell's
// offset.
func leafCell(data []byte, off int) (key, val []byte, next int, ok bool) {
	if off+2 > len(data) {
		return nil, nil, 0, false
	}
	kl := int(binary.LittleEndian.Uint16(data[off:]))
	off += 2
	if off+kl+2 > len(data) {
		return nil, nil, 0, false
	}
	key = data[off : off+kl]
	off += kl
	vl := int(binary.LittleEndian.Uint16(data[off:]))
	off += 2
	if off+vl > len(data) {
		return nil, nil, 0, false
	}
	return key, data[off : off+vl], off + vl, true
}

// sepCell decodes the internal-page cell (separator key, right child) at
// off and returns the next cell's offset.
func sepCell(data []byte, off int) (sep []byte, child int64, next int, ok bool) {
	if off+2 > len(data) {
		return nil, 0, 0, false
	}
	kl := int(binary.LittleEndian.Uint16(data[off:]))
	off += 2
	if off+kl+8 > len(data) {
		return nil, 0, 0, false
	}
	sep = data[off : off+kl]
	off += kl
	return sep, int64(binary.LittleEndian.Uint64(data[off:])), off + 8, true
}

// checkLeaf bounds-checks every cell of an encoded leaf and returns the
// cell count.
func checkLeaf(data []byte) (int, error) {
	n, ok := cellCount(data)
	if !ok {
		return 0, fmt.Errorf("%w: leaf header", ErrCorrupt)
	}
	for i, off := 0, headerBytes; i < n; i++ {
		if _, _, off, ok = leafCell(data, off); !ok {
			return 0, fmt.Errorf("%w: leaf entry %d", ErrCorrupt, i)
		}
	}
	return n, nil
}

// checkInternal bounds-checks every cell of an encoded internal page and
// returns the separator count (the page has one child more).
func checkInternal(data []byte) (int, error) {
	n, ok := cellCount(data)
	if !ok || headerBytes+8 > len(data) {
		return 0, fmt.Errorf("%w: internal header", ErrCorrupt)
	}
	for i, off := 0, headerBytes+8; i < n; i++ {
		if _, _, off, ok = sepCell(data, off); !ok {
			return 0, fmt.Errorf("%w: internal entry %d", ErrCorrupt, i)
		}
	}
	return n, nil
}

// firstChild is the leftmost child of an internal page whose header was
// checked; sepCell from headerBytes+8 walks the rest.
func firstChild(data []byte) int64 {
	return int64(binary.LittleEndian.Uint64(data[headerBytes:]))
}

// searchLeaf finds key in an encoded leaf.
func searchLeaf(data, key []byte) ([]byte, error) {
	n, ok := cellCount(data)
	if !ok {
		return nil, fmt.Errorf("%w: leaf header", ErrCorrupt)
	}
	off := headerBytes
	for i := 0; i < n; i++ {
		k, v, next, ok := leafCell(data, off)
		if !ok {
			return nil, fmt.Errorf("%w: leaf entry %d", ErrCorrupt, i)
		}
		if c := bytes.Compare(k, key); c == 0 {
			return v, nil
		} else if c > 0 {
			break
		}
		off = next
	}
	return nil, ErrNotFound
}

// routeInternal picks the child of an encoded internal page whose
// subtree covers key: the child left of the first separator greater than
// key. It also returns where the walk stopped — the offset of the first
// unvisited cell and how many cells are left — so a cursor can resume
// with the next sibling.
func routeInternal(data, key []byte) (child int64, off, left int, err error) {
	n, ok := cellCount(data)
	if !ok || headerBytes+8 > len(data) {
		return 0, 0, 0, fmt.Errorf("%w: internal header", ErrCorrupt)
	}
	child, off = firstChild(data), headerBytes+8
	for left = n; left > 0; left-- {
		sep, right, next, ok := sepCell(data, off)
		if !ok {
			return 0, 0, 0, fmt.Errorf("%w: internal entry %d", ErrCorrupt, n-left)
		}
		if bytes.Compare(key, sep) < 0 {
			break
		}
		child, off = right, next
	}
	return child, off, left, nil
}

// pagePos is a read position inside one encoded page: the offset of the
// next cell and the number of cells left.
type pagePos struct {
	data      []byte
	off, left int
}

// Cursor walks one tree version's entries in key order. It holds the
// internal pages on its path and the current leaf, so advancing reads a
// page only when a leaf is exhausted: a range read costs the descent
// plus the leaves it returns rows from. Key and Value alias the pager's
// immutable pages. The zero Cursor is ready for Seek.
type Cursor struct {
	t          *Tree
	path       []pagePos // internal pages, root first, each past the child last entered
	leaf       pagePos
	Key, Value []byte
}

// Reset drops the cursor's tree and pages but keeps its path's
// capacity, so a reused cursor pins nothing between walks and its next
// Seek allocates nothing.
func (c *Cursor) Reset() {
	clear(c.path[:cap(c.path)])
	*c = Cursor{path: c.path[:0]}
}

// Seek positions the cursor on t's first entry with key >= start (the
// first entry when start is empty) and reports whether there is one.
func (c *Cursor) Seek(p *sim.Proc, t *Tree, start []byte) (bool, error) {
	c.t, c.path, c.leaf = t, c.path[:0], pagePos{}
	if t.root == NilPage {
		return false, nil
	}
	if err := c.descend(p, t.root, start); err != nil {
		return false, err
	}
	for {
		ok, err := c.Next(p)
		if !ok || err != nil || bytes.Compare(c.Key, start) >= 0 {
			return ok, err
		}
	}
}

// descend pushes the path from pageID down to the leaf covering key. It
// is the cursor's only page read, and reads as a range read.
func (c *Cursor) descend(p *sim.Proc, pageID int64, key []byte) error {
	for {
		data, err := c.t.pager.ScanPage(p, pageID)
		if err != nil {
			return err
		}
		switch data[0] {
		case pageLeaf:
			n, ok := cellCount(data)
			if !ok {
				return fmt.Errorf("%w: page %d", ErrCorrupt, pageID)
			}
			c.leaf = pagePos{data: data, off: headerBytes, left: n}
			return nil
		case pageInternal:
			child, off, left, err := routeInternal(data, key)
			if err != nil {
				return err
			}
			c.path = append(c.path, pagePos{data: data, off: off, left: left})
			pageID = child
		default:
			return fmt.Errorf("%w: page %d", ErrCorrupt, pageID)
		}
	}
}

// Next advances to the following entry, reading the next leaf when the
// current one is exhausted, and reports whether there is one.
func (c *Cursor) Next(p *sim.Proc) (bool, error) {
	for c.leaf.left == 0 {
		// Climb to the deepest page with an unvisited child and take the
		// leftmost path under it.
		for len(c.path) > 0 && c.path[len(c.path)-1].left == 0 {
			c.path = c.path[:len(c.path)-1]
		}
		if len(c.path) == 0 {
			return false, nil
		}
		top := &c.path[len(c.path)-1]
		_, child, next, ok := sepCell(top.data, top.off)
		if !ok {
			return false, fmt.Errorf("%w: internal entry", ErrCorrupt)
		}
		top.off, top.left = next, top.left-1
		if err := c.descend(p, child, nil); err != nil {
			return false, err
		}
	}
	k, v, next, ok := leafCell(c.leaf.data, c.leaf.off)
	if !ok {
		return false, fmt.Errorf("%w: leaf entry", ErrCorrupt)
	}
	c.leaf.off, c.leaf.left = next, c.leaf.left-1
	c.Key, c.Value = k, v
	return true, nil
}

// ApplyBatch builds a new tree version containing batch (sorted by key,
// unique keys). It returns the new tree; old pages on modified paths are
// reported to Pager.Free. The receiving tree remains valid (it is an
// older version).
//
// It takes the page buffers it hands to the pager from Pager.NewPage
// and allocates O(1) more: the merge runs on the scratch of the one
// writer, which the tree New returned and every version derived from it
// share. So ApplyBatch must
// not run on two versions of one tree at once: a call suspended in a
// page read or write finishes before the next starts (a store's
// checkpoints run one at a time).
func (t *Tree) ApplyBatch(p *sim.Proc, batch []Entry) (*Tree, error) {
	if len(batch) == 0 {
		return t, nil
	}
	for i := 1; i < len(batch); i++ {
		if bytes.Compare(batch[i-1].Key, batch[i].Key) >= 0 {
			return nil, fmt.Errorf("btree: batch not sorted/unique at %d", i)
		}
	}
	w := t.w
	defer w.reset()
	var err error
	if t.root == NilPage {
		err = t.buildLeaves(p, nil, batch)
	} else {
		err = t.applyTo(p, t.root, batch)
	}
	// Collapse or grow to a single root.
	for err == nil && len(w.level) > 1 {
		err = t.buildInternal(p)
	}
	if err != nil {
		return nil, err
	}
	nt := &Tree{pager: t.pager, root: NilPage, w: w}
	if len(w.level) == 1 {
		nt.root, nt.height = w.level[0].pageID, w.level[0].depth
	}
	return nt, nil
}

// reset empties the scratch, dropping the keys it points at.
func (w *writer) reset() {
	clear(w.level[:cap(w.level)])
	clear(w.up[:cap(w.up)])
	w.level, w.up = w.level[:0], w.up[:0]
}

// nodeRef is a node of the new version — freshly written, or an
// untouched subtree carried over — with its minimum key and the depth of
// its leftmost path (1 for a leaf).
type nodeRef struct {
	minKey []byte
	pageID int64
	depth  int
}

// applyTo rewrites the subtree at pageID with batch applied, appending
// the replacement node(s) to the writer's level.
func (t *Tree) applyTo(p *sim.Proc, pageID int64, batch []Entry) error {
	data, err := t.pager.ReadPage(p, pageID)
	if err != nil {
		return err
	}
	switch data[0] {
	case pageLeaf:
		if _, err := checkLeaf(data); err != nil {
			return err
		}
		t.pager.Free(pageID)
		return t.buildLeaves(p, data, batch)
	case pageInternal:
		n, err := checkInternal(data)
		if err != nil {
			return err
		}
		t.pager.Free(pageID)
		// Split the batch among children and recurse only where needed.
		child, off, start := firstChild(data), headerBytes+8, 0
		for ci := 0; ci <= n; ci++ {
			end, right, next := len(batch), int64(0), 0
			if ci < n {
				var sep []byte
				sep, right, next, _ = sepCell(data, off)
				for end = start; end < len(batch) && bytes.Compare(batch[end].Key, sep) < 0; end++ {
				}
			}
			part := batch[start:end]
			start = end
			if len(part) > 0 {
				if err := t.applyTo(p, child, part); err != nil {
					return err
				}
			} else {
				// Untouched subtree: keep as is, but we need its min key.
				mk, depth, err := t.minKeyOf(p, child)
				if err != nil {
					return err
				}
				if mk != nil { // nil: empty subtree (possible after deletes)
					t.w.level = append(t.w.level, nodeRef{minKey: mk, pageID: child, depth: depth})
				}
			}
			child, off = right, next
		}
		return nil
	default:
		return fmt.Errorf("%w: page %d", ErrCorrupt, pageID)
	}
}

// minKeyOf returns the smallest key in the subtree (nil if empty) and
// the number of pages on the path down to it.
func (t *Tree) minKeyOf(p *sim.Proc, pageID int64) ([]byte, int, error) {
	data, err := t.pager.ReadPage(p, pageID)
	if err != nil {
		return nil, 0, err
	}
	switch data[0] {
	case pageLeaf:
		n, err := checkLeaf(data)
		if err != nil || n == 0 {
			return nil, 0, err
		}
		key, _, _, _ := leafCell(data, headerBytes)
		return key, 1, nil
	case pageInternal:
		n, err := checkInternal(data)
		if err != nil {
			return nil, 0, err
		}
		child, off := firstChild(data), headerBytes+8
		for ci := 0; ci <= n; ci++ {
			mk, depth, err := t.minKeyOf(p, child)
			if err != nil {
				return nil, 0, err
			}
			if mk != nil {
				return mk, depth + 1, nil
			}
			if ci < n {
				_, child, off, _ = sepCell(data, off)
			}
		}
		return nil, 0, nil
	default:
		return nil, 0, fmt.Errorf("%w: page %d", ErrCorrupt, pageID)
	}
}

// buildLeaves merges the cells of old, a checked leaf (nil for none),
// with a batch — batch wins on ties, tombstones drop — straight into new
// leaves, appended to the writer's level.
func (t *Tree) buildLeaves(p *sim.Proc, old []byte, batch []Entry) error {
	lp := leafPacker{t: t, limit: (t.pager.PageSize() - headerBytes) * 85 / 100}
	left, _ := cellCount(old)
	var k, v []byte
	off := headerBytes
	if left > 0 {
		k, v, off, _ = leafCell(old, off)
	}
	for j := 0; left > 0 || j < len(batch); {
		c := -1 // < 0: the old cell sorts first; > 0: the batch entry; 0: both
		switch {
		case left == 0:
			c = 1
		case j < len(batch):
			c = bytes.Compare(k, batch[j].Key)
		}
		if c < 0 {
			if err := lp.add(p, k, v); err != nil {
				return err
			}
		}
		if c <= 0 { // the old cell is taken or superseded
			if left--; left > 0 {
				k, v, off, _ = leafCell(old, off)
			}
		}
		if c >= 0 {
			e := batch[j]
			j++
			if !e.Tombstone {
				if err := lp.add(p, e.Key, e.Value); err != nil {
					return err
				}
			}
		}
	}
	return lp.flush(p)
}

// leafPacker fills new leaves in key order, each with at most limit
// bytes of cells (~85% of the page, so later single-key inserts do not
// split immediately), and writes each as it fills.
type leafPacker struct {
	t     *Tree
	limit int
	page  []byte // the leaf being filled; nil when none is
	n     int    // its cells
	off   int    // where its next cell goes
}

// add appends one cell, first writing the leaf being filled if the cell
// would take it past the limit.
func (lp *leafPacker) add(p *sim.Proc, key, val []byte) error {
	sz := 4 + len(key) + len(val)
	if sz > lp.limit {
		return fmt.Errorf("%w: %d bytes", ErrKeyTooLarge, sz)
	}
	if lp.page != nil && lp.off-headerBytes+sz > lp.limit {
		if err := lp.flush(p); err != nil {
			return err
		}
	}
	if lp.page == nil {
		lp.page = lp.t.pager.NewPage()
		lp.page[0] = pageLeaf
		lp.n, lp.off = 0, headerBytes
	}
	binary.LittleEndian.PutUint16(lp.page[lp.off:], uint16(len(key)))
	lp.off += 2
	lp.off += copy(lp.page[lp.off:], key)
	binary.LittleEndian.PutUint16(lp.page[lp.off:], uint16(len(val)))
	lp.off += 2
	lp.off += copy(lp.page[lp.off:], val)
	lp.n++
	return nil
}

// flush writes the leaf being filled, if any, and appends it to the
// writer's level.
func (lp *leafPacker) flush(p *sim.Proc) error {
	page := lp.page
	if page == nil {
		return nil
	}
	lp.page = nil
	binary.LittleEndian.PutUint16(page[1:], uint16(lp.n))
	id := lp.t.pager.Alloc()
	if err := lp.t.pager.WritePage(p, id, page); err != nil {
		return err
	}
	minKey, _, _, _ := leafCell(page, headerBytes)
	lp.t.w.level = append(lp.t.w.level, nodeRef{minKey: minKey, pageID: id, depth: 1})
	return nil
}

// buildInternal packs the writer's level into internal nodes one level
// up, which become the level.
func (t *Tree) buildInternal(p *sim.Proc) error {
	w := t.w
	children := w.level
	limit := (t.pager.PageSize() - headerBytes - 8) * 85 / 100
	start, used := 0, 0
	for idx := range children {
		sz := 2 + len(children[idx].minKey) + 8
		if used+sz > limit && idx > start {
			if err := t.writeInternal(p, children[start:idx]); err != nil {
				return err
			}
			start, used = idx, 0
		}
		used += sz
	}
	if err := t.writeInternal(p, children[start:]); err != nil {
		return err
	}
	w.level, w.up = w.up, w.level[:0]
	return nil
}

// writeInternal writes one internal node over group and appends it to
// the level above.
func (t *Tree) writeInternal(p *sim.Proc, group []nodeRef) error {
	data, err := encodeInternal(t.pager.NewPage(), group)
	if err != nil {
		return err
	}
	id := t.pager.Alloc()
	if err := t.pager.WritePage(p, id, data); err != nil {
		return err
	}
	t.w.up = append(t.w.up, nodeRef{minKey: group[0].minKey, pageID: id, depth: group[0].depth + 1})
	return nil
}

// encodeInternal serializes an internal page over children into buf, a
// zeroed page: the first child's page, then each later child's minimum
// key as its separator.
func encodeInternal(buf []byte, children []nodeRef) ([]byte, error) {
	pageSize := len(buf)
	buf[0] = pageInternal
	binary.LittleEndian.PutUint16(buf[1:], uint16(len(children)-1))
	off := headerBytes
	if off+8 > pageSize {
		return nil, fmt.Errorf("%w: internal overflow", ErrKeyTooLarge)
	}
	binary.LittleEndian.PutUint64(buf[off:], uint64(children[0].pageID))
	off += 8
	for _, c := range children[1:] {
		need := 2 + len(c.minKey) + 8
		if off+need > pageSize {
			return nil, fmt.Errorf("%w: internal overflow", ErrKeyTooLarge)
		}
		binary.LittleEndian.PutUint16(buf[off:], uint16(len(c.minKey)))
		off += 2
		off += copy(buf[off:], c.minKey)
		binary.LittleEndian.PutUint64(buf[off:], uint64(c.pageID))
		off += 8
	}
	return buf, nil
}

// InternalChildren returns the child page IDs of an encoded internal
// page — used by the engine's liveness walk when rebuilding its page
// free list at recovery.
func InternalChildren(data []byte) ([]int64, error) {
	if len(data) == 0 || data[0] != pageInternal {
		return nil, fmt.Errorf("%w: not an internal page", ErrCorrupt)
	}
	_, children, err := decodeInternal(data)
	return children, err
}

// decodeInternal parses an internal page into slices sized once from its
// cell count (capped at what the page can hold: a cell is at least 10
// bytes).
func decodeInternal(data []byte) (seps [][]byte, children []int64, err error) {
	n, ok := cellCount(data)
	off := headerBytes
	if !ok || off+8 > len(data) {
		return nil, nil, fmt.Errorf("%w: internal header", ErrCorrupt)
	}
	size := min(n, (len(data)-off-8)/10)
	seps, children = make([][]byte, 0, size), make([]int64, 0, size+1)
	children = append(children, int64(binary.LittleEndian.Uint64(data[off:])))
	off += 8
	for i := 0; i < n; i++ {
		if off+2 > len(data) {
			return nil, nil, fmt.Errorf("%w: internal entry %d", ErrCorrupt, i)
		}
		kl := int(binary.LittleEndian.Uint16(data[off:]))
		off += 2
		if off+kl+8 > len(data) {
			return nil, nil, fmt.Errorf("%w: internal key %d", ErrCorrupt, i)
		}
		seps = append(seps, data[off:off+kl])
		off += kl
		children = append(children, int64(binary.LittleEndian.Uint64(data[off:])))
		off += 8
	}
	return seps, children, nil
}
