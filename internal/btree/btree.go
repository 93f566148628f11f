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

// Pager is the storage the tree runs on: immutable page allocation,
// reads, and free notification. The engine implements it over a page
// store plus cache.
type Pager interface {
	PageSize() int
	// Alloc reserves a fresh page ID.
	Alloc() int64
	// WritePage persists data at pageID (a freshly allocated page). The
	// tree never writes data again, so the pager may keep it.
	WritePage(p *sim.Proc, pageID int64, data []byte) error
	// ReadPage fetches a page. The tree only reads it.
	ReadPage(p *sim.Proc, pageID int64) ([]byte, error)
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
}

// New returns a handle on an existing root (NilPage for an empty tree).
func New(pager Pager, root int64, height int) *Tree {
	return &Tree{pager: pager, root: root, height: height}
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
// place; the returned slice aliases the pager's immutable page.
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

// Scan visits all live entries in key order, stopping early if fn
// returns false.
func (t *Tree) Scan(p *sim.Proc, fn func(key, value []byte) bool) error {
	var c Cursor
	ok, err := c.Seek(p, t, nil)
	for ok && err == nil && fn(c.Key, c.Value) {
		ok, err = c.Next(p)
	}
	return err
}

// ---- in-place page search ----
//
// Lookups and cursors never materialise a page's entries: they walk the
// length-prefixed cells of the encoded page, compare, and stop at the
// first key past the target. Corruption behind the stopping point goes
// unseen; decodeLeaf/decodeInternal validate the whole page and remain
// what ApplyBatch rewrites from.

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
	child = int64(binary.LittleEndian.Uint64(data[headerBytes:]))
	off = headerBytes + 8
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

// descend pushes the path from pageID down to the leaf covering key.
func (c *Cursor) descend(p *sim.Proc, pageID int64, key []byte) error {
	for {
		data, err := c.t.pager.ReadPage(p, pageID)
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
func (t *Tree) ApplyBatch(p *sim.Proc, batch []Entry) (*Tree, error) {
	if len(batch) == 0 {
		return t, nil
	}
	for i := 1; i < len(batch); i++ {
		if bytes.Compare(batch[i-1].Key, batch[i].Key) >= 0 {
			return nil, fmt.Errorf("btree: batch not sorted/unique at %d", i)
		}
	}
	var nodes []nodeRef
	var err error
	if t.root == NilPage {
		nodes, err = t.buildLeaves(p, nil, nil, batch)
	} else {
		nodes, err = t.applyTo(p, t.root, batch)
	}
	if err != nil {
		return nil, err
	}
	// Collapse or grow to a single root.
	for len(nodes) > 1 {
		nodes, err = t.buildInternal(p, nodes)
		if err != nil {
			return nil, err
		}
	}
	if len(nodes) == 0 {
		return &Tree{pager: t.pager, root: NilPage, height: 0}, nil
	}
	return &Tree{pager: t.pager, root: nodes[0].pageID, height: nodes[0].depth}, nil
}

// nodeRef is a node of the new version — freshly written, or an
// untouched subtree carried over — with its minimum key and the depth of
// its leftmost path (1 for a leaf).
type nodeRef struct {
	minKey []byte
	pageID int64
	depth  int
}

// applyTo rewrites the subtree at pageID with batch applied, returning
// the replacement node(s).
func (t *Tree) applyTo(p *sim.Proc, pageID int64, batch []Entry) ([]nodeRef, error) {
	data, err := t.pager.ReadPage(p, pageID)
	if err != nil {
		return nil, err
	}
	switch data[0] {
	case pageLeaf:
		keys, vals, err := decodeLeaf(data)
		if err != nil {
			return nil, err
		}
		t.pager.Free(pageID)
		return t.buildLeaves(p, keys, vals, batch)
	case pageInternal:
		seps, children, err := decodeInternal(data)
		if err != nil {
			return nil, err
		}
		t.pager.Free(pageID)
		var out []nodeRef
		// Split the batch among children and recurse only where needed.
		start := 0
		for ci := 0; ci < len(children); ci++ {
			end := len(batch)
			if ci < len(seps) {
				end = start
				for end < len(batch) && bytes.Compare(batch[end].Key, seps[ci]) < 0 {
					end++
				}
			}
			part := batch[start:end]
			start = end
			if len(part) == 0 {
				// Untouched subtree: keep as is, but we need its min key.
				mk, depth, err := t.minKeyOf(p, children[ci])
				if err != nil {
					return nil, err
				}
				if mk == nil {
					continue // empty subtree (possible after deletes)
				}
				out = append(out, nodeRef{minKey: mk, pageID: children[ci], depth: depth})
				continue
			}
			repl, err := t.applyTo(p, children[ci], part)
			if err != nil {
				return nil, err
			}
			out = append(out, repl...)
		}
		return out, nil
	default:
		return nil, fmt.Errorf("%w: page %d", ErrCorrupt, pageID)
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
		keys, _, err := decodeLeaf(data)
		if err != nil {
			return nil, 0, err
		}
		if len(keys) == 0 {
			return nil, 0, nil
		}
		return keys[0], 1, nil
	case pageInternal:
		_, children, err := decodeInternal(data)
		if err != nil {
			return nil, 0, err
		}
		for _, c := range children {
			mk, depth, err := t.minKeyOf(p, c)
			if err != nil {
				return nil, 0, err
			}
			if mk != nil {
				return mk, depth + 1, nil
			}
		}
		return nil, 0, nil
	default:
		return nil, 0, fmt.Errorf("%w: page %d", ErrCorrupt, pageID)
	}
}

// buildLeaves merges existing leaf entries with a batch and writes the
// results as one or more new leaves.
func (t *Tree) buildLeaves(p *sim.Proc, keys, vals [][]byte, batch []Entry) ([]nodeRef, error) {
	// Merge two sorted streams, batch wins on ties, tombstones drop. The
	// merge holds at most every entry of both, so it is sized once.
	mk := make([][]byte, 0, len(keys)+len(batch))
	mv := make([][]byte, 0, len(keys)+len(batch))
	i, j := 0, 0
	for i < len(keys) || j < len(batch) {
		var takeBatch bool
		switch {
		case i >= len(keys):
			takeBatch = true
		case j >= len(batch):
			takeBatch = false
		default:
			c := bytes.Compare(batch[j].Key, keys[i])
			if c == 0 {
				i++ // superseded
				takeBatch = true
			} else {
				takeBatch = c < 0
			}
		}
		if takeBatch {
			e := batch[j]
			j++
			if e.Tombstone {
				continue
			}
			mk = append(mk, e.Key)
			mv = append(mv, e.Value)
		} else {
			mk = append(mk, keys[i])
			mv = append(mv, vals[i])
			i++
		}
	}
	if len(mk) == 0 {
		return nil, nil
	}
	// Pack into leaves at most ~85% full so later single-key inserts
	// do not split immediately.
	limit := (t.pager.PageSize() - headerBytes) * 85 / 100
	var out []nodeRef
	start := 0
	used := 0
	flush := func(end int) error {
		if end <= start {
			return nil
		}
		data, err := encodeLeaf(t.pager.PageSize(), mk[start:end], mv[start:end])
		if err != nil {
			return err
		}
		id := t.pager.Alloc()
		if err := t.pager.WritePage(p, id, data); err != nil {
			return err
		}
		out = append(out, nodeRef{minKey: mk[start], pageID: id, depth: 1})
		start = end
		used = 0
		return nil
	}
	for idx := range mk {
		sz := 4 + len(mk[idx]) + len(mv[idx])
		if sz > limit {
			return nil, fmt.Errorf("%w: %d bytes", ErrKeyTooLarge, sz)
		}
		if used+sz > limit {
			if err := flush(idx); err != nil {
				return nil, err
			}
		}
		used += sz
	}
	if err := flush(len(mk)); err != nil {
		return nil, err
	}
	return out, nil
}

// buildInternal packs child refs into internal nodes one level up.
func (t *Tree) buildInternal(p *sim.Proc, children []nodeRef) ([]nodeRef, error) {
	limit := (t.pager.PageSize() - headerBytes - 8) * 85 / 100
	var out []nodeRef
	start := 0
	used := 0
	flush := func(end int) error {
		if end <= start {
			return nil
		}
		group := children[start:end]
		seps := make([][]byte, 0, len(group)-1)
		ids := make([]int64, 0, len(group))
		for gi, c := range group {
			if gi > 0 {
				seps = append(seps, c.minKey)
			}
			ids = append(ids, c.pageID)
		}
		data, err := encodeInternal(t.pager.PageSize(), seps, ids)
		if err != nil {
			return err
		}
		id := t.pager.Alloc()
		if err := t.pager.WritePage(p, id, data); err != nil {
			return err
		}
		out = append(out, nodeRef{minKey: group[0].minKey, pageID: id, depth: group[0].depth + 1})
		start = end
		used = 0
		return nil
	}
	for idx := range children {
		sz := 2 + len(children[idx].minKey) + 8
		if used+sz > limit {
			if err := flush(idx); err != nil {
				return nil, err
			}
		}
		used += sz
	}
	if err := flush(len(children)); err != nil {
		return nil, err
	}
	return out, nil
}

// encodeLeaf serializes a leaf page.
func encodeLeaf(pageSize int, keys, vals [][]byte) ([]byte, error) {
	buf := make([]byte, pageSize)
	buf[0] = pageLeaf
	binary.LittleEndian.PutUint16(buf[1:], uint16(len(keys)))
	off := headerBytes
	for i := range keys {
		need := 4 + len(keys[i]) + len(vals[i])
		if off+need > pageSize {
			return nil, fmt.Errorf("%w: leaf overflow", ErrKeyTooLarge)
		}
		binary.LittleEndian.PutUint16(buf[off:], uint16(len(keys[i])))
		off += 2
		off += copy(buf[off:], keys[i])
		binary.LittleEndian.PutUint16(buf[off:], uint16(len(vals[i])))
		off += 2
		off += copy(buf[off:], vals[i])
	}
	return buf, nil
}

// decodeLeaf parses a leaf page into slices sized once from its cell
// count (capped at what the page can hold: a cell is at least 4 bytes).
func decodeLeaf(data []byte) (keys, vals [][]byte, err error) {
	n, ok := cellCount(data)
	if !ok {
		return nil, nil, fmt.Errorf("%w: leaf header", ErrCorrupt)
	}
	size := min(n, (len(data)-headerBytes)/4)
	keys, vals = make([][]byte, 0, size), make([][]byte, 0, size)
	off := headerBytes
	for i := 0; i < n; i++ {
		if off+2 > len(data) {
			return nil, nil, fmt.Errorf("%w: leaf entry %d", ErrCorrupt, i)
		}
		kl := int(binary.LittleEndian.Uint16(data[off:]))
		off += 2
		if off+kl+2 > len(data) {
			return nil, nil, fmt.Errorf("%w: leaf key %d", ErrCorrupt, i)
		}
		k := data[off : off+kl]
		off += kl
		vl := int(binary.LittleEndian.Uint16(data[off:]))
		off += 2
		if off+vl > len(data) {
			return nil, nil, fmt.Errorf("%w: leaf value %d", ErrCorrupt, i)
		}
		v := data[off : off+vl]
		off += vl
		keys = append(keys, k)
		vals = append(vals, v)
	}
	return keys, vals, nil
}

// encodeInternal serializes an internal page.
func encodeInternal(pageSize int, seps [][]byte, children []int64) ([]byte, error) {
	if len(children) != len(seps)+1 {
		return nil, fmt.Errorf("btree: %d children for %d separators", len(children), len(seps))
	}
	buf := make([]byte, pageSize)
	buf[0] = pageInternal
	binary.LittleEndian.PutUint16(buf[1:], uint16(len(seps)))
	off := headerBytes
	if off+8 > pageSize {
		return nil, fmt.Errorf("%w: internal overflow", ErrKeyTooLarge)
	}
	binary.LittleEndian.PutUint64(buf[off:], uint64(children[0]))
	off += 8
	for i := range seps {
		need := 2 + len(seps[i]) + 8
		if off+need > pageSize {
			return nil, fmt.Errorf("%w: internal overflow", ErrKeyTooLarge)
		}
		binary.LittleEndian.PutUint16(buf[off:], uint16(len(seps[i])))
		off += 2
		off += copy(buf[off:], seps[i])
		binary.LittleEndian.PutUint64(buf[off:], uint64(children[i+1]))
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
