package kvstore

import (
	"errors"
	"fmt"

	"repro/internal/btree"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/wal"
)

// Txn is a transaction: a private write set published at commit.
type Txn struct {
	s      *Store
	id     uint64
	writes map[string]memVal
	order  []string
	logged bool
}

// Begin starts a transaction.
func (s *Store) Begin() *Txn {
	s.nextTxn++
	return &Txn{s: s, id: s.nextTxn, writes: make(map[string]memVal)}
}

// Put stages a key/value update.
func (tx *Txn) Put(key, value []byte) {
	k := string(key)
	if _, ok := tx.writes[k]; !ok {
		tx.order = append(tx.order, k)
	}
	tx.writes[k] = memVal{value: append([]byte(nil), value...)}
}

// Delete stages a key removal.
func (tx *Txn) Delete(key []byte) {
	k := string(key)
	if _, ok := tx.writes[k]; !ok {
		tx.order = append(tx.order, k)
	}
	tx.writes[k] = memVal{tombstone: true}
}

// Commit logs the write set, hands it to the log writer and waits until
// it is durable and published. The committer is then the process that
// finds a full memtable, so it may run a checkpoint inline — the write
// stall real engines exhibit.
func (tx *Txn) Commit(p *sim.Proc) error {
	s := tx.s
	if s.closed {
		return ErrClosed
	}
	if len(tx.order) == 0 {
		return nil
	}
	if tx.logged {
		return fmt.Errorf("kvstore: transaction %d already committed", tx.id)
	}
	tx.logged = true
	c := s.newCommit(tx.id, false)
	for _, k := range tx.order {
		c.ups = append(c.ups, update{key: []byte(k), v: tx.writes[k]})
	}
	if err := p.Await(func(done func(error)) error { return s.handOff(p, c, done) }); err != nil {
		return err
	}
	return s.CheckpointIfFull(p)
}

// commit is one transaction between its hand-off to the log writer and
// its landing: the updates published into the memtable once its commit
// record is durable. Commits are pooled (Store.idle) with land bound
// once, so a hand-off allocates none of this.
type commit struct {
	s     *Store
	txn   uint64
	batch bool // an ApplyBatchAsync group (counted in BatchCommits/BatchOps)
	ups   []update
	done  func(error)
	land  func(error)
}

// update is one logged key update; the memtable keeps key and v.value.
type update struct {
	key []byte
	v   memVal
}

// newCommit takes a commit off the idle list, or builds one.
func (s *Store) newCommit(txn uint64, batch bool) *commit {
	c := s.idle.Get()
	if c == nil {
		c = &commit{s: s}
		c.land = c.landed
	}
	c.txn, c.batch = txn, batch
	return c
}

// recycle returns c, which nothing refers to any more, to the idle list.
func (s *Store) recycle(c *commit) {
	clear(c.ups)
	c.ups, c.done = c.ups[:0], nil
	s.idle.Put(c)
}

// handOff logs c — an update record per key, then the commit record —
// and hands it to the log writer without waiting. c lands when the
// writer reports its sync: only then are its updates published, so a
// read never sees a write that is not yet durable, and then done fires.
// An error means c was never handed off and done will not fire.
func (s *Store) handOff(p *sim.Proc, c *commit, done func(error)) error {
	err := s.logUpdates(p, c)
	if errors.Is(err, core.ErrLogFull) {
		// The log is full: abandon our partial records (they have no
		// commit record, so they are dead weight), checkpoint to
		// truncate, then re-append from scratch.
		delete(s.active, c.txn)
		if err = s.checkpoint(p); err != nil {
			err = fmt.Errorf("kvstore: forced checkpoint: %w", err)
		} else if err = s.logUpdates(p, c); err != nil {
			err = fmt.Errorf("kvstore: log append after checkpoint: %w", err)
		}
	} else if err != nil {
		err = fmt.Errorf("kvstore: log append: %w", err)
	}
	if err == nil {
		c.done = done
		if err = s.log.CommitAsync(p, c.txn, c.land); err != nil {
			err = fmt.Errorf("kvstore: log commit: %w", err)
		}
	}
	if err != nil {
		delete(s.active, c.txn)
		s.recycle(c)
	}
	return err
}

// logUpdates appends c's update records, registering the transaction's
// first LSN as active so no checkpoint truncates the log past it before
// it lands.
func (s *Store) logUpdates(p *sim.Proc, c *commit) error {
	for i, u := range c.ups {
		kind := wal.KindPut
		if u.v.tombstone {
			kind = wal.KindDelete
		}
		lsn, err := s.log.Append(p, wal.Record{Kind: kind, Txn: c.txn, Key: u.key, Value: u.v.value})
		if err != nil {
			return err
		}
		if i == 0 {
			s.active[c.txn] = lsn
		}
	}
	return nil
}

// landed is c's durability callback from the log writer: publish on
// success, then recycle c and pass the outcome on.
func (c *commit) landed(err error) {
	s, done := c.s, c.done
	delete(s.active, c.txn)
	if err != nil {
		err = fmt.Errorf("kvstore: log commit: %w", err)
	} else {
		for _, u := range c.ups {
			s.publish(u.key, u.v)
		}
		s.Commits++
		if c.batch {
			s.BatchCommits++
			s.BatchOps += int64(len(c.ups))
		}
	}
	s.recycle(c)
	done(err)
}

// CheckpointIfFull runs a checkpoint when the memtable has reached
// CheckpointBytes and none is running: the duty of whichever process
// next finds it full (a Txn committer after its commit, a serving
// worker at the end of its drain).
func (s *Store) CheckpointIfFull(p *sim.Proc) error {
	if s.memBytes < s.cfg.CheckpointBytes || s.checkpointing || s.closed {
		return nil
	}
	if err := s.checkpoint(p); err != nil {
		return fmt.Errorf("kvstore: checkpoint: %w", err)
	}
	return nil
}

// publish makes one committed update visible in the memtable, which
// keeps key and v.value.
func (s *Store) publish(key []byte, v memVal) {
	s.mem.put(key, v)
	s.memBytes += len(key) + len(v.value) + 16
	s.gen++
}

// Get reads a key from the store (memtable, frozen snapshot, then tree).
func (s *Store) Get(p *sim.Proc, key []byte) ([]byte, error) {
	if s.closed {
		return nil, ErrClosed
	}
	for _, layer := range [...]memtable{s.mem, s.frozen} {
		if e, ok := layer.get(key); ok {
			if e.Tombstone {
				return nil, ErrNotFound
			}
			return e.Value, nil
		}
	}
	got, err := s.tree.Get(p, key)
	if err == btree.ErrNotFound {
		return nil, ErrNotFound
	}
	return got, err
}

// ScanFrom streams the live rows with key >= start to fn in strictly
// ascending key order until fn returns false, merging the memtable
// layers with a tree cursor: it costs the descent to start plus the
// leaves it returns rows from, not the shard.
//
// It is not a snapshot. Commits and checkpoints that land while the
// scan is suspended in a page read are honoured from the next row on,
// so each row is a value its key held at some instant during the scan,
// but two rows need not be from the same instant (Snapshot.Scan is the
// pinned read). The scan does pin the pages it may still read: for its
// duration checkpoints quarantine what they free instead of recycling
// it. key and value alias store memory and are valid only inside fn.
func (s *Store) ScanFrom(p *sim.Proc, start []byte, fn func(key, value []byte) bool) error {
	s.snapshots++
	defer s.unpin()
	return s.scanLayers(p, s, start, fn)
}

func (s *Store) layers() layers {
	return layers{mem: s.mem, frozen: s.frozen, tree: s.tree, gen: s.gen}
}

// checkpoint drains the memtable into a new tree version and publishes
// it: apply batch (COW), flush data, flip meta, truncate WAL, trim and
// recycle old pages.
func (s *Store) checkpoint(p *sim.Proc) error {
	for s.checkpointing {
		// Another process is checkpointing; wait for it instead of
		// stacking snapshots.
		c := sim.NewCond(s.eng)
		s.cpWaiters = append(s.cpWaiters, c)
		c.Await(p)
		if s.memBytes < s.cfg.CheckpointBytes {
			return nil
		}
	}
	if len(s.mem) == 0 && s.log.LogDevice().Tail() == s.replayLSN {
		return nil // nothing to persist, nothing to truncate
	}
	s.checkpointing = true
	defer func() {
		s.checkpointing = false
		ws := s.cpWaiters
		s.cpWaiters = nil
		for _, c := range ws {
			c.Fire()
		}
	}()

	// Snapshot: later commits go to a fresh memtable. The replay horizon
	// must cover any transaction still writing its records.
	s.frozen, s.mem, s.spare = s.mem, s.spare, nil
	s.memBytes = 0
	s.gen++
	horizon := s.log.LogDevice().Tail()
	for _, first := range s.active {
		if first < horizon {
			horizon = first
		}
	}

	newTree, err := s.tree.ApplyBatch(p, s.frozen)
	if err != nil {
		return err
	}
	// Data pages must be durable before the meta flip points at them.
	if err := s.pages.Flush(p); err != nil {
		return err
	}
	s.tree = newTree
	s.replayLSN = horizon
	if err := s.writeMeta(p); err != nil {
		return err
	}
	// Old tree version is dead: reclaim — unless a live snapshot still
	// reads it, in which case the pages sit in quarantine (content
	// intact, not trimmed, not reallocated) until the snapshot releases.
	freed := s.pendingFree
	if s.snapshots > 0 {
		s.quarantine = append(s.quarantine, freed...)
	} else {
		for _, id := range freed {
			s.cache.Invalidate(id)
			if s.peer != nil {
				_ = s.pages.Trim(id)
			}
		}
		s.freePages = append(s.freePages, freed...)
		// No pin is left that could read the frozen memtable: its array
		// becomes the next checkpoint's fresh memtable.
		clear(s.frozen)
		s.spare = s.frozen[:0]
	}
	// Keep pendingFree's array; anything unpin appended after freed was
	// read stays queued.
	s.pendingFree = s.pendingFree[:copy(s.pendingFree, s.pendingFree[len(freed):])]
	s.frozen = nil
	s.gen++
	if err := s.log.LogDevice().Truncate(horizon); err != nil {
		return err
	}
	s.Checkpoints++
	return nil
}

// Checkpoint forces a checkpoint (tests, shutdown, benchmarks).
func (s *Store) Checkpoint(p *sim.Proc) error {
	if s.closed {
		return ErrClosed
	}
	return s.checkpoint(p)
}

// recover loads the last checkpoint and replays the WAL after it.
func (s *Store) recover(p *sim.Proc) error {
	s.tree = btree.New(s.pager(), btree.NilPage, 0)
	s.nextPage = metaPages
	found, err := s.readMeta(p)
	if err != nil {
		return err
	}
	head := int64(0)
	if found {
		head = s.replayLSN
		s.Recoveries++
	}
	// Replay: collect per-transaction ops, apply in commit order.
	type op struct {
		key   []byte
		v     memVal
		order int
	}
	pending := map[uint64][]op{}
	seq := 0
	var committed []uint64
	err = s.log.Recover(p, head, func(_ int64, r wal.Record) error {
		switch r.Kind {
		case wal.KindPut:
			pending[r.Txn] = append(pending[r.Txn], op{key: r.Key, v: memVal{value: r.Value}, order: seq})
		case wal.KindDelete:
			pending[r.Txn] = append(pending[r.Txn], op{key: r.Key, v: memVal{tombstone: true}, order: seq})
		case wal.KindCommit:
			committed = append(committed, r.Txn)
		}
		seq++
		if r.Txn >= s.nextTxn {
			s.nextTxn = r.Txn
		}
		return nil
	})
	if err != nil {
		return err
	}
	for _, txn := range committed {
		for _, o := range pending[txn] {
			s.publish(o.key, o.v)
		}
	}
	// Rebuild the free list: every allocated page not reachable from the
	// tree (and not a meta slot) is free.
	if found && s.tree.Root() != btree.NilPage {
		live := map[int64]bool{}
		if err := s.collectLive(p, s.tree.Root(), live); err != nil {
			return err
		}
		for id := int64(metaPages); id < s.nextPage; id++ {
			if !live[id] {
				s.freePages = append(s.freePages, id)
			}
		}
	} else if found {
		for id := int64(metaPages); id < s.nextPage; id++ {
			s.freePages = append(s.freePages, id)
		}
	}
	return nil
}

// collectLive walks the tree marking reachable pages.
func (s *Store) collectLive(p *sim.Proc, pageID int64, live map[int64]bool) error {
	live[pageID] = true
	data, err := s.cache.Get(p, pageID)
	if err != nil {
		return err
	}
	if data[0] != 2 { // internal page tag (see btree layout)
		return nil
	}
	children, err := btree.InternalChildren(data)
	if err != nil {
		return err
	}
	for _, c := range children {
		if err := s.collectLive(p, c, live); err != nil {
			return err
		}
	}
	return nil
}
