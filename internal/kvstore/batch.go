package kvstore

import "repro/internal/sim"

// BatchOp is one operation of a multi-op batch commit.
type BatchOp struct {
	Key   []byte
	Value []byte
	// Delete removes Key instead of writing Value.
	Delete bool
}

// ApplyBatchAsync commits ops as one transaction — one log append run,
// one ride on the log writer's next sync, one memtable publish — and
// returns once the transaction is handed off, before it is durable. The
// serving workers drain runs of puts into it, so N keys of one drained
// batch cost one durability round trip instead of N, and the worker
// serves its next drain while the sync runs. ops are copied; the caller
// may reuse them at once. The memtable's copies are cut from chunks of
// bytes the store owns (hold), so a put allocates only when one fills.
//
// done fires exactly once, from the log writer, after the batch is
// published (nil) or failed: every op becomes visible at the same
// instant, after it is durable, and a crash recovers all of the batch or
// none of it. Later ops win on duplicate keys, exactly as repeated
// Txn.Put calls would. An error return means nothing was handed off and
// done will not fire. No checkpoint runs here; the caller runs
// CheckpointIfFull when it is next free to stall.
func (s *Store) ApplyBatchAsync(p *sim.Proc, ops []BatchOp, done func(error)) error {
	if s.closed {
		return ErrClosed
	}
	s.nextTxn++
	c := s.newCommit(s.nextTxn, true)
	for _, op := range ops {
		u := update{v: memVal{tombstone: op.Delete}}
		if op.Delete {
			u.key, _ = s.hold(op.Key, nil)
		} else {
			u.key, u.v.value = s.hold(op.Key, op.Value)
		}
		c.ups = append(c.ups, u)
	}
	return s.handOff(p, c, done)
}

// ApplyBatch is ApplyBatchAsync plus the wait for durability, then a
// checkpoint if the memtable is full.
func (s *Store) ApplyBatch(p *sim.Proc, ops []BatchOp) error {
	if s.closed {
		return ErrClosed
	}
	if len(ops) == 0 {
		return nil
	}
	if err := p.Await(func(done func(error)) error { return s.ApplyBatchAsync(p, ops, done) }); err != nil {
		return err
	}
	return s.CheckpointIfFull(p)
}

// chunkBytes sizes the chunks hold cuts the memtable's copies from.
const chunkBytes = 4 << 10

// hold copies key and value back to back into the store's current chunk
// and returns the copies, each capped at its length so an append cannot
// reach the next. A pair that does not fit starts a fresh chunk. A chunk
// is never reused, so every slice it handed out — a memtable entry, a
// Get result, a snapshot's or a suspended scan's row — stays as it was.
func (s *Store) hold(key, value []byte) (k, v []byte) {
	n := len(key) + len(value)
	if s.chunk == nil || cap(s.chunk)-len(s.chunk) < n {
		s.chunk = make([]byte, 0, max(n, chunkBytes))
	}
	at := len(s.chunk)
	s.chunk = append(append(s.chunk, key...), value...)
	mid := at + len(key)
	return s.chunk[at:mid:mid], s.chunk[mid:len(s.chunk):len(s.chunk)]
}
