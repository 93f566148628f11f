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
// may reuse them at once.
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
		// One allocation holds the key and value the memtable keeps.
		buf := make([]byte, len(op.Key)+len(op.Value))
		n := copy(buf, op.Key)
		u := update{key: buf[:n:n], v: memVal{tombstone: op.Delete}}
		if !op.Delete {
			copy(buf[n:], op.Value)
			u.v.value = buf[n:]
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
