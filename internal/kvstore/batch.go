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
// serves its next drain while the sync runs. ops are copied into the
// commit record's scratch, which is pooled with the record, so the
// caller may reuse them at once and a warm hand-off allocates nothing;
// the landing copies each key and value into the memtable's arena.
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
		u := update{key: c.cut(op.Key), v: memVal{tombstone: op.Delete}}
		if !op.Delete {
			u.v.value = c.cut(op.Value)
		}
		c.ups = append(c.ups, u)
	}
	return s.handOff(p, c, done)
}

// cut appends b to c's scratch and returns the copy, capped at its
// length so the next append cannot reach it. A copy cut before the
// scratch grew keeps the old buffer, which nothing writes again.
func (c *commit) cut(b []byte) []byte {
	at := len(c.scratch)
	c.scratch = append(c.scratch, b...)
	return c.scratch[at:len(c.scratch):len(c.scratch)]
}
