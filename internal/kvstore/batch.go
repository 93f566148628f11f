package kvstore

import "repro/internal/sim"

// BatchOp is one operation of a multi-op batch commit.
type BatchOp struct {
	Key   []byte
	Value []byte
	// Delete removes Key instead of writing Value.
	Delete bool
}

// ApplyBatch commits ops as one transaction: one log append run, one
// group-commit sync, one memtable publish — the multi-op commit serve
// workers drain runs of puts into, so N keys from the same drained
// batch cost one tree descent and one durability round trip instead of
// N. Atomicity is the transaction's: either every op in the batch is
// recovered after a crash or none is. Later ops win on duplicate keys,
// exactly as repeated Txn.Put calls would.
func (s *Store) ApplyBatch(p *sim.Proc, ops []BatchOp) error {
	if s.closed {
		return ErrClosed
	}
	if len(ops) == 0 {
		return nil
	}
	tx := s.Begin()
	for _, op := range ops {
		if op.Delete {
			tx.Delete(op.Key)
		} else {
			tx.Put(op.Key, op.Value)
		}
	}
	if err := tx.Commit(p); err != nil {
		return err
	}
	s.BatchCommits++
	s.BatchOps += int64(len(ops))
	return nil
}
