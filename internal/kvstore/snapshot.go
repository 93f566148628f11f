package kvstore

// Consistent point-in-time reads while the store keeps serving — the
// region snapshot/clone primitive behind live shard migration (package
// place). The checkpointed B+tree is copy-on-write, so a snapshot is
// cheap: retain the current tree handle, copy the (small) memtable
// overlay, and keep the old tree's pages readable until release by
// quarantining anything later checkpoints free instead of trimming and
// recycling it.

import (
	"slices"

	"repro/internal/sim"
)

// Snapshot is a consistent view of the store at the instant it was
// taken. Writes committed afterwards are invisible to it; the store
// serves them concurrently. Callers must Release the snapshot so the
// pages it pins can be trimmed and recycled.
type Snapshot struct {
	s        *Store
	at       layers
	released bool
}

// Snapshot captures the store's current state for reading while writes
// continue. It copies the live memtable (the frozen one never changes
// again and is shared) and retains the current copy-on-write tree
// version; pages that later checkpoints free are quarantined — neither
// trimmed nor recycled — until Release, so the retained tree stays
// readable however far the live store moves on.
func (s *Store) Snapshot() (*Snapshot, error) {
	if s.closed {
		return nil, ErrClosed
	}
	at := s.layers()
	at.mem = slices.Clone(at.mem)
	s.snapshots++
	return &Snapshot{s: s, at: at}, nil
}

func (sn *Snapshot) layers() layers { return sn.at }

// Scan visits every live key of the snapshot in order. It is the same
// merge as Store.ScanFrom over the retained tree and captured
// memtables; unlike Store.ScanFrom the result is pinned — concurrent
// commits and checkpoints on the live store cannot change what it
// reports — and key and value stay valid until Release.
func (sn *Snapshot) Scan(p *sim.Proc, fn func(key, value []byte) bool) error {
	return sn.s.scanLayers(p, sn, nil, fn)
}

// Release unpins the snapshot. When the last live snapshot releases,
// every quarantined page goes through the disposal it was spared —
// cache invalidation, trim (progressive assembly), recycling — at the
// store's next checkpoint. Release is idempotent.
func (sn *Snapshot) Release() {
	if sn.released {
		return
	}
	sn.released = true
	sn.s.unpin()
}

// unpin drops one pin on old tree versions (a snapshot or a running
// scan). The last one hands the quarantined pages back to the normal
// deferred-free path: the next checkpoint disposes of them after its
// meta flip, exactly as if they had been freed by it.
func (s *Store) unpin() {
	s.snapshots--
	if s.snapshots > 0 {
		return
	}
	s.pendingFree = append(s.pendingFree, s.quarantine...)
	s.quarantine = nil
}

// CopyInto copies a consistent snapshot of s into dst, returning the
// number of keys scanned. It runs in two phases: the whole snapshot is
// first scanned into host memory (every read of s happens here, and a
// scan error returns before dst is touched), then written to dst in
// transactions of batch keys (minimum 1; 0 means 8) that no longer read
// s at all. The source keeps serving while the copy runs: writes that
// land after the snapshot are invisible to it and are the caller's
// delta to catch up afterwards — the copy phase of place.Placement's
// sync protocol, which is also why a caller must check for itself that
// the source is still alive after the write phase: nothing in it would
// notice. Reads are billed to s's page store, writes to dst's WAL and
// pages, so the traffic lands on the devices (and scheduler tenants)
// each store is built over.
func (s *Store) CopyInto(p *sim.Proc, dst *Store, batch int) (int64, error) {
	if batch < 1 {
		batch = 8
	}
	sn, err := s.Snapshot()
	if err != nil {
		return 0, err
	}
	defer sn.Release()
	type kv struct{ k, v []byte }
	var pending []kv
	var copied int64
	if err := sn.Scan(p, func(k, v []byte) bool {
		pending = append(pending, kv{k: k, v: v})
		copied++
		return true
	}); err != nil {
		return copied, err
	}
	for i := 0; i < len(pending); i += batch {
		end := i + batch
		if end > len(pending) {
			end = len(pending)
		}
		tx := dst.Begin()
		for _, e := range pending[i:end] {
			tx.Put(e.k, e.v)
		}
		if err := tx.Commit(p); err != nil {
			return copied, err
		}
	}
	return copied, nil
}
