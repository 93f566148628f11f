package place

import (
	"errors"
	"slices"

	"repro/internal/kvstore"
	"repro/internal/serve"
	"repro/internal/sim"
)

// The sync protocol's fixed parameters.
const (
	// copyBatch is keys per bulk/delta copy transaction.
	copyBatch = 16
	// At most catchupRounds pre-cutover delta passes run while the
	// dirty set stays above catchupThreshold keys; whatever delta
	// remains is copied under the cutover hold.
	catchupRounds    = 4
	catchupThreshold = 16
)

// errSourceLost aborts a sync whose copy source is gone: its device died
// mid-copy, or the group had no live member left to copy from. Host RAM
// may still answer reads for a dead source's store, but nothing behind
// those pages is durable anymore and the delta keys may exist nowhere
// else — finishing from a dead source would be silent loss.
var errSourceLost = errors.New("place: copy source lost")

// sync brings the replica g.mig.dst level with the group and joins it,
// while the group keeps serving — the one pass behind live migration,
// rebuild and crash resync. The caller installs g.mig (so the write
// path is already feeding the delta) and says what the pass is for:
// leaving is the member dst replaces (nil when dst simply joins), keep
// marks dst as a reopened member that had the group's data before.
//
// The pass: bulk copy from the healthiest member's snapshot, bounded
// delta catch-up of keys written meanwhile, then the cutover — new
// writes hold, in-flight ones drain, the final delta lands, dst
// checkpoints and joins (swapping leaving out and retiring it if it is
// still a member; if its device died mid-copy the move just became the
// rebuild). A copy error, the source's device going down or a fabric
// stop, each checked after every phase, aborts the pass: dst is
// retired — unless keep is set and the abort left the group with no
// live member, when dst rejoins as it is, since a replica that lost its
// volatile acks still beats no replica at all.
//
// Either way the group is settled before sync returns: g.mig cleared,
// held writes replayed against the replica set as it now stands. It
// returns the keys bulk-copied and the reason for an abort.
func (pl *Placement) sync(p *sim.Proc, g *Group, leaving *serve.Shard, keep bool) (copied int64, err error) {
	mig, dst := g.mig, g.mig.dst
	from := pl.copySource(g, leaving)
	// check folds the abort conditions into a phase's error.
	check := func(err error) error {
		switch {
		case err != nil:
			return err
		case pl.fab.DeviceDown(from.DeviceIndex()):
			return errSourceLost
		case pl.fab.Stopped():
			return serve.ErrStopped
		}
		return nil
	}
	pass := func() error {
		if from == nil {
			return errSourceLost
		}
		n, err := from.System().Store.CopyInto(p, dst.System().Store, copyBatch)
		copied = n
		pl.led.CopiedKeys += n
		if err = check(err); err != nil {
			return err
		}
		for round := 0; round < catchupRounds && len(mig.dirty) > catchupThreshold; round++ {
			if err := check(pl.copyDelta(p, from, dst, mig)); err != nil {
				return err
			}
		}
		mig.cutover = true
		g.awaitWrites(p)
		if err := check(pl.copyDelta(p, from, dst, mig)); err != nil {
			return err
		}
		return dst.System().Store.Checkpoint(p)
	}
	err = pass()
	rejoin := keep && len(g.replicas) == 0 && !pl.fab.DeviceDown(dst.DeviceIndex())
	switch at := slices.Index(g.replicas, leaving); {
	case err == nil && at >= 0:
		g.replicas[at] = dst
		pl.fab.Retire(leaving)
	case err == nil || rejoin:
		g.replicas = append(g.replicas, dst)
	default:
		pl.fab.Retire(dst)
	}
	g.settle(p.Now())
	return copied, err
}

// copySource picks the replica a copy streams from: the healthiest
// member excluding skip (the replica being moved — acked data is
// identical on every member, and a device being evacuated is the last
// one that should stream a whole region, so it streams only when it is
// the group's sole member). It returns nil when there is nothing to
// copy from.
func (pl *Placement) copySource(g *Group, skip *serve.Shard) *serve.Shard {
	from := skip
	for _, sh := range g.replicas {
		if sh == skip {
			continue
		}
		if from == skip || pl.deviceScore(sh.DeviceIndex()).less(pl.deviceScore(from.DeviceIndex())) {
			from = sh
		}
	}
	return from
}

// copyDelta drains mig's dirty set once, charging the catch-up ledger:
// the current keys are re-read from the copy source and written to the
// destination in batches; keys written while this pass runs land in a
// fresh dirty set for the next pass (or the cutover's final one).
func (pl *Placement) copyDelta(p *sim.Proc, from, dst *serve.Shard, mig *migration) error {
	keys := make([]string, 0, len(mig.dirty))
	for k := range mig.dirty {
		keys = append(keys, k)
	}
	// Map order is random; the simulation is not. Sort so every run
	// issues the same I/O sequence.
	slices.Sort(keys)
	mig.dirty = map[string]struct{}{}
	pl.led.CatchupRounds++
	for i := 0; i < len(keys); i += copyBatch {
		tx := dst.System().Store.Begin()
		n := 0
		for _, k := range keys[i:min(i+copyBatch, len(keys))] {
			v, err := from.System().Store.Get(p, []byte(k))
			if errors.Is(err, kvstore.ErrNotFound) {
				continue // written but rejected everywhere, or deleted
			}
			if err != nil {
				return err
			}
			tx.Put([]byte(k), v)
			n++
			pl.led.DeltaKeys++
		}
		if n > 0 {
			if err := tx.Commit(p); err != nil {
				return err
			}
		}
	}
	return nil
}
