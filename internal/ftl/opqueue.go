package ftl

import "repro/internal/sim"

// opQueue serializes the commands of the legacy HybridFTL. Block-mapped
// and hybrid controllers of the pre-2009 generation processed one
// command at a time — their merge state machines were not reentrant —
// so their simulated counterpart queues host commands the same way.
// (This is itself part of Myth 2's story: no internal concurrency to
// hide merge cost behind.)
type opQueue struct {
	busy bool
	q    sim.Queue[func(done func())]
}

// run enqueues op; op receives a completion callback it must invoke
// exactly once. Ops execute strictly one at a time in FIFO order.
func (o *opQueue) run(op func(done func())) {
	o.q.Push(op)
	if o.busy {
		return
	}
	o.busy = true
	o.step()
}

func (o *opQueue) step() {
	if o.q.Len() == 0 {
		o.busy = false
		return
	}
	o.q.Pop()(func() { o.step() })
}
