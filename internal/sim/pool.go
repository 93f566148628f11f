package sim

// Pool is an owner's free list of operation records. A layer that issues
// a command for every request keeps the command's state in a record
// whose completion callbacks are bound once, when the record is built
// (method values stored in its fields), and recycles the record through
// a Pool once nothing refers to it — so in steady state issuing a
// command allocates nothing, the way the event queue itself does not.
//
// Owners put a record back on its list before running the completion it
// carries, with the fields that completion needs copied out first,
// because the completion may issue the next command on the same owner
// (and take the record again).
type Pool[T any] struct {
	idle []*T
}

// Get takes a record off the list, or returns nil when the list is
// empty and the owner must build one.
func (p *Pool[T]) Get() *T {
	n := len(p.idle)
	if n == 0 {
		return nil
	}
	r := p.idle[n-1]
	p.idle[n-1] = nil
	p.idle = p.idle[:n-1]
	return r
}

// Put returns r, which nothing refers to any more, to the list.
func (p *Pool[T]) Put(r *T) { p.idle = append(p.idle, r) }
