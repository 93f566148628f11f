package sim

// Queue is the FIFO every layer queues its waiting work on: a ring over
// a power-of-two array whose head index advances on a pop, so push and
// pop are O(1) at any depth, and which doubles when full. A popped slot
// is cleared, so the queue keeps nothing it has handed out reachable.
// The zero Queue is empty and allocates at its first push.
type Queue[T any] struct {
	items []T
	head  int // ring index of the oldest item
	n     int
}

// Len reports how many items are queued.
func (q *Queue[T]) Len() int { return q.n }

// At returns the i-th queued item in place, 0 being the oldest.
func (q *Queue[T]) At(i int) *T { return &q.items[(q.head+i)&(len(q.items)-1)] }

// Push appends v.
func (q *Queue[T]) Push(v T) {
	if q.n == len(q.items) {
		grown := make([]T, max(16, 2*len(q.items)))
		k := copy(grown, q.items[q.head:])
		copy(grown[k:], q.items[:q.head])
		q.items, q.head = grown, 0
	}
	*q.At(q.n) = v
	q.n++
}

// Pop removes and returns the oldest item. The queue must not be empty.
func (q *Queue[T]) Pop() T {
	v := q.items[q.head]
	var zero T
	q.items[q.head] = zero
	q.head = (q.head + 1) & (len(q.items) - 1)
	q.n--
	return v
}
