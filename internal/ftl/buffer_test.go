package ftl

import (
	"math/rand"
	"testing"
)

// The write buffer's queues pop by advancing a head index and compact
// now and then; the order must be that of a plain slice queue, and a
// queue held at a steady depth must not keep growing its backing array.
func TestFifoMatchesSliceQueueAcrossCompaction(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var q fifo[int]
	var ref []int
	next := 0
	for step := 0; step < 20000; step++ {
		if len(ref) == 0 || rng.Intn(100) < 52 {
			q.push(next)
			ref = append(ref, next)
			next++
		} else {
			got, want := q.pop(), ref[0]
			ref = ref[1:]
			if got != want {
				t.Fatalf("step %d: pop = %d, want %d", step, got, want)
			}
		}
		if q.len() != len(ref) {
			t.Fatalf("step %d: len = %d, want %d", step, q.len(), len(ref))
		}
	}
	for len(ref) > 0 {
		if got := q.pop(); got != ref[0] {
			t.Fatalf("drain: pop = %d, want %d", got, ref[0])
		}
		ref = ref[1:]
	}
	if q.len() != 0 || q.head != 0 || len(q.items) != 0 {
		t.Fatalf("drained queue not reset: len %d head %d items %d", q.len(), q.head, len(q.items))
	}
}

func TestFifoAtSteadyDepthStaysBounded(t *testing.T) {
	var q fifo[int]
	for i := 0; i < 64; i++ {
		q.push(i)
	}
	for i := 0; i < 100000; i++ {
		q.push(i)
		q.pop()
	}
	if cap(q.items) > 4*64 {
		t.Fatalf("backing array grew to %d slots for a queue 64 deep", cap(q.items))
	}
}
