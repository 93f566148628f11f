package sim

import (
	"math/rand"
	"testing"
)

// A queue pops in the order of a plain slice queue as its ring wraps and
// doubles.
func TestQueueMatchesSliceQueueAcrossGrowth(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var q Queue[int]
	var ref []int
	next := 0
	for step := 0; step < 20000; step++ {
		if len(ref) == 0 || rng.Intn(100) < 52 {
			q.Push(next)
			ref = append(ref, next)
			next++
		} else {
			got, want := q.Pop(), ref[0]
			ref = ref[1:]
			if got != want {
				t.Fatalf("step %d: pop = %d, want %d", step, got, want)
			}
		}
		if q.Len() != len(ref) {
			t.Fatalf("step %d: len = %d, want %d", step, q.Len(), len(ref))
		}
		if len(ref) > 0 && *q.At(len(ref) - 1) != ref[len(ref)-1] {
			t.Fatalf("step %d: newest = %d, want %d", step, *q.At(len(ref) - 1), ref[len(ref)-1])
		}
	}
	for len(ref) > 0 {
		if got := q.Pop(); got != ref[0] {
			t.Fatalf("drain: pop = %d, want %d", got, ref[0])
		}
		ref = ref[1:]
	}
	if q.Len() != 0 {
		t.Fatalf("drained queue holds %d", q.Len())
	}
}

// A queue held at a steady depth does not keep growing its ring.
func TestQueueAtSteadyDepthStaysBounded(t *testing.T) {
	var q Queue[int]
	for i := 0; i < 64; i++ {
		q.Push(i)
	}
	for i := 0; i < 100000; i++ {
		q.Push(i)
		q.Pop()
	}
	if len(q.items) > 4*64 {
		t.Fatalf("ring grew to %d slots for a queue 64 deep", len(q.items))
	}
}

// A popped slot no longer references what it held, so a queue does not
// keep a popped value's memory reachable.
func TestQueuePopClearsItsSlot(t *testing.T) {
	var q Queue[*[64]byte]
	for i := 0; i < 40; i++ {
		q.Push(new([64]byte))
		if i%3 == 0 {
			q.Pop()
		}
	}
	for q.Len() > 0 {
		q.Pop()
	}
	for i, v := range q.items {
		if v != nil {
			t.Fatalf("slot %d of a drained queue still references a popped value", i)
		}
	}
}
