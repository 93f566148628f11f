package ftl

import "testing"

func TestOpQueueRunsInFIFOOrder(t *testing.T) {
	var q opQueue
	var order []int
	var dones []func()
	for i := 0; i < 5; i++ {
		i := i
		q.run(func(done func()) {
			order = append(order, i)
			dones = append(dones, done)
		})
	}
	// Only the first op may have started; the rest wait for completions.
	if len(order) != 1 || order[0] != 0 {
		t.Fatalf("started %v, want just op 0", order)
	}
	for len(dones) > 0 {
		d := dones[0]
		dones = dones[1:]
		d()
	}
	for i, got := range order {
		if got != i {
			t.Fatalf("execution order %v, want FIFO", order)
		}
	}
	if len(order) != 5 {
		t.Fatalf("ran %d ops, want 5", len(order))
	}
}

func TestOpQueueSerializesOps(t *testing.T) {
	var q opQueue
	running := 0
	maxRunning := 0
	var finish []func()
	for i := 0; i < 8; i++ {
		q.run(func(done func()) {
			running++
			if running > maxRunning {
				maxRunning = running
			}
			finish = append(finish, func() {
				running--
				done()
			})
		})
	}
	for len(finish) > 0 {
		f := finish[0]
		finish = finish[1:]
		f()
	}
	if maxRunning != 1 {
		t.Fatalf("max concurrent ops %d, want 1 (legacy controllers are not reentrant)", maxRunning)
	}
}

func TestOpQueueIdlesAndRestarts(t *testing.T) {
	var q opQueue
	ran := 0
	sync := func(done func()) {
		ran++
		done()
	}
	q.run(sync)
	if q.busy {
		t.Fatal("queue still busy after synchronous op drained")
	}
	q.run(sync)
	q.run(sync)
	if ran != 3 {
		t.Fatalf("ran %d ops, want 3", ran)
	}
	if q.busy || q.q.len() != 0 {
		t.Fatal("queue must be idle and empty after draining")
	}
}

func TestOpQueueReentrantEnqueue(t *testing.T) {
	var q opQueue
	var order []string
	q.run(func(done func()) {
		order = append(order, "outer")
		// An op enqueueing another op (merge state machines do this)
		// must not recurse into it; it runs after the outer completes.
		q.run(func(inner func()) {
			order = append(order, "inner")
			inner()
		})
		order = append(order, "outer-end")
		done()
	})
	want := []string{"outer", "outer-end", "inner"}
	if len(order) != len(want) {
		t.Fatalf("order %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order %v, want %v", order, want)
		}
	}
}
