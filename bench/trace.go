package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/sim"
	"repro/internal/ssd"
)

// span is one traced interval on both clocks. Spans of one request
// share Req (the root span's ID); Parent is 0 for a root.
type span struct {
	Name   string `json:"name"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    int64  `json:"req"`
	VStart int64  `json:"v0"` // virtual ns
	VEnd   int64  `json:"v1"`
	HStart int64  `json:"h0"` // host ns since the tracer was made
	HEnd   int64  `json:"h1"`
}

// tracer keeps spans in memory and writes them out when the benchmark
// ends. All spans are recorded from the benchmark's own files, around
// the calls into each layer. A nil tracer records nothing, so the
// timed runs carry only a nil check.
type tracer struct {
	eng   *sim.Engine
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// bind points the tracer at the engine whose clock the next spans use.
func (t *tracer) bind(eng *sim.Engine) {
	if t != nil {
		t.eng = eng
	}
}

// open starts a span under parent (0 = a new request's root).
func (t *tracer) open(name string, parent int64) int64 {
	if t == nil {
		return 0
	}
	id := int64(len(t.spans) + 1)
	req := id
	if parent != 0 {
		req = t.spans[parent-1].Req
	}
	t.spans = append(t.spans, span{
		Name: name, ID: id, Parent: parent, Req: req,
		VStart: int64(t.eng.Now()), HStart: int64(time.Since(t.t0)),
	})
	return id
}

// len is the number of spans recorded so far.
func (t *tracer) len() int {
	if t == nil {
		return 0
	}
	return len(t.spans)
}

func (t *tracer) close(id int64) {
	if t == nil || id == 0 {
		return
	}
	s := &t.spans[id-1]
	s.VEnd, s.HEnd = int64(t.eng.Now()), int64(time.Since(t.t0))
}

// write stores the spans as one JSON document.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(struct {
		Spans []span `json:"spans"`
	}{t.spans}); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}

// tracedDev wraps a device so every command it receives becomes a span
// under the upper-layer span that caused it. parentOf resolves that
// span from the page address (commands carry no request identity
// through the block layer, so the peel keeps in-flight addresses
// distinct; flushes ask with -1) and reports false for commands that
// belong to no traced request (set-up, warm-up), which are not
// recorded. Embedding *ssd.Device keeps the optional interfaces the
// upper layers probe for — GC control, urgency, per-page GC context —
// visible through the wrapper.
type tracedDev struct {
	*ssd.Device
	tr       *tracer
	parentOf func(lpn int64) (int64, bool)
}

func (d *tracedDev) Read(lpn int64, done func([]byte, error)) {
	parent, ok := d.parentOf(lpn)
	if !ok {
		d.Device.Read(lpn, done)
		return
	}
	sp := d.tr.open("ssd.read", parent)
	d.Device.Read(lpn, func(b []byte, err error) {
		d.tr.close(sp)
		done(b, err)
	})
}

func (d *tracedDev) Write(lpn int64, data []byte, done func(error)) {
	parent, ok := d.parentOf(lpn)
	if !ok {
		d.Device.Write(lpn, data, done)
		return
	}
	sp := d.tr.open("ssd.write", parent)
	d.Device.Write(lpn, data, func(err error) {
		d.tr.close(sp)
		done(err)
	})
}

func (d *tracedDev) Flush(done func()) {
	parent, ok := d.parentOf(-1)
	if !ok {
		d.Device.Flush(done)
		return
	}
	sp := d.tr.open("ssd.flush", parent)
	d.Device.Flush(func() {
		d.tr.close(sp)
		done()
	})
}
