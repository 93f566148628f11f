package pcm

import "repro/internal/sim"

// MemBus presents a PCM device as memory-bus-attached storage-class
// memory: the CPU stores to it directly and makes data durable with a
// persist barrier (the clflush/clwb+fence analogue), instead of going
// through a driver and block layer. This is the §3 "synchronous path".
//
// Stores land in a (volatile) write-combining queue at store cost;
// Persist drains the queue to the PCM array and only returns when every
// queued line is durable.
type MemBus struct {
	eng *sim.Engine
	dev *Device

	// StoreCost is the CPU-visible cost of one cached store burst
	// (filling a line in the store buffer).
	StoreCost sim.Time
	// BarrierCost is the fixed cost of the fence instruction sequence.
	BarrierCost sim.Time

	pendingLines int64 // queued, not yet persisted
	waits        sim.Pool[portWait]
}

// portWait is one Persist's or Load's wait for the device port, pooled
// with its completion bound once, so a persist allocates nothing and a
// load only the bytes it returns.
type portWait struct {
	m    *MemBus
	c    *sim.Cond
	off  int64
	out  []byte // a load's destination, filled when the port is done
	done func(_, _ sim.Time)
}

func (w *portWait) fire(_, _ sim.Time) {
	if w.out != nil {
		w.m.dev.copyOut(w.off, w.out)
	}
	w.c.Fire()
}

// wait takes a port wait off the idle list, or builds one, armed.
func (m *MemBus) wait() *portWait {
	w := m.waits.Get()
	if w == nil {
		w = &portWait{m: m, c: sim.NewCond(m.eng)}
		w.done = w.fire
	}
	w.c.Reset()
	return w
}

// NewMemBus wraps dev as memory-mapped storage-class memory.
func NewMemBus(eng *sim.Engine, dev *Device) *MemBus {
	return &MemBus{
		eng:         eng,
		dev:         dev,
		StoreCost:   10 * sim.Nanosecond,
		BarrierCost: 100 * sim.Nanosecond,
	}
}

// Device returns the underlying PCM array.
func (m *MemBus) Device() *Device { return m.dev }

// Store writes data at off into the persistence domain's queue. It is
// cheap (store-buffer speed); durability requires Persist. The data is
// staged immediately so a later Load observes it (store-to-load
// forwarding).
func (m *MemBus) Store(p *sim.Proc, off int64, data []byte) error {
	if err := m.dev.checkRange(off, len(data)); err != nil {
		return err
	}
	m.dev.copyIn(off, data)
	m.pendingLines += m.dev.lines(off, len(data))
	p.Sleep(m.StoreCost * sim.Time(1+len(data)/m.dev.cfg.LineSize))
	return nil
}

// Persist blocks until every line stored since the last Persist is
// durable in PCM: barrier cost plus the PCM write time of the queued
// lines, serialized on the device port.
func (m *MemBus) Persist(p *sim.Proc) {
	lines := m.pendingLines
	m.pendingLines = 0
	p.Sleep(m.BarrierCost)
	if lines == 0 {
		return
	}
	dur := sim.Time(lines) * m.dev.cfg.WriteLatency
	w := m.wait()
	m.dev.srv.Use(dur, "persist", w.done)
	w.c.Await(p)
	m.waits.Put(w)
}

// Load reads n bytes at off at memory speed (PCM read latency per line),
// blocking the calling process.
func (m *MemBus) Load(p *sim.Proc, off int64, n int) ([]byte, error) {
	if err := m.dev.checkRange(off, n); err != nil {
		return nil, err
	}
	dur := sim.Time(m.dev.lines(off, n)) * m.dev.cfg.ReadLatency
	out := make([]byte, n)
	w := m.wait()
	w.off, w.out = off, out
	m.dev.srv.Use(dur, "load", w.done)
	w.c.Await(p)
	w.out = nil
	m.waits.Put(w)
	return out, nil
}
