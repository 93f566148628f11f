// Package ssd assembles flash arrays, FTLs and a host interface into
// complete storage devices — the black boxes the paper insists we stop
// treating as black boxes. It provides the era presets the experiments
// compare (Consumer2008, Enterprise2012, a PCM SSD), per-device latency
// metrics, and the extended command set of §3 (atomic writes, nameless
// writes, trim) alongside the classic block command set.
package ssd

import (
	"errors"
	"fmt"

	"repro/internal/ftl"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/sim"
)

// Device-level errors.
var (
	// ErrAtomicUnsupported reports atomic writes on a device without a
	// safe (battery/capacitor-backed) write buffer.
	ErrAtomicUnsupported = errors.New("ssd: atomic writes need a safe write buffer")
	// ErrNamelessUnsupported reports nameless writes on an FTL that
	// cannot hand out physical addresses.
	ErrNamelessUnsupported = errors.New("ssd: nameless writes unsupported by this FTL")
	// ErrDeviceDead reports a command issued to a killed device (fault
	// injection): the controller never answers with data again.
	ErrDeviceDead = errors.New("ssd: device dead")
)

// Dev is the host-visible contract of every simulated device.
type Dev interface {
	Name() string
	PageSize() int
	Capacity() int64 // in pages
	// Read hands done the page's payload, which is shared with the
	// device and must not be modified.
	Read(lpn int64, done func([]byte, error))
	// Write stores data. The device keeps its own copy: the caller's
	// buffer is its own again once the write is acknowledged.
	Write(lpn int64, data []byte, done func(error))
	Trim(lpn int64) error
	Flush(done func())
	Metrics() *DeviceMetrics
}

// DeviceMetrics aggregates host-visible performance counters.
type DeviceMetrics struct {
	ReadLat  metrics.Histogram
	WriteLat metrics.Histogram
	Reads    metrics.Counter
	Writes   metrics.Counter
}

// Reset clears all recorded metrics (between experiment phases).
func (m *DeviceMetrics) Reset() {
	m.ReadLat.Reset()
	m.WriteLat.Reset()
	m.Reads = metrics.Counter{}
	m.Writes = metrics.Counter{}
}

// Interface models the host link (SATA/PCIe): bandwidth plus a fixed
// controller command overhead.
type Interface struct {
	MBPerSec    int
	CmdOverhead sim.Time
}

// Era-accurate host interfaces.
var (
	SATA2 = Interface{MBPerSec: 300, CmdOverhead: 20 * sim.Microsecond}
	SATA3 = Interface{MBPerSec: 600, CmdOverhead: 10 * sim.Microsecond}
	PCIe4 = Interface{MBPerSec: 1600, CmdOverhead: 3 * sim.Microsecond}
)

// Device is a flash SSD: an FTL behind a host interface.
type Device struct {
	eng  *sim.Engine
	name string
	f    ftl.FTL
	arr  *ftl.Array

	link        *sim.Server
	linkBytesNs int64 // bytes per second
	cmdOverhead sim.Time

	// dead marks a killed device (Kill): volatile state is gone and
	// every command fails with ErrDeviceDead after its command cycle.
	dead bool
	// stallUntil freezes the controller (Stall): commands arriving
	// before it queue behind the stall instead of starting.
	stallUntil sim.Time

	cmds sim.Pool[cmd] // idle command records
	m    DeviceMetrics
}

// cmd is one host read, write or flush in flight through the controller:
// the link cycle, the FTL's work, and (for a read) the data's way back
// over the link. The device owns it from issue until the outcome is
// handed over, and recycles it first (sim.Pool); its callbacks are bound
// once, when it is built.
type cmd struct {
	d     *Device
	lpn   int64
	data  []byte
	start sim.Time
	// Exactly one is set: the command's kind and its completion.
	read  func([]byte, error)
	write func(error)
	flush func()

	onGate  func()
	onLink  func(start, end sim.Time)
	onRead  func([]byte, error)
	onXfer  func(start, end sim.Time)
	onWrite func(error)
}

// newCmd takes a command record off the idle list, or builds one.
func (d *Device) newCmd() *cmd {
	c := d.cmds.Get()
	if c == nil {
		c = &cmd{d: d}
		c.onGate, c.onLink, c.onRead, c.onXfer, c.onWrite = c.dispatch, c.linked, c.ftlRead, c.transferred, c.ftlWritten
	}
	c.start = d.eng.Now()
	return c
}

// recycle clears c, keeping its bindings, and puts it back on the list.
func (c *cmd) recycle() {
	d := c.d
	*c = cmd{d: d, onGate: c.onGate, onLink: c.onLink, onRead: c.onRead, onXfer: c.onXfer, onWrite: c.onWrite}
	d.cmds.Put(c)
}

// dispatch occupies the link with the command cycle, plus the data for a
// write.
func (c *cmd) dispatch() {
	d := c.d
	switch {
	case c.read != nil:
		d.link.Use(d.cmdOverhead, "cmd", c.onLink)
	case c.write != nil:
		d.link.Use(d.cmdOverhead+d.linkTime(d.PageSize()), "write-xfer", c.onLink)
	default:
		d.link.Use(d.cmdOverhead, "flush-cmd", c.onLink)
	}
}

// linked hands the command to the FTL once it has crossed the link.
// Death is checked here, at dispatch, so a device that dies while a
// command waits behind a stall still fails that command.
func (c *cmd) linked(_, _ sim.Time) {
	d := c.d
	switch {
	case c.read != nil:
		if d.dead {
			c.endRead(nil, ErrDeviceDead)
			return
		}
		d.f.ReadLPN(c.lpn, c.onRead)
	case c.write != nil:
		if d.dead {
			c.endWrite(ErrDeviceDead)
			return
		}
		d.f.WriteLPN(c.lpn, c.data, c.onWrite)
	default:
		done := c.flush
		c.recycle()
		if d.dead {
			done()
			return
		}
		d.f.Flush(done)
	}
}

// ftlRead sends the page the FTL read back over the link.
func (c *cmd) ftlRead(data []byte, err error) {
	if err != nil {
		c.endRead(nil, err)
		return
	}
	c.data = data
	c.d.link.Use(c.d.linkTime(c.d.PageSize()), "read-xfer", c.onXfer)
}

func (c *cmd) transferred(_, end sim.Time) {
	d := c.d
	d.m.ReadLat.Record(int64(end - c.start))
	d.m.Reads.Add(d.PageSize())
	c.endRead(c.data, nil)
}

func (c *cmd) ftlWritten(err error) {
	if err == nil {
		d := c.d
		d.m.WriteLat.Record(int64(d.eng.Now() - c.start))
		d.m.Writes.Add(d.PageSize())
	}
	c.endWrite(err)
}

func (c *cmd) endRead(data []byte, err error) {
	done := c.read
	c.recycle()
	done(data, err)
}

func (c *cmd) endWrite(err error) {
	done := c.write
	c.recycle()
	done(err)
}

var _ Dev = (*Device)(nil)

// NewDevice wraps an FTL as a host-visible device.
func NewDevice(eng *sim.Engine, name string, f ftl.FTL, arr *ftl.Array, link Interface) (*Device, error) {
	if link.MBPerSec <= 0 {
		return nil, fmt.Errorf("ssd: link bandwidth %d must be positive", link.MBPerSec)
	}
	return &Device{
		eng:         eng,
		name:        name,
		f:           f,
		arr:         arr,
		link:        sim.NewServer(eng, name+"/link"),
		linkBytesNs: int64(link.MBPerSec) * 1_000_000,
		cmdOverhead: link.CmdOverhead,
	}, nil
}

// Name implements Dev.
func (d *Device) Name() string { return d.name }

// PageSize implements Dev.
func (d *Device) PageSize() int { return d.f.PageSize() }

// Capacity implements Dev.
func (d *Device) Capacity() int64 { return d.f.Capacity() }

// Metrics implements Dev.
func (d *Device) Metrics() *DeviceMetrics { return &d.m }

// FTL exposes the translation layer (for experiment instrumentation).
func (d *Device) FTL() ftl.FTL { return d.f }

// Array exposes the flash fabric (for tracing and utilization).
func (d *Device) Array() *ftl.Array { return d.arr }

// Link exposes the host-link server (for utilization attribution).
func (d *Device) Link() *sim.Server { return d.link }

// linkTime is the host-link occupancy of an n-byte transfer.
func (d *Device) linkTime(n int) sim.Time {
	if n <= 0 {
		return 0
	}
	return sim.Time(int64(n) * int64(sim.Second) / d.linkBytesNs)
}

// gate defers a command past any active controller stall; a responsive
// device dispatches immediately. Death is checked at dispatch (inside
// the link occupancy), not here: a device that dies while a command is
// queued behind the stall still fails that command.
func (d *Device) gate(fn func()) {
	if d.stallUntil > d.eng.Now() {
		d.eng.Schedule(d.stallUntil, fn)
		return
	}
	fn()
}

// Read implements Dev: command overhead, FTL read, then the data crosses
// the host link. The data done receives is the flash page's own buffer
// (or the write buffer's copy): shared with the device, not to be
// modified.
func (d *Device) Read(lpn int64, done func([]byte, error)) {
	c := d.newCmd()
	c.lpn, c.read = lpn, done
	d.gate(c.onGate)
}

// Write implements Dev: the data crosses the host link, then the FTL
// stores it (which, with a write-back buffer, acks quickly).
func (d *Device) Write(lpn int64, data []byte, done func(error)) {
	c := d.newCmd()
	c.lpn, c.data, c.write = lpn, data, done
	d.gate(c.onGate)
}

// Trim implements Dev (the ATA TRIM command the paper highlights as the
// first crack in the block interface).
func (d *Device) Trim(lpn int64) error {
	if d.dead {
		return ErrDeviceDead
	}
	return d.f.Trim(lpn)
}

// Flush implements Dev. On a dead device the completion still fires
// (there is nothing left to make durable and callers must not hang);
// the loss is reported by the writes themselves.
func (d *Device) Flush(done func()) {
	c := d.newCmd()
	c.flush = done
	d.gate(c.onGate)
}

// pageFTL returns the underlying PageFTL if this device has one.
func (d *Device) pageFTL() *ftl.PageFTL {
	switch f := d.f.(type) {
	case *ftl.PageFTL:
		return f
	case *ftl.DFTL:
		return f.Inner()
	default:
		return nil
	}
}

// WriteNameless is the §3 extended command: the device places the page
// and returns its physical address.
func (d *Device) WriteNameless(data []byte, done func(ftl.PPA, error)) {
	pf := d.pageFTL()
	if pf == nil {
		done(ftl.InvalidPPA, ErrNamelessUnsupported)
		return
	}
	d.gate(func() {
		d.link.Use(d.cmdOverhead+d.linkTime(d.PageSize()), "nameless-xfer", func(_, _ sim.Time) {
			if d.dead {
				done(ftl.InvalidPPA, ErrDeviceDead)
				return
			}
			pf.WriteNameless(data, done)
		})
	})
}

// ReadPhys reads by physical address (the host tracked it from a
// nameless write).
func (d *Device) ReadPhys(ppa ftl.PPA, done func([]byte, error)) {
	pf := d.pageFTL()
	if pf == nil {
		done(nil, ErrNamelessUnsupported)
		return
	}
	d.link.Use(d.cmdOverhead, "cmd", func(_, _ sim.Time) {
		if d.dead {
			done(nil, ErrDeviceDead)
			return
		}
		pf.ReadPhys(ppa, func(data []byte, err error) {
			if err != nil {
				done(nil, err)
				return
			}
			d.link.Use(d.linkTime(d.PageSize()), "read-xfer", func(_, _ sim.Time) {
				done(data, nil)
			})
		})
	})
}

// TrimPhys trims by physical address.
func (d *Device) TrimPhys(ppa ftl.PPA) error {
	pf := d.pageFTL()
	if pf == nil {
		return ErrNamelessUnsupported
	}
	return pf.TrimPhys(ppa)
}

// SetRelocationNotifier forwards GC relocation callbacks to the host —
// the device-to-host half of "communicating peers".
func (d *Device) SetRelocationNotifier(fn func(old, new ftl.PPA)) error {
	pf := d.pageFTL()
	if pf == nil {
		return ErrNamelessUnsupported
	}
	pf.SetRelocationNotifier(fn)
	return nil
}

// SetGCNotifier forwards device GC-activity notifications to the host:
// fn receives the number of chips currently garbage-collecting (or
// wear-leveling) every time that number changes. Host-side schedulers
// use it to keep latency-sensitive traffic out of GC's way — device
// state the block interface never exposed.
func (d *Device) SetGCNotifier(fn func(activeChips int)) error {
	pf := d.pageFTL()
	if pf == nil {
		return ErrNamelessUnsupported
	}
	pf.SetGCNotifier(fn)
	return nil
}

// GCControllable reports whether this device's GC can be shaped by the
// host: true only for page-mapped FTLs (directly or behind DFTL).
// Block- and hybrid-mapped devices answer every DeferGC with a refusal,
// so hosts should not bother wiring them (blockdev.Stack.GCControl
// probes this).
func (d *Device) GCControllable() bool { return d.pageFTL() != nil }

// DeferGC is the host→device half of the peer interface: it asks the
// device to park background garbage collection until the virtual-time
// deadline, and reports whether the device honored the request. The
// deferral is bounded by the device's own free-pool floor (it refuses
// when urgent, and a chip that reaches the floor collects anyway), so
// the host can be greedy without being dangerous. Devices without a
// page-mapped FTL have no controllable GC and report false. Deferral
// is a control-plane message: it costs no link time.
func (d *Device) DeferGC(deadline sim.Time) bool {
	pf := d.pageFTL()
	if pf == nil {
		return false
	}
	return pf.DeferGC(deadline)
}

// ResumeGC releases an active GC deferral early (the burst the host was
// protecting has drained). A no-op on devices without controllable GC.
func (d *Device) ResumeGC() {
	if pf := d.pageFTL(); pf != nil {
		pf.ResumeGC()
	}
}

// GCUrgency reports the device's reclamation pressure (relaxed,
// elevated, urgent) — what a host scheduler polls to know how much
// deferral headroom remains. FTLs without controllable GC report
// relaxed.
func (d *Device) GCUrgency() ftl.GCUrgency {
	if pf := d.pageFTL(); pf != nil {
		return pf.GCUrgency()
	}
	return ftl.GCRelaxed
}

// SetEventSink wires a health-event sink for device-side GC
// coordination moments (floor hits, forced collection), labeled with
// this device's name. A no-op on devices without controllable GC.
func (d *Device) SetEventSink(sink obs.EventSink) {
	if pf := d.pageFTL(); pf != nil {
		pf.SetEventSink(sink, d.name)
	}
}

// GCCoord returns the device-side GC-coordination ledger.
func (d *Device) GCCoord() metrics.GCCoord {
	if pf := d.pageFTL(); pf != nil {
		return pf.GCCoord()
	}
	return metrics.NewGCCoord()
}

// GCTouch probes the GC context of one logical page (which chip holds
// it, whether that chip is collecting, whether a defer lease is
// active) for trace-span annotation. Devices without a page-mapped FTL
// report a zero probe with Chip -1.
func (d *Device) GCTouch(lpn int64) ftl.GCTouch {
	if pf := d.pageFTL(); pf != nil {
		return pf.GCTouch(lpn)
	}
	return ftl.GCTouch{Chip: -1}
}

// BufferSafe reports whether the device has a page FTL with a write
// buffer that survives power loss — what AtomicWrite needs, so a host
// can refuse a device without it before relying on the command.
func (d *Device) BufferSafe() bool {
	pf := d.pageFTL()
	return pf != nil && pf.BufferSafe()
}

// AtomicWrite stores a group of pages all-or-nothing (Ouyang et al.'s
// "beyond block I/O" primitive, cited in §3). The group lands in the
// safe write buffer in one step, so a crash either preserves the whole
// group (battery) or the ack was never sent. It requires a safe-buffered
// page FTL, like the capacitor-backed devices that shipped the feature.
func (d *Device) AtomicWrite(lpns []int64, pages [][]byte, done func(error)) {
	if !d.BufferSafe() {
		done(ErrAtomicUnsupported)
		return
	}
	if len(lpns) != len(pages) {
		done(fmt.Errorf("ssd: %d lpns but %d pages", len(lpns), len(pages)))
		return
	}
	if len(lpns) == 0 {
		d.eng.After(d.cmdOverhead, func() { done(nil) })
		return
	}
	start := d.eng.Now()
	total := d.cmdOverhead + d.linkTime(d.PageSize()*len(lpns))
	d.link.Use(total, "atomic-xfer", func(_, _ sim.Time) {
		if d.dead {
			done(ErrDeviceDead)
			return
		}
		remaining := len(lpns)
		var firstErr error
		for i := range lpns {
			d.f.WriteLPN(lpns[i], pages[i], func(err error) {
				if err != nil && firstErr == nil {
					firstErr = err
				}
				remaining--
				if remaining == 0 {
					if firstErr == nil {
						d.m.WriteLat.Record(int64(d.eng.Now() - start))
						d.m.Writes.Add(d.PageSize() * len(lpns))
					}
					done(firstErr)
				}
			})
		}
	})
}

// AgeTiming applies mid-life service-time drift to the device's flash:
// every chip's read/program/erase latencies become the given multiples
// of their datasheet values (a factor <= 0 restores that operation's
// datasheet timing; calls replace, not compound). The block interface
// would hide this drift behind the same LBA contract forever; the
// adaptive control plane exists to notice it from the outside, so
// experiments age a device mid-run and watch the host's calibrated
// costs follow.
func (d *Device) AgeTiming(read, program, erase float64) {
	if d.arr != nil {
		d.arr.SetTimingScale(read, program, erase)
	}
}

// Crash models sudden power loss: volatile buffer contents vanish. It
// returns the LPNs whose acknowledged writes were silently lost — the
// durability trap behind "writes complete as soon as they hit the
// cache". Devices with safe buffers lose nothing.
func (d *Device) Crash() []int64 {
	if pf := d.pageFTL(); pf != nil {
		return pf.DropVolatileBuffer()
	}
	return nil
}

// Kill is whole-device death (fault injection): the volatile buffer is
// gone for good, and every command from now on fails with
// ErrDeviceDead after its command cycle (serve.Fabric.KillDevice is the
// health signal a serving fabric degrades and repairs on). Unlike Crash there is no reopen: a killed device never serves again.
func (d *Device) Kill() {
	if d.dead {
		return
	}
	d.dead = true
	if pf := d.pageFTL(); pf != nil {
		pf.DropVolatileBuffer()
	}
}

// Stall freezes the controller for dur (firmware hang, fault
// injection): commands arriving inside the window queue behind it.
// Overlapping stalls extend, never shorten.
func (d *Device) Stall(dur sim.Time) {
	if until := d.eng.Now() + dur; until > d.stallUntil {
		d.stallUntil = until
	}
}

// Chips reports the device's flash chip count (0 without an array —
// chip-level faults need flash to aim at).
func (d *Device) Chips() int {
	if d.arr == nil {
		return 0
	}
	return d.arr.Chips()
}

// KillChip kills one flash die: its programs and erases fail, its
// reads come back uncorrectable, and the FTL's own error handling
// (block retirement, relocation) deals with the fallout.
func (d *Device) KillChip(chip int) {
	if d.arr != nil && chip >= 0 && chip < d.arr.Chips() {
		d.arr.Chip(chip).Fail()
	}
}

// StallChip freezes one flash die for dur: its queued operations start
// only after the stall passes.
func (d *Device) StallChip(chip int, dur sim.Time) {
	if d.arr != nil && chip >= 0 && chip < d.arr.Chips() {
		d.arr.Chip(chip).Stall(d.eng.Now() + dur)
	}
}

// SlowChip scales one flash die's datasheet latencies (AgeTiming for a
// single chip): factors replace, a factor <= 0 restores.
func (d *Device) SlowChip(chip int, read, program, erase float64) {
	if d.arr != nil && chip >= 0 && chip < d.arr.Chips() {
		d.arr.Chip(chip).SetTimingScale(read, program, erase)
	}
}
