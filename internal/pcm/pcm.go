// Package pcm models phase-change memory, the paper's second
// non-volatile technology (§2.4, §3): byte-addressable, in-place
// updates, no erase, read latency near DRAM, writes several times
// slower, and per-cell endurance far above flash but still finite.
//
// Two presentations are provided:
//
//   - Device: a raw PCM array with per-cache-line timing, suitable as a
//     chip in a PCM-based SSD;
//   - MemBus: the memory-bus attachment the paper (citing Condit et al.
//     and Mohan) argues synchronous database state should use, with
//     store + persist-barrier semantics.
package pcm

import (
	"bytes"
	"errors"
	"fmt"

	"repro/internal/sim"
)

// Sentinel errors.
var (
	// ErrOutOfRange reports an access beyond the device capacity.
	ErrOutOfRange = errors.New("pcm: access out of range")
	// ErrWornOut reports a write to a line past its endurance rating.
	ErrWornOut = errors.New("pcm: line worn out")
)

// Config parameterizes a PCM device. Defaults follow 2012-era prototypes
// (Onyx, Samsung parts): ~100ns-class reads, sub-µs line writes.
type Config struct {
	CapacityBytes int64
	LineSize      int      // access granularity in bytes (typically 64)
	ReadLatency   sim.Time // per line
	WriteLatency  sim.Time // per line (SET/RESET is the slow path)
	Endurance     int64    // writes per line; 0 disables wear tracking
}

// DefaultConfig is a 2012-flavoured 1 GiB PCM part.
func DefaultConfig() Config {
	return Config{
		CapacityBytes: 1 << 30,
		LineSize:      64,
		ReadLatency:   115 * sim.Nanosecond,
		WriteLatency:  800 * sim.Nanosecond,
		Endurance:     100_000_000,
	}
}

// Device is a raw PCM array behind a single access port (one bank
// server). In-place updates are legal: there is no erase and no
// sequential-programming constraint — exactly the contrast with flash
// the paper draws.
type Device struct {
	eng *sim.Engine
	cfg Config
	srv *sim.Server

	// Sparse storage: 4 KiB chunks allocated on first write.
	chunks map[int64][]byte
	// wear counts writes per line, sparse: counters live in groups of
	// wearGroup consecutive lines keyed by line/wearGroup and allocated
	// on first write, so a page-sized write touches one or two map
	// entries rather than one per line.
	wear map[int64]*[wearGroup]int64
}

const (
	chunkSize = 4096
	wearGroup = 64
)

// New returns a PCM device on eng.
func New(eng *sim.Engine, name string, cfg Config) (*Device, error) {
	if cfg.CapacityBytes <= 0 {
		return nil, fmt.Errorf("pcm: capacity %d must be positive", cfg.CapacityBytes)
	}
	if cfg.LineSize <= 0 {
		return nil, fmt.Errorf("pcm: line size %d must be positive", cfg.LineSize)
	}
	if cfg.ReadLatency < 0 || cfg.WriteLatency < 0 {
		return nil, fmt.Errorf("pcm: negative latency")
	}
	return &Device{
		eng:    eng,
		cfg:    cfg,
		srv:    sim.NewServer(eng, name),
		chunks: make(map[int64][]byte),
		wear:   make(map[int64]*[wearGroup]int64),
	}, nil
}

// Config returns the device parameterization.
func (d *Device) Config() Config { return d.cfg }

// lines reports how many cache lines an [off, off+n) access touches.
func (d *Device) lines(off int64, n int) int64 {
	if n <= 0 {
		return 0
	}
	ls := int64(d.cfg.LineSize)
	first := off / ls
	last := (off + int64(n) - 1) / ls
	return last - first + 1
}

func (d *Device) checkRange(off int64, n int) error {
	if off < 0 || n < 0 || off+int64(n) > d.cfg.CapacityBytes {
		return fmt.Errorf("%w: off=%d n=%d cap=%d", ErrOutOfRange, off, n, d.cfg.CapacityBytes)
	}
	return nil
}

// Read starts a byte-granular read of n bytes at off. done receives a
// fresh copy of the data. Unwritten bytes read as zero.
func (d *Device) Read(off int64, n int, done func([]byte, error)) error {
	if err := d.checkRange(off, n); err != nil {
		return err
	}
	dur := sim.Time(d.lines(off, n)) * d.cfg.ReadLatency
	d.srv.Use(dur, "read", func(_, _ sim.Time) {
		buf := make([]byte, n)
		d.copyOut(off, buf)
		done(buf, nil)
	})
	return nil
}

// Write starts a byte-granular in-place write. done receives ErrWornOut
// if any touched line exceeded its endurance (data is still written:
// real wear failures corrupt silently, but we surface the event).
func (d *Device) Write(off int64, data []byte, done func(error)) error {
	if err := d.checkRange(off, len(data)); err != nil {
		return err
	}
	dur := sim.Time(d.lines(off, len(data))) * d.cfg.WriteLatency
	var wearErr error
	if d.cfg.Endurance > 0 {
		ls := int64(d.cfg.LineSize)
		var group *[wearGroup]int64
		for line := off / ls; line <= (off+int64(len(data))-1)/ls && len(data) > 0; line++ {
			if group == nil || line%wearGroup == 0 {
				if group = d.wear[line/wearGroup]; group == nil {
					group = new([wearGroup]int64)
					d.wear[line/wearGroup] = group
				}
			}
			group[line%wearGroup]++
			if group[line%wearGroup] > d.cfg.Endurance && wearErr == nil {
				wearErr = fmt.Errorf("%w: line %d", ErrWornOut, line)
			}
		}
	}
	d.copyIn(off, data)
	d.srv.Use(dur, "write", func(_, _ sim.Time) { done(wearErr) })
	return nil
}

// zeros is what an unwritten chunk reads as; copyIn compares against it
// and never writes it.
var zeros [chunkSize]byte

// copyIn stores data at off. A span of zeros that lands where no chunk
// exists stores nothing, since unwritten bytes already read as zero;
// zeros written over an existing chunk still clear it.
func (d *Device) copyIn(off int64, data []byte) {
	for len(data) > 0 {
		ci := off / chunkSize
		co := off % chunkSize
		span := data[:min(len(data), chunkSize-int(co))]
		chunk := d.chunks[ci]
		if chunk == nil && !bytes.Equal(span, zeros[:len(span)]) {
			chunk = make([]byte, chunkSize)
			d.chunks[ci] = chunk
		}
		if chunk != nil {
			copy(chunk[co:], span)
		}
		data = data[len(span):]
		off += int64(len(span))
	}
}

func (d *Device) copyOut(off int64, buf []byte) {
	for len(buf) > 0 {
		ci := off / chunkSize
		co := off % chunkSize
		var n int
		if chunk := d.chunks[ci]; chunk != nil {
			n = copy(buf, chunk[co:])
		} else {
			n = len(buf)
			if rem := chunkSize - int(co); n > rem {
				n = rem
			}
			for i := 0; i < n; i++ {
				buf[i] = 0
			}
		}
		buf = buf[n:]
		off += int64(n)
	}
}
