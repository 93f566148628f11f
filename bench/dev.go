package main

import (
	"bytes"
	"fmt"

	"repro/internal/sim"
	"repro/internal/ssd"
)

// Class deadlines the fabric holds its own requests to (serve's
// admission defaults); the device workloads are scored against the
// same ones so goodput means the same thing on all four workloads.
const (
	readDeadline  = 2 * sim.Millisecond
	writeDeadline = 20 * sim.Millisecond
)

// devQD is the closed loop's client count on the raw-device workloads.
const devQD = 16

// devOptions is the device both raw-device workloads (and the peel's
// lower rungs) run on: Enterprise2012 scaled to 2 channels × 4 chips of
// 256 blocks × 32 pages with 12 % over-provisioning, so one full-span
// overwrite — what set-up does — brings every chip to GC steady state.
func devOptions(seed uint64, small bool) ssd.Options {
	o := ssd.Options{Channels: 2, ChipsPerChannel: 4, BlocksPerPlane: 128, PagesPerBlock: 32, OverProvision: 0.12, Seed: seed}
	if small {
		o.BlocksPerPlane = 16
	}
	return o
}

// pageTarget is where the page-op load generator submits: a device, or
// (in the layer peel) a block-layer stack over one.
type pageTarget interface {
	PageSize() int
	Capacity() int64
	Read(lpn int64, done func([]byte, error))
	Write(lpn int64, data []byte, done func(error))
}

// devLoad is the raw-device load generator: devQD clients, each
// issuing its next page op the moment the previous one completes.
type devLoad struct {
	eng *sim.Engine
	dev pageTarget
	tr  *tracer
	// inFlight, when non-nil, maps every page address with an op in
	// flight to that op's root span; the generator then never has two
	// ops on one address, so a span recorded further down the stack
	// finds its parent by address (the block layer carries no request
	// identity). Only the layer peel sets it.
	inFlight map[int64]int64
	// readSpan and writeSpan name the root spans after the entry point
	// the generator drives.
	readSpan, writeSpan string
	rng                 *sim.RNG
	zipf                *sim.Zipf // skewed write targets (nil = uniform)
	span                int64
	// readShare of ops are uniform random reads; the rest are writes.
	readShare float64

	// The first warm ops are set-up: the same traffic, not recorded. The
	// window opens when they have all been issued, without letting the
	// device go idle in between — a drained device banks free blocks
	// and restarts with write amplification a fifth below steady state.
	warm, n, issued, settled int
	errs                     int
	v                        *virt
	snap                     func() counters
}

func (l *devLoad) writeTarget() int64 {
	if l.zipf != nil {
		return l.zipf.Next()
	}
	return l.rng.Int63n(l.span)
}

func (l *devLoad) next() (read bool, lpn int64) {
	for {
		if read = l.rng.Float64() < l.readShare; read {
			lpn = l.rng.Int63n(l.span)
		} else {
			lpn = l.writeTarget()
		}
		if _, busy := l.inFlight[lpn]; !busy {
			return read, lpn
		}
	}
}

func (l *devLoad) issue() {
	if l.issued >= l.n {
		return
	}
	rec := l.issued >= l.warm
	l.issued++
	read, lpn := l.next()
	t0 := l.eng.Now()
	if !rec {
		l.track(lpn, 0)
		if read {
			l.dev.Read(lpn, func(_ []byte, err error) { l.untrack(lpn); l.settle(false, nil, 0, 0, err) })
		} else {
			l.dev.Write(lpn, nil, func(err error) { l.untrack(lpn); l.settle(false, nil, 0, 0, err) })
		}
		return
	}
	if l.v.attempted == 0 {
		l.v.start = t0
	}
	l.v.attempted++
	l.v.submissions++
	if read {
		sp := l.tr.open(l.readSpan, 0)
		l.track(lpn, sp)
		l.dev.Read(lpn, func(_ []byte, err error) {
			l.untrack(lpn)
			l.tr.close(sp)
			l.settle(true, &l.v.readLat, t0, readDeadline, err)
		})
		return
	}
	sp := l.tr.open(l.writeSpan, 0)
	l.track(lpn, sp)
	l.v.userBytes += int64(l.dev.PageSize())
	l.dev.Write(lpn, nil, func(err error) {
		l.untrack(lpn)
		l.tr.close(sp)
		l.settle(true, &l.v.writeLat, t0, writeDeadline, err)
	})
}

func (l *devLoad) track(lpn, span int64) {
	if l.inFlight != nil {
		l.inFlight[lpn] = span
	}
}

func (l *devLoad) untrack(lpn int64) {
	if l.inFlight != nil {
		delete(l.inFlight, lpn)
	}
}

func (l *devLoad) settle(rec bool, lat *[]int64, t0, deadline sim.Time, err error) {
	l.settled++
	if err != nil {
		l.errs++
	}
	if rec {
		if err != nil {
			l.v.failed++
		} else {
			d := l.eng.Now() - t0
			*lat = append(*lat, int64(d))
			l.v.completed++
			if d <= deadline {
				l.v.inSLO++
			}
		}
		l.v.end = l.eng.Now()
		if l.snap != nil {
			switch l.v.completed + l.v.failed {
			case int64(l.n-l.warm) / 2:
				l.v.mid = l.snap()
			case int64(l.n - l.warm):
				l.v.last = l.snap()
			}
		}
	}
	l.issue()
}

// fillDevice is the first part of raw-device set-up: a sequential fill
// of the whole logical span, then one full-span pass of uniform random
// overwrites, both at queue depth 32, so every chip is collecting
// garbage.
func fillDevice(eng *sim.Engine, dev ssd.Dev, seed uint64) error {
	span := dev.Capacity()
	rng := sim.NewRNG(seed ^ 0x5e709)
	var werr error
	for phase := 0; phase < 2; phase++ {
		var issued int64
		var submit func()
		submit = func() {
			if issued >= span {
				return
			}
			lpn := issued
			if phase == 1 {
				lpn = rng.Int63n(span)
			}
			issued++
			dev.Write(lpn, nil, func(err error) {
				if err != nil && werr == nil {
					werr = err
				}
				submit()
			})
		}
		for k := 0; k < 32; k++ {
			submit()
		}
		drain(eng)
		if werr != nil {
			return fmt.Errorf("device set-up: %w", werr)
		}
	}
	return nil
}

// newDevLoad builds a load of warm unrecorded ops followed by n
// recorded ones; its streams derive from seed.
func newDevLoad(eng *sim.Engine, dev pageTarget, tr *tracer, seed uint64, readShare float64, zipfWrites bool, warm, n int) *devLoad {
	l := &devLoad{
		eng: eng, dev: dev, tr: tr, readSpan: "dev.read", writeSpan: "dev.write", rng: sim.NewRNG(seed), span: dev.Capacity(),
		readShare: readShare, warm: warm, n: warm + n,
		v: &virt{readLat: make([]int64, 0, n), writeLat: make([]int64, 0, n)},
	}
	if zipfWrites {
		l.zipf = sim.NewZipf(sim.NewRNG(seed+1), l.span, 0.99)
	}
	return l
}

// warmUp starts the clients and steps the engine until the last warm
// op has been issued. The clients are still mid-flight when it returns.
func (l *devLoad) warmUp() {
	for k := 0; k < devQD; k++ {
		l.issue()
	}
	for l.issued < l.warm && l.eng.Step() {
	}
}

// buildDev builds the two raw-device workloads. readShare and zipf are
// the only difference between them. settleSpans is how many logical
// spans' worth of the workload's own traffic set-up runs after the
// fill and straight into the window, so that write amplification under
// that traffic has levelled off before the window opens.
func buildDev(readShare float64, zipfWrites bool, settleSpans int) builder {
	return func(seed uint64, sz sizing, tr *tracer) (*window, error) {
		eng := sim.NewEngine()
		d, err := ssd.Build(eng, ssd.Enterprise2012, devOptions(seed, sz.small))
		if err != nil {
			return nil, err
		}
		dev := d.(*ssd.Device)
		sys := &system{eng: eng, devs: []*ssd.Device{dev}}
		if err := fillDevice(eng, dev, seed); err != nil {
			return nil, err
		}
		tr.bind(eng)
		l := newDevLoad(eng, dev, tr, seed, readShare, zipfWrites, settleSpans*int(dev.Capacity()), sz.ops)
		l.snap = sys.snap
		l.warmUp()
		w := &window{eng: eng, snap: sys.snap, close: func() {}}
		w.arm = func() {
			dev.Metrics().Reset()
		}
		w.finish = func() (*virt, error) {
			if l.settled != l.n {
				return nil, fmt.Errorf("device window: %d of %d ops settled", l.settled, l.n)
			}
			if l.errs != 0 || dev.FTL().Stats().ReadErrors != 0 {
				return nil, fmt.Errorf("device window: %d op errors, %d uncorrectable reads", l.errs, dev.FTL().Stats().ReadErrors)
			}
			return l.v, readBackDevice(eng, dev, seed)
		}
		return w, nil
	}
}

// readBackDevice is the raw-device output check: 64 seeded pages are
// written with known contents after the window and must read back
// byte for byte through the aged, collecting FTL.
func readBackDevice(eng *sim.Engine, dev ssd.Dev, seed uint64) error {
	rng := sim.NewRNG(seed ^ 0xbacc)
	const pages = 64
	lpns := make([]int64, pages)
	want := make([][]byte, pages)
	var werr error
	pending := pages
	for i := range lpns {
		lpns[i] = int64(i)*(dev.Capacity()/pages) + rng.Int63n(dev.Capacity()/pages)
		want[i] = make([]byte, dev.PageSize())
		for j := range want[i] {
			want[i][j] = byte(rng.Uint64())
		}
		dev.Write(lpns[i], want[i], func(err error) {
			pending--
			if err != nil && werr == nil {
				werr = err
			}
		})
	}
	drain(eng)
	if werr != nil || pending != 0 {
		return fmt.Errorf("read-back: writes failed (%v, %d pending)", werr, pending)
	}
	bad := 0
	for i := range lpns {
		i := i
		dev.Read(lpns[i], func(got []byte, err error) {
			if err != nil || !bytes.Equal(got, want[i]) {
				bad++
			}
		})
	}
	drain(eng)
	if bad != 0 {
		return fmt.Errorf("read-back: %d of %d pages differ", bad, pages)
	}
	return nil
}
