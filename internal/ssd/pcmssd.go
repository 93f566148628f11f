package ssd

import (
	"fmt"

	"repro/internal/pcm"
	"repro/internal/sim"
)

// PCMSSD is a PCM-based SSD behind a block interface (§2.4: "even if we
// contemplate pure PCM-based SSDs [Onyx], the issues of parallelism,
// wear leveling and error management will likely introduce significant
// complexity"). There is no FTL — PCM updates in place — but the device
// still has banks whose ports serialize, a controller, and a host link,
// so it is *not* the same thing as a PCM chip (Myth 1 again).
type PCMSSD struct {
	eng  *sim.Engine
	name string

	banks    []*pcm.Device
	pageSize int
	capacity int64  // pages
	zero     []byte // the page a nil write stores; never written

	link        *sim.Server
	linkBytesNs int64
	cmdOverhead sim.Time

	m DeviceMetrics
}

var _ Dev = (*PCMSSD)(nil)

// NewPCMSSD builds a PCM SSD with nBanks banks of cfg each.
func NewPCMSSD(eng *sim.Engine, name string, nBanks, pageSize int, cfg pcm.Config, link Interface) (*PCMSSD, error) {
	if nBanks <= 0 || pageSize <= 0 {
		return nil, fmt.Errorf("ssd: pcm geometry %d banks x %d page", nBanks, pageSize)
	}
	if link.MBPerSec <= 0 {
		return nil, fmt.Errorf("ssd: link bandwidth must be positive")
	}
	d := &PCMSSD{
		eng:         eng,
		name:        name,
		pageSize:    pageSize,
		zero:        make([]byte, pageSize),
		link:        sim.NewServer(eng, name+"/link"),
		linkBytesNs: int64(link.MBPerSec) * 1_000_000,
		cmdOverhead: link.CmdOverhead,
	}
	for i := 0; i < nBanks; i++ {
		b, err := pcm.New(eng, fmt.Sprintf("%s/bank%d", name, i), cfg)
		if err != nil {
			return nil, err
		}
		d.banks = append(d.banks, b)
	}
	d.capacity = int64(nBanks) * (cfg.CapacityBytes / int64(pageSize))
	return d, nil
}

// Name implements Dev.
func (d *PCMSSD) Name() string { return d.name }

// PageSize implements Dev.
func (d *PCMSSD) PageSize() int { return d.pageSize }

// Capacity implements Dev.
func (d *PCMSSD) Capacity() int64 { return d.capacity }

// Metrics implements Dev.
func (d *PCMSSD) Metrics() *DeviceMetrics { return &d.m }

func (d *PCMSSD) locate(lpn int64) (*pcm.Device, int64, error) {
	if lpn < 0 || lpn >= d.capacity {
		return nil, 0, fmt.Errorf("ssd: lpn %d out of range (%d)", lpn, d.capacity)
	}
	bank := int(lpn % int64(len(d.banks)))
	slot := lpn / int64(len(d.banks))
	return d.banks[bank], slot * int64(d.pageSize), nil
}

func (d *PCMSSD) linkTime(n int) sim.Time {
	if n <= 0 {
		return 0
	}
	return sim.Time(int64(n) * int64(sim.Second) / d.linkBytesNs)
}

// Read implements Dev.
func (d *PCMSSD) Read(lpn int64, done func([]byte, error)) {
	bank, off, err := d.locate(lpn)
	if err != nil {
		done(nil, err)
		return
	}
	start := d.eng.Now()
	d.link.Use(d.cmdOverhead, "cmd", func(_, _ sim.Time) {
		rerr := bank.Read(off, d.pageSize, func(data []byte, err error) {
			if err != nil {
				done(nil, err)
				return
			}
			d.link.Use(d.linkTime(d.pageSize), "read-xfer", func(_, end sim.Time) {
				d.m.ReadLat.Record(int64(end - start))
				d.m.Reads.Add(d.pageSize)
				done(data, nil)
			})
		})
		if rerr != nil {
			done(nil, rerr)
		}
	})
}

// Write implements Dev: in-place, no erase, no GC — but still serialized
// on the bank port and host link.
func (d *PCMSSD) Write(lpn int64, data []byte, done func(error)) {
	bank, off, err := d.locate(lpn)
	if err != nil {
		done(err)
		return
	}
	if data == nil {
		data = d.zero // the bank copies it in at submission
	}
	if len(data) != d.pageSize {
		done(fmt.Errorf("ssd: payload %d bytes, page is %d", len(data), d.pageSize))
		return
	}
	start := d.eng.Now()
	d.link.Use(d.cmdOverhead+d.linkTime(d.pageSize), "write-xfer", func(_, _ sim.Time) {
		werr := bank.Write(off, data, func(err error) {
			if err != nil {
				done(err)
				return
			}
			d.m.WriteLat.Record(int64(d.eng.Now() - start))
			d.m.Writes.Add(d.pageSize)
			done(nil)
		})
		if werr != nil {
			done(werr)
		}
	})
}

// Trim implements Dev: PCM needs no trim; accepted and ignored.
func (d *PCMSSD) Trim(lpn int64) error {
	_, _, err := d.locate(lpn)
	return err
}

// Flush implements Dev: PCM writes are durable on completion.
func (d *PCMSSD) Flush(done func()) {
	d.eng.After(d.cmdOverhead, done)
}
