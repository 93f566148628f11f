package necro_test

import (
	"fmt"
	"log"

	necro "repro"
)

// Build a simulated 2012 enterprise SSD, write and read a page, and look
// at the latency the whole stack produced — all in deterministic virtual
// time.
func Example_quickstart() {
	eng := necro.NewEngine()

	dev, err := necro.BuildDevice(eng, necro.Enterprise2012, necro.DeviceOptions{
		Channels: 2, ChipsPerChannel: 2, BlocksPerPlane: 64,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("built %s: %d pages x %d B\n", dev.Name(), dev.Capacity(), dev.PageSize())

	// Write one page, then read it back. Completions are callbacks in
	// virtual time; eng.Run() drains the event loop.
	payload := make([]byte, dev.PageSize())
	copy(payload, "the necessary death of the block device interface")

	dev.Write(42, payload, func(err error) {
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("write acknowledged at t=%v (hit the safe cache)\n", eng.Now())
	})
	eng.Run()

	dev.Read(42, func(data []byte, err error) {
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("read %q... at t=%v\n", data[:22], eng.Now())
	})
	eng.Run()

	m := dev.Metrics()
	fmt.Printf("device metrics — reads: %s\n", m.ReadLat.Summary())
	fmt.Printf("device metrics — writes: %s\n", m.WriteLat.Summary())

	// The same API drives simulated processes for blocking-style code:
	eng.Go(func(p *necro.Proc) {
		p.Sleep(5 * necro.Millisecond)
		fmt.Printf("a simulated process woke at t=%v\n", p.Now())
	})
	eng.Run()
	// Output:
	// built Enterprise2012: 60948 pages x 4096 B
	// write acknowledged at t=18.826µs (hit the safe cache)
	// read "the necessary death of"... at t=37.652µs
	// device metrics — reads: n=1 mean=18.8µs p50=18.8µs p99=18.8µs max=18.8µs
	// device metrics — writes: n=1 mean=18.8µs p50=18.8µs p99=18.8µs max=18.8µs
	// a simulated process woke at t=5.037652ms
}

// Run the same transactional storage engine over the conservative stack
// (everything through a block device) and over the paper's progressive
// stack (log on memory-bus PCM, pages on flash via the direct path,
// atomic metadata writes, trims), then crash both and recover — the §3
// vision as working code.
func Example_codesign() {
	run := func(progressive bool) {
		eng := necro.NewEngine()
		name := "conservative (block device only)"
		if progressive {
			name = "progressive (PCM log + direct flash)"
		}
		eng.Go(func(p *necro.Proc) {
			d, err := necro.BuildDevice(eng, necro.Enterprise2012, necro.DeviceOptions{
				Channels: 2, ChipsPerChannel: 2, BlocksPerPlane: 128,
			})
			if err != nil {
				log.Fatal(err)
			}
			flash := d.(*necro.FlashDevice)

			var sys *necro.KVSystem
			if progressive {
				mb, err := necro.NewMemBus(eng, "pcm0", necro.DefaultPCMConfig())
				if err != nil {
					log.Fatal(err)
				}
				sys, err = necro.BuildProgressiveKV(p, eng, flash, mb, 1<<22, 2, necro.KVConfig{})
				if err != nil {
					log.Fatal(err)
				}
			} else {
				sys, err = necro.BuildConservativeKV(p, eng, flash, 256, 2, necro.KVConfig{})
				if err != nil {
					log.Fatal(err)
				}
			}

			// A little OLTP: 200 transactions of 3 updates each.
			start := p.Now()
			for i := 0; i < 200; i++ {
				tx := sys.Store.Begin()
				for j := 0; j < 3; j++ {
					tx.Put([]byte(fmt.Sprintf("acct%04d", (i*3+j)%500)),
						[]byte(fmt.Sprintf("balance=%d", i*100+j)))
				}
				if err := tx.Commit(p); err != nil {
					log.Fatal(err)
				}
			}
			elapsed := p.Now() - start
			w := sys.Store.WAL()
			fmt.Printf("%s:\n", name)
			fmt.Printf("  200 txns in %v of virtual time (%.0f txns/s)\n",
				elapsed, 200/elapsed.Seconds())
			fmt.Printf("  %d log syncs for %d commits\n", w.Syncs, w.Commits)

			// Pull the plug and recover.
			fresh, lost, err := sys.Crash(p)
			if err != nil {
				log.Fatal(err)
			}
			got, err := fresh.Store.Get(p, []byte("acct0000"))
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("  crash + recovery: acct0000 = %q (volatile pages lost: %d)\n", got, len(lost))
		})
		eng.Run()
	}
	run(false)
	run(true)
	// Output:
	// conservative (block device only):
	//   200 txns in 133.991208ms of virtual time (1493 txns/s)
	//   200 log syncs for 200 commits
	//   crash + recovery: acct0000 = "balance=16602" (volatile pages lost: 0)
	// progressive (PCM log + direct flash):
	//   200 txns in 1.1056ms of virtual time (180897 txns/s)
	//   200 log syncs for 200 commits
	//   crash + recovery: acct0000 = "balance=16602" (volatile pages lost: 0)
}
