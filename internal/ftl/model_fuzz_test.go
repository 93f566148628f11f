package ftl

import (
	"bytes"
	"encoding/binary"
	"maps"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/sim"
)

// FuzzFTLAgainstModel runs a script of writes, rewrites, trims, reads
// and flushes on a tiny PageFTL — unbuffered, or with a volatile or a
// battery-backed write buffer, on chips that suspend an erase for a read
// or not — at queue depth 1 to 32, and holds it against a map from each
// LPN to its last acknowledged bytes. Nameless writes, their trims
// (TrimPhys) and their reads (ReadPhys) run beside them, held against a
// map from each physical address the device returned to its bytes,
// which the relocation notifier keeps current. Some writes are sealed
// (WriteSealed): the device keeps the script's buffer itself.
//
//   - a read returns the model's bytes, or those of a write or trim of
//     its LPN that overlapped it; a nameless read returns the bytes its
//     address held when it was issued;
//   - a nameless write is placed on a page no live nameless page holds,
//     and a relocation moves a live nameless page;
//   - a flush completes only once every write acknowledged before it is
//     mapped on flash, unless its LPN was written or trimmed since;
//   - every command completes, and after a final flush every LPN and
//     every nameless page reads back the model's bytes and the chips
//     hold a payload for each live page and no other;
//   - every sealed buffer still holds the bytes it was written with, and
//     an LPN last written sealed reads back that buffer itself.
//
// On suspending chips a read overtakes the erases issued before it, so
// the oracle holds under that reordering too. The script's first byte
// picks the configuration, the part and the depth; each later pair of
// bytes is one command (modelOp).
func FuzzFTLAgainstModel(f *testing.F) {
	// The two write-back orders the buffer keeps (buffer_test.go): a
	// rewritten page outlives a burst of one-shot writes, and a flush
	// takes a covered page written twice before a later one-shot page.
	burst := []byte{modelConfig(modelVolatile, false, 8), opWrite, 0, opWrite, 0}
	for lpn := byte(1); lpn <= 40; lpn++ {
		burst = append(burst, opWrite, lpn)
	}
	f.Add(burst)
	flush := []byte{modelConfig(modelSafe, false, 8), opWrite, 0, opWrite, 0}
	for lpn := byte(1); lpn <= 5; lpn++ {
		flush = append(flush, opWrite, lpn)
	}
	f.Add(append(flush, opFlush, 0, opWrite, 6, opRead, 0))
	// Four pages admitted, then rewritten over and over below the high
	// watermark: each rewrite moves its entry to the back of a higher
	// count list.
	hot := []byte{modelConfig(modelSafe, false, 1)}
	for i := range byte(4 + 33) {
		hot = append(hot, opWrite, i%4)
	}
	f.Add(hot)
	// Counts halve every 100 × 16 host writes: 1 595 writes over a few
	// hot LPNs and many cold ones, then a flush, and the writes behind it
	// cross the halving while the flush's covered entries are buffered.
	halving := []byte{modelConfig(modelSafe, false, 8)}
	for i := range 1595 {
		lpn := byte(i % 5)
		if i%2 == 1 {
			lpn = byte(5 + i%91)
		}
		halving = append(halving, opWrite, lpn)
	}
	halving = append(halving, opFlush, 0)
	for i := range byte(12) {
		halving = append(halving, opWrite, i)
	}
	f.Add(append(halving, opRead, 0))
	// Sealed and copied writes of the same few LPNs alternate through a
	// safe buffer: each replaces the other's entry, never copies into a
	// sealed one.
	mixed := []byte{modelConfig(modelSafe, false, 4)}
	for i := range byte(64) {
		mixed = append(mixed, opWrite|sealedOp*(i%2), i%3)
	}
	f.Add(append(mixed, opFlush, 0, opRead, 1))
	// Writes at depth 8 with no pause, over every LPN of the device: a
	// host write waits on the full buffer most of the time, across GC
	// passes that end, so the flusher, held back while no chip has room,
	// must be kicked again wherever room comes back (writeBuffer.kick).
	for _, mode := range []byte{modelSafe, modelVolatile} {
		stall := []byte{modelConfig(mode, false, 8)}
		for i := range 1500 {
			stall = append(stall, opWrite, byte(i*37%96))
		}
		f.Add(stall)
	}
	// Every LPN and the most nameless pages a script keeps written once,
	// one command at a time, leave each chip below its low watermark
	// with no garbage, so GC idles. Then only trims run, of LPNs and of
	// nameless pages, with pauses between them: each dead page is the
	// only thing that can start its chip's GC (PageFTL.startGCSoon).
	trims := []byte{modelConfig(modelUnbuffered, false, 1)}
	for lpn := range byte(96) {
		trims = append(trims, opWrite, lpn)
	}
	for i := range byte(maxNameless) {
		trims = append(trims, opWrite|namelessOp, i)
	}
	for i := range byte(96) {
		trims = append(trims, idleOp|opTrim, byte(int(i)*5%96))
		if i%12 == 0 {
			trims = append(trims, idleOp|namelessOp|opTrim, i)
		}
	}
	f.Add(trims)
	// Long random scripts, so the corpus collects garbage from the start;
	// then on suspending chips, deep enough that reads pile up mid-erase.
	rng := rand.New(rand.NewSource(1))
	for _, suspend := range []bool{false, true} {
		depths := []byte{1, 4, 8}
		if suspend {
			depths = []byte{8, 32}
		}
		for mode := range byte(3) {
			for _, depth := range depths {
				script := make([]byte, 1+2*1500)
				rng.Read(script)
				script[0] = modelConfig(mode, suspend, depth)
				f.Add(script)
			}
		}
	}
	f.Fuzz(func(t *testing.T, script []byte) { runModelScript(t, script) })
}

// The configurations a script can pick.
const (
	modelUnbuffered = iota
	modelVolatile
	modelSafe
)

// Commands (modelOp): the low three bits of a command's first byte.
const (
	opWrite   = 0 // 0–2: write the LPN its second byte names
	opRewrite = 3 // write one of the last eight LPNs written
	opTrim    = 4
	opRead    = 5 // 5–6
	opFlush   = 7
)

// A command's first byte with both namelessOp bits set makes a write, a
// trim or a read nameless: WriteNameless, TrimPhys or ReadPhys of the
// live nameless page its second byte picks. With only sealedOp's bit of
// them set, a write or rewrite is sealed (WriteSealed). With all three
// idleOp bits set, virtual time passes before it.
const (
	sealedOp   = 1 << 3
	namelessOp = 3 << 3
	idleOp     = 7 << 5
)

// maxNameless bounds the live nameless pages, written or being written:
// they take space beside every LPN, and a nameless write past it trims
// one instead.
const maxNameless = 8

// modelConfig is the first script byte for a configuration, whether
// the chips suspend erases, and a depth (1 to 32).
func modelConfig(mode byte, suspend bool, depth byte) byte {
	b := (depth-1)*6 + mode
	if suspend {
		b += 3
	}
	return b
}

// modelOp splits a command into its kind, whether it is nameless or a
// sealed write, and the virtual time to let pass before it: none unless
// the idleOp bits of its first byte are all set, which happens to one
// command in eight.
func modelOp(code, arg byte) (kind byte, nameless, sealed bool, idle sim.Time) {
	if code&idleOp == idleOp {
		idle = sim.Time(arg%8+1) * 200 * sim.Microsecond
	}
	kind = code & 7
	if kind < opRewrite {
		kind = opWrite
	} else if kind == opRead+1 {
		kind = opRead
	}
	nameless = code&namelessOp == namelessOp && kind != opRewrite && kind != opFlush
	sealed = code&namelessOp == sealedOp && (kind == opWrite || kind == opRewrite)
	return kind, nameless, sealed, idle
}

func runModelScript(t *testing.T, script []byte) {
	if len(script) == 0 {
		return
	}
	const maxOps = 4096
	cfg := writeThroughConfig()
	mode, depth := script[0]%3, int(script[0]/6%32)+1
	if mode != modelUnbuffered {
		cfg.BufferPages = 16
		cfg.BufferSafe = mode == modelSafe
	}
	spec := tinySpec()
	spec.EraseSuspend = script[0]/3%2 == 1
	eng, arr := tinyArrayOf(t, spec, 2, 2)
	f, err := NewPageFTL(arr, cfg)
	if err != nil {
		t.Fatalf("NewPageFTL: %v", err)
	}
	n := f.Capacity()
	page := func(lpn int64, v uint32) []byte {
		d := pageData(f.PageSize(), byte(v))
		binary.LittleEndian.PutUint32(d, v)
		binary.LittleEndian.PutUint64(d[4:], uint64(lpn))
		return d
	}

	// model[lpn] is the version last acknowledged (0: none, or trimmed);
	// writing[lpn] the version of the one write in flight, if any. A
	// read in flight accepts the versions in its set; a write or trim of
	// its LPN issued meanwhile adds its own. touched[lpn] counts the
	// writes and trims of lpn issued so far.
	type read struct {
		lpn    int64
		accept []uint32
	}
	type flush struct {
		touched map[int64]int // LPNs acknowledged at the flush, and touched[lpn] then
		done    bool
	}
	var (
		version  uint32
		model    = map[int64]uint32{}
		writing  = map[int64]uint32{}
		touched  = map[int64]int{}
		reads    = map[*read]bool{}
		flushes  []*flush
		inFlight int
		recent   []int64
		nameless = map[PPA]uint32{}   // live nameless pages by address
		placing  int                  // nameless writes in flight
		sealed   [][2][]byte          // every sealed write's buffer and a copy of its bytes
		sealedAt = map[int64][]byte{} // an LPN's last write's buffer, when sealed
	)
	f.SetRelocationNotifier(func(old, new PPA) {
		v, ok := nameless[old]
		if !ok {
			t.Fatalf("relocation of %d, which holds no live nameless page", old)
		}
		if _, ok := nameless[new]; ok {
			t.Fatalf("relocation of %d onto %d, a live nameless page", old, new)
		}
		delete(nameless, old)
		nameless[new] = v
	})
	// pickNameless returns the live nameless page arg picks, in address
	// order, or false when there is none.
	pickNameless := func(arg byte) (PPA, bool) {
		if len(nameless) == 0 {
			return InvalidPPA, false
		}
		ppas := slices.Sorted(maps.Keys(nameless))
		return ppas[int(arg)%len(ppas)], true
	}
	overlap := func(lpn int64, v uint32) {
		touched[lpn]++
		for r := range reads {
			if r.lpn == lpn {
				r.accept = append(r.accept, v)
			}
		}
	}
	// settle steps the engine until cond holds (nil: until the device
	// is idle), and fails if the device goes idle first or keeps busy
	// without end.
	settle := func(cond func() bool, what string) {
		for steps := 0; cond == nil || !cond(); steps++ {
			if steps > 1_000_000 {
				t.Fatalf("%s: %d events without settling, %d commands in flight", what, steps, inFlight)
			}
			if !eng.Step() {
				if cond == nil {
					return
				}
				t.Fatalf("%s: the device went idle with %d commands in flight", what, inFlight)
			}
		}
	}

	for i := 1; i+1 < len(script) && i < 2*maxOps; i += 2 {
		arg := script[i+1]
		kind, isNameless, isSealed, idle := modelOp(script[i], arg)
		if idle > 0 {
			eng.RunUntil(eng.Now() + idle)
		}
		settle(func() bool { return inFlight < depth }, "queue full")
		if isNameless {
			if kind == opWrite && len(nameless)+placing >= maxNameless {
				kind = opTrim
			}
			switch kind {
			case opWrite:
				version++
				v := version
				placing++
				inFlight++
				f.WriteNameless(page(-1, v), func(ppa PPA, err error) {
					if err != nil {
						t.Fatalf("nameless write: %v", err)
					}
					if _, ok := nameless[ppa]; ok {
						t.Fatalf("nameless write placed on %d, a live nameless page", ppa)
					}
					placing--
					inFlight--
					nameless[ppa] = v
				})
			case opTrim:
				if ppa, ok := pickNameless(arg); ok {
					if err := f.TrimPhys(ppa); err != nil {
						t.Fatalf("trim of nameless page %d: %v", ppa, err)
					}
					delete(nameless, ppa)
				}
			case opRead:
				if ppa, ok := pickNameless(arg); ok {
					want := page(-1, nameless[ppa])
					inFlight++
					f.ReadPhys(ppa, func(d []byte, err error) {
						inFlight--
						if err != nil {
							t.Fatalf("read of nameless page %d: %v", ppa, err)
						}
						if !bytes.Equal(d, want) {
							t.Fatalf("read of nameless page %d returned other bytes than it held at issue", ppa)
						}
					})
				}
			}
			continue
		}
		lpn := int64(arg) % n
		if kind == opRewrite {
			if len(recent) > 0 {
				lpn = recent[int(arg)%len(recent)]
			}
			kind = opWrite
		}
		if kind == opWrite || kind == opTrim {
			// Like a host, never keep two updates of one LPN in flight:
			// the device owes them no order.
			settle(func() bool { _, ok := writing[lpn]; return !ok }, "write in flight")
		}
		if f.buf != nil {
			checkBufferLists(t, f.buf)
		}
		switch kind {
		case opWrite:
			version++
			v := version
			writing[lpn] = v
			overlap(lpn, v)
			if recent = append(recent, lpn); len(recent) > 8 {
				recent = recent[1:]
			}
			inFlight++
			data, write := page(lpn, v), f.WriteLPN
			delete(sealedAt, lpn)
			if isSealed {
				write = f.WriteSealed
				sealed = append(sealed, [2][]byte{data, bytes.Clone(data)})
				sealedAt[lpn] = data
			}
			write(lpn, data, func(err error) {
				if err != nil {
					t.Fatalf("write lpn %d: %v", lpn, err)
				}
				inFlight--
				delete(writing, lpn)
				model[lpn] = v
			})
		case opTrim:
			if err := f.Trim(lpn); err != nil {
				t.Fatalf("trim lpn %d: %v", lpn, err)
			}
			overlap(lpn, 0)
			delete(model, lpn)
			delete(sealedAt, lpn)
		case opRead:
			r := &read{lpn: lpn, accept: []uint32{model[lpn]}}
			if v, ok := writing[lpn]; ok {
				r.accept = append(r.accept, v)
			}
			reads[r] = true
			inFlight++
			f.ReadLPN(lpn, func(d []byte, err error) {
				inFlight--
				delete(reads, r)
				if err != nil {
					t.Fatalf("read lpn %d: %v", lpn, err)
				}
				var got uint32
				if d != nil {
					got = binary.LittleEndian.Uint32(d)
					if !bytes.Equal(d, page(lpn, got)) {
						t.Fatalf("read lpn %d: torn or misplaced bytes (version %d of lpn %d)",
							lpn, got, int64(binary.LittleEndian.Uint64(d[4:])))
					}
				}
				if !slices.Contains(r.accept, got) {
					t.Fatalf("read lpn %d returned version %d, want one of %v", lpn, got, r.accept)
				}
			})
		case opFlush:
			fl := &flush{touched: map[int64]int{}}
			for l := range model {
				if _, ok := writing[l]; !ok {
					fl.touched[l] = touched[l]
				}
			}
			flushes = append(flushes, fl)
			inFlight++
			f.Flush(func() {
				inFlight--
				fl.done = true
				for l, at := range fl.touched {
					if touched[l] != at {
						continue // written or trimmed since: nothing to hold it to
					}
					buffered := false
					if f.buf != nil {
						resident := f.buf.slotOf(l) != 0
						_, parked := f.buf.parked[l]
						buffered = resident || parked
					}
					if buffered || f.lookup(l) == InvalidPPA {
						t.Fatalf("flush completed with lpn %d, acknowledged before it, not on flash (buffered %v)", l, buffered)
					}
				}
			})
		}
	}

	settle(func() bool { return inFlight == 0 }, "drain")
	if f.buf != nil {
		checkBufferLists(t, f.buf)
	}
	final := false
	f.Flush(func() { final = true })
	settle(nil, "final flush")
	for i, fl := range flushes {
		if !fl.done {
			t.Fatalf("flush %d never completed", i)
		}
	}
	if !final {
		t.Fatal("the final flush never completed")
	}
	for lpn := int64(0); lpn < n; lpn++ {
		var want []byte
		if v, ok := model[lpn]; ok {
			want = page(lpn, v)
		}
		got := mustRead(t, eng, f, lpn)
		if !bytes.Equal(got, want) {
			t.Fatalf("after the drain lpn %d reads %d bytes, want version %d", lpn, len(got), model[lpn])
		}
		if s := sealedAt[lpn]; s != nil && &got[0] != &s[0] {
			t.Fatalf("after the drain lpn %d, last written sealed, reads a copy of its buffer", lpn)
		}
	}
	for _, s := range sealed {
		if !bytes.Equal(s[0], s[1]) {
			t.Fatalf("a sealed write's buffer (version %d) now holds version %d", binary.LittleEndian.Uint32(s[1]), binary.LittleEndian.Uint32(s[0]))
		}
	}
	for _, ppa := range slices.Sorted(maps.Keys(nameless)) {
		var got []byte
		f.ReadPhys(ppa, func(d []byte, err error) {
			if err != nil {
				t.Fatalf("read of nameless page %d: %v", ppa, err)
			}
			got = d
		})
		eng.Run()
		if !bytes.Equal(got, page(-1, nameless[ppa])) {
			t.Fatalf("after the drain nameless page %d reads other bytes than version %d", ppa, nameless[ppa])
		}
	}
	if got, want := payloadPages(f.arr), livePages(f); got != want {
		t.Fatalf("chips hold %d payloads, the map %d live pages", got, want)
	}
}
