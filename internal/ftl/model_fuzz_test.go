package ftl

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/sim"
)

// FuzzFTLAgainstModel runs a script of writes, rewrites, trims, reads
// and flushes on a tiny PageFTL — unbuffered, or with a volatile or a
// battery-backed write buffer — at queue depth 1 to 8, and holds it
// against a map from each LPN to its last acknowledged bytes:
//
//   - a read returns the model's bytes, or those of a write or trim of
//     its LPN that overlapped it;
//   - a flush completes only once every write acknowledged before it is
//     mapped on flash, unless its LPN was written or trimmed since;
//   - every command completes, and after a final flush every LPN reads
//     back the model's bytes and the chips hold a payload for each
//     mapped page and no other.
//
// The script's first byte picks the configuration and the depth; each
// later pair of bytes is one command (modelOp).
func FuzzFTLAgainstModel(f *testing.F) {
	// The two write-back orders the buffer keeps (buffer_test.go): a
	// rewritten page outlives a burst of one-shot writes, and a flush
	// takes a covered page written twice before a later one-shot page.
	burst := []byte{modelConfig(modelVolatile, 8), opWrite, 0, opWrite, 0}
	for lpn := byte(1); lpn <= 40; lpn++ {
		burst = append(burst, opWrite, lpn)
	}
	f.Add(burst)
	flush := []byte{modelConfig(modelSafe, 8), opWrite, 0, opWrite, 0}
	for lpn := byte(1); lpn <= 5; lpn++ {
		flush = append(flush, opWrite, lpn)
	}
	f.Add(append(flush, opFlush, 0, opWrite, 6, opRead, 0))
	// Four pages admitted, then rewritten over and over below the high
	// watermark: each rewrite moves its entry to the back of a higher
	// count list.
	hot := []byte{modelConfig(modelSafe, 1)}
	for i := range byte(4 + 33) {
		hot = append(hot, opWrite, i%4)
	}
	f.Add(hot)
	// Counts halve every 100 × 16 host writes: 1 595 writes over a few
	// hot LPNs and many cold ones, then a flush, and the writes behind it
	// cross the halving while the flush's covered entries are buffered.
	halving := []byte{modelConfig(modelSafe, 8)}
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
	// Long random scripts, so the corpus collects garbage from the start.
	rng := rand.New(rand.NewSource(1))
	for mode := range byte(3) {
		for _, depth := range []byte{1, 4, 8} {
			script := make([]byte, 1+2*1500)
			rng.Read(script)
			script[0] = modelConfig(mode, depth)
			f.Add(script)
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

// modelConfig is the first script byte for a configuration and a depth.
func modelConfig(mode, depth byte) byte { return (depth-1)*3 + mode }

// modelOp splits a command into its kind and the virtual time to let
// pass before it: none unless the top three bits of its first byte are
// all set, which happens to one command in eight.
func modelOp(code, arg byte) (kind byte, idle sim.Time) {
	if code>>5 == 7 {
		idle = sim.Time(arg%8+1) * 200 * sim.Microsecond
	}
	kind = code & 7
	if kind < opRewrite {
		kind = opWrite
	} else if kind == opRead+1 {
		kind = opRead
	}
	return kind, idle
}

func runModelScript(t *testing.T, script []byte) {
	if len(script) == 0 {
		return
	}
	const maxOps = 4096
	cfg := writeThroughConfig()
	mode, depth := script[0]%3, int(script[0]/3%8)+1
	if mode != modelUnbuffered {
		cfg.BufferPages = 16
		cfg.BufferSafe = mode == modelSafe
	}
	eng, f := newTinyFTL(t, cfg)
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
	)
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
		kind, idle := modelOp(script[i], arg)
		if idle > 0 {
			eng.RunUntil(eng.Now() + idle)
		}
		settle(func() bool { return inFlight < depth }, "queue full")
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
			f.WriteLPN(lpn, page(lpn, v), func(err error) {
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
						_, resident := f.buf.entries.get(l)
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
		if got := mustRead(t, eng, f, lpn); !bytes.Equal(got, want) {
			t.Fatalf("after the drain lpn %d reads %d bytes, want version %d", lpn, len(got), model[lpn])
		}
	}
	if got, want := payloadPages(f.arr), livePages(f); got != want {
		t.Fatalf("chips hold %d payloads, the map %d live pages", got, want)
	}
}
