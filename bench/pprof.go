package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/pprof"
	"strconv"
	"strings"
)

// startProfile begins a runtime/pprof CPU profile into path and returns
// the function that ends it.
func startProfile(path string) (stop func() error, err error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, err
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return func() error {
		pprof.StopCPUProfile()
		return f.Close()
	}, nil
}

// selfBuckets are the host_self_share.* buckets: one per module of the
// repository, the benchmark itself, and the Go runtime split by what it
// was doing for them.
var selfBuckets = []string{
	"sim", "nand", "bus", "ecc", "ftl", "ssd", "blockdev", "sched", "core", "wal", "btree", "bufpool",
	"kvstore", "serve", "place", "obs", "metrics", "workload", "bench",
	"runtime.memmove", "runtime.malloc_gc", "runtime.sched_chan", "runtime.map", "runtime.other", "std",
}

// Runtime symbols by what they do for the simulator: copying, allocating
// and collecting, switching goroutines (sim.Proc hand-offs are channel
// operations), or hashing into maps. The rest of the runtime is
// runtime.other; the rest of the standard library (sorting, comparing,
// encoding, formatting) is std.
var (
	runtimeMove  = []string{"runtime.memmove", "runtime.typedmemmove", "runtime.typedslicecopy", "runtime.slicecopy"}
	runtimeMap   = []string{"runtime.map", "internal/runtime/maps.", "aeshash", "runtime.memhash", "runtime.strhash", "runtime.aeshash", "memhash"}
	runtimeAlloc = []string{"malloc", "runtime.memclr", "runtime.gc", "runtime.(*gc", "runtime.scan", "runtime.grey", "runtime.mark", "runtime.sweep", "runtime.bgsweep", "runtime.bgscavenge",
		"runtime.(*mspan)", "runtime.(*mcache)", "runtime.(*mcentral)", "runtime.(*mheap)", "runtime.(*sweepLocke", "runtime.(*pageAlloc)", "runtime.(*limiterEvent", "runtime.heapBits", "runtime.(*heapBits",
		"runtime.newobject", "runtime.newarray", "runtime.growslice", "runtime.makeslice", "runtime.makemap", "runtime.nextFreeFast", "runtime.wbBuf", "runtime.(*wbBuf)", "runtime.bulkBarrier",
		"runtime.findObject", "runtime.spanOf", "runtime.(*gcWork)", "runtime.(*gcBits", "runtime.(*lfstack)", "runtime.tryDeferToSpanScan", "runtime.(*spanInlineMarkBits", "runtime.(*mSpanStateBox", "runtime.deductAssistCredit", "runtime.publicationBarrier", "runtime.(*activeSweep"}
	runtimeSched = []string{"runtime.chan", "runtime.(*hchan)", "runtime.send", "runtime.recv", "runtime.gopark", "runtime.goready", "runtime.ready", "runtime.schedule", "runtime.findRunnable",
		"runtime.park_m", "runtime.mcall", "runtime.gogo", "runtime.futex", "runtime.note", "runtime.lock", "runtime.unlock", "runtime.runq", "runtime.wakep", "runtime.startm", "runtime.stopm",
		"runtime.execute", "runtime.casgstatus", "runtime.sel", "runtime.newproc", "runtime.gfget", "runtime.gfput", "runtime.goexit", "runtime.gdestroy", "runtime.(*sudog", "runtime.acquireSudog", "runtime.releaseSudog",
		"runtime.resetspinning", "runtime.mPark", "runtime.pidle", "runtime.(*randomOrder", "runtime.(*randomEnum", "runtime.stealWork", "runtime.checkTimers", "runtime.(*timers", "runtime.osyield", "runtime.procyield",
		"runtime.globrunq", "runtime.injectglist", "runtime.netpoll", "runtime.usleep", "runtime.mstart", "runtime.dropg", "runtime.(*guintptr", "runtime.(*muintptr", "runtime.(*puintptr", "runtime.handoffp", "runtime.releasep", "runtime.acquirep",
		"runtime.(*gQueue", "runtime.(*gList", "runtime.(*mLockProfile", "runtime.goschedImpl", "runtime.gosched", "runtime.gopreempt", "runtime.pMask", "runtime.(*schedt", "runtime.mget", "runtime.mput", "runtime.needm", "runtime.semasleep", "runtime.semawakeup"}
)

// bucketOf maps one symbol of a CPU profile to its host_self_share
// bucket.
func bucketOf(sym string) string {
	if rest, ok := strings.CutPrefix(sym, "repro/internal/"); ok {
		pkg := rest
		if i := strings.IndexAny(rest, "./"); i >= 0 {
			pkg = rest[:i]
		}
		for _, b := range selfBuckets {
			if b == pkg {
				return b
			}
		}
		return "std" // a repository package the workloads never reach
	}
	if strings.HasPrefix(sym, "main.") || strings.HasPrefix(sym, "repro/bench.") {
		return "bench"
	}
	for _, p := range runtimeMove {
		if strings.HasPrefix(sym, p) {
			return "runtime.memmove"
		}
	}
	for _, p := range runtimeMap {
		if strings.HasPrefix(sym, p) {
			return "runtime.map"
		}
	}
	for _, p := range runtimeSched {
		if strings.HasPrefix(sym, p) {
			return "runtime.sched_chan"
		}
	}
	for _, p := range runtimeAlloc {
		if strings.HasPrefix(sym, p) || (p == "malloc" && strings.Contains(sym, p)) {
			return "runtime.malloc_gc"
		}
	}
	if strings.HasPrefix(sym, "runtime.") || strings.HasPrefix(sym, "internal/runtime/") || strings.HasPrefix(sym, "runtime/") {
		return "runtime.other"
	}
	return "std"
}

// parseTop folds the output of `go tool pprof -top` into the share of
// flat time per bucket. The shares are of the listed flat time, so they
// sum to one.
func parseTop(out []byte) (map[string]float64, error) {
	flat := map[string]float64{}
	var total float64
	sc := bufio.NewScanner(bytes.NewReader(out))
	inTable := false
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if !inTable {
			inTable = len(f) >= 2 && f[0] == "flat" && f[1] == "flat%"
			continue
		}
		if len(f) < 6 {
			continue
		}
		secs, err := parseFlat(f[0])
		if err != nil {
			return nil, fmt.Errorf("pprof -top: %q: %w", sc.Text(), err)
		}
		// The symbol is everything after the five numeric columns; drop a
		// trailing "(inline)".
		sym := strings.TrimSuffix(strings.Join(f[5:], " "), " (inline)")
		flat[bucketOf(sym)] += secs
		total += secs
	}
	if !inTable {
		return nil, fmt.Errorf("pprof -top: no table in output")
	}
	if total == 0 {
		return nil, fmt.Errorf("pprof -top: profile has no samples")
	}
	shares := make(map[string]float64, len(selfBuckets))
	for _, b := range selfBuckets {
		shares[b] = flat[b] / total
	}
	return shares, nil
}

// parseFlat reads a pprof duration such as "1.52s", "340ms" or
// "1.20mins".
func parseFlat(s string) (float64, error) {
	for _, u := range []struct {
		suffix string
		secs   float64
	}{{"hrs", 3600}, {"mins", 60}, {"ms", 1e-3}, {"us", 1e-6}, {"ns", 1e-9}, {"s", 1}} {
		if num, ok := strings.CutSuffix(s, u.suffix); ok {
			v, err := strconv.ParseFloat(num, 64)
			return v * u.secs, err
		}
	}
	v, err := strconv.ParseFloat(s, 64)
	return v, err
}

// foldProfile runs `go tool pprof -top` on CPU profiles (pprof merges
// them) and folds their flat time into the host_self_share buckets.
func foldProfile(paths ...string) (map[string]float64, error) {
	args := append([]string{"tool", "pprof", "-top", "-nodecount=100000", "-nodefraction=0"}, paths...)
	out, err := exec.Command("go", args...).Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof -top %v: %w", paths, err)
	}
	return parseTop(out)
}
