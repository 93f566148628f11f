package experiments

import (
	"encoding/json"
	"hash/fnv"
	"strings"
	"testing"

	"repro/internal/blockdev"
)

// telemetryExportGolden pins one telemetry export byte for byte: the
// registry JSON (shard ledgers, GC coordination, calibration, trace,
// series, monitor and profile) of E24's saturated 4-shard MultiQueue
// case at quick scale. It pins the exported values, not only their
// names (scripts/series_golden.txt gates those): a change that moves
// one sample, one span or one profiled nanosecond, or renames or
// reorders one key, changes it. It moved when the fabric's devices
// became Enterprise2012Suspend (the export names the device preset, and
// that name is all that moved), and last when a scheduled shard's page
// writes began queueing as a throughput-class tenant: the profile's
// per-device waits gained a "throughput" entry, a resource that never
// waited gained a wait_ns, and the run's values moved. Both hashes
// moved when the fabric.throughput.ops_per_sec gauge, a copy of
// fabric.served's rates, left the series export, and last when the
// sampler stopped ticking before ResetStats: the rings lost their
// set-up points (this case ticks 20 times, not 165; E21's 40, not
// 3 296) and every point left equals the old one at its instant, and
// the latency SLO burn here fires at 154.31 ms, not 152.31 ms, since
// its 8-tick long window no longer reaches back into set-up. Both moved
// again when a busy device began running one flush at a time: every
// virtual-time value of the two cases moved with the device's flushes.
// Both moved when the host stopped declining urgent leases itself: the
// gc_coord source lost its always-0 HostDeclined field and the series
// export its gc.declined counter, and nothing else moved. Both moved
// when spans stopped carrying a GC-deferral overlay: the trace source
// lost each class's gc_deferred summary and each flight record's
// gc_deferred_ns (always 0: the only requests deferred for GC, a
// checkpoint's page writes, carry no span), and nothing else moved.
const telemetryExportGolden uint64 = 0xcdcac63e2ea9f92f

// monitorExportGolden pins E21's aged MultiQueue case the same way. E24's
// saturated case calibrates nothing, so no drift watch runs there; this
// export carries the drift alert, its explanation and every watch's
// events. It moved when a shard's log began overlapping its syncs while
// the device had room: the run's virtual-time values moved with the
// shards' flushes (the MultiQueue drift alert is detected 8.36 ticks
// after the drift, not 7.36), while E24's saturated case, whose device
// queue seldom has room, kept its hash.
const monitorExportGolden uint64 = 0xd70563db0ab4c95c

func TestTelemetryExportGolden(t *testing.T) {
	for _, tc := range []struct {
		name string
		c    fabricCase
		want uint64
		sym  string
	}{
		{"E24 saturated", saturated(Quick, blockdev.MultiQueue, 4), telemetryExportGolden, "telemetryExportGolden"},
		{"E21 aged", monitorCase(Quick, blockdev.MultiQueue, true), monitorExportGolden, "monitorExportGolden"},
	} {
		run, err := runFabric(Quick, tc.c)
		if err != nil {
			t.Fatal(err)
		}
		doc, err := json.MarshalIndent(run.fab.Registry().Export(), "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		for _, key := range []string{`"trace"`, `"series"`, `"monitor"`, `"profile"`} {
			if !strings.Contains(string(doc), key+":") {
				t.Errorf("%s: registry export has no %s source", tc.name, key)
			}
		}
		h := fnv.New64a()
		h.Write(doc)
		if sum := h.Sum64(); sum != tc.want {
			t.Errorf("%s: telemetry export hash %#x, want %#x: the registry JSON changed. "+
				"If the change is intended, set %s to %#x and say in the change what moved "+
				"(go test ./internal/experiments -run TestTelemetryExportGolden prints it)", tc.name, sum, tc.want, tc.sym, sum)
		}
	}
}
