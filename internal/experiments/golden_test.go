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
// reorders one key, changes it. It last moved when the fabric's devices
// became Enterprise2012Suspend: the export names the device preset, and
// that name is all that moved.
const telemetryExportGolden uint64 = 0xe216014cefe954de

func TestTelemetryExportGolden(t *testing.T) {
	run, err := runFabric(Quick, saturated(Quick, blockdev.MultiQueue, 4))
	if err != nil {
		t.Fatal(err)
	}
	doc, err := json.MarshalIndent(run.fab.Registry().Export(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{`"trace"`, `"series"`, `"monitor"`, `"profile"`} {
		if !strings.Contains(string(doc), key+":") {
			t.Errorf("registry export has no %s source", key)
		}
	}
	h := fnv.New64a()
	h.Write(doc)
	if sum := h.Sum64(); sum != telemetryExportGolden {
		t.Errorf("telemetry export hash %#x, want %#x: the registry JSON changed. "+
			"If the change is intended, set telemetryExportGolden to %#x and say in the change what moved "+
			"(go test ./internal/experiments -run TestTelemetryExportGolden prints it)", sum, telemetryExportGolden, sum)
	}
}
