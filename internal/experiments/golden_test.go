package experiments

import (
	"hash/fnv"
	"strings"
	"testing"

	"repro/internal/blockdev"
)

// telemetryExportGolden pins one telemetry export byte for byte: the
// registry JSON (shard ledgers, GC coordination, calibration, trace,
// series, monitor and profile) and the Prometheus text of E24's
// saturated 4-shard MultiQueue case at quick scale. It pins the
// exported values, not only their names (scripts/series_golden.txt
// gates those): a change that moves one sample, one span or one
// profiled nanosecond, or renames or reorders one key, changes it.
const telemetryExportGolden uint64 = 0xc839aacd86394c32

func TestTelemetryExportGolden(t *testing.T) {
	run, err := runFabric(Quick, saturated(Quick, blockdev.MultiQueue, 4))
	if err != nil {
		t.Fatal(err)
	}
	doc, err := run.fab.Registry().JSON()
	if err != nil {
		t.Fatal(err)
	}
	prom := run.fab.Sampler().PromText()
	for _, key := range []string{`"trace"`, `"series"`, `"monitor"`, `"profile"`} {
		if !strings.Contains(string(doc), key+":") {
			t.Errorf("registry export has no %s source", key)
		}
	}
	if prom == "" {
		t.Error("empty Prometheus text")
	}
	h := fnv.New64a()
	h.Write(doc)
	h.Write([]byte(prom))
	if sum := h.Sum64(); sum != telemetryExportGolden {
		t.Errorf("telemetry export hash %#x, want %#x: the registry JSON or the Prometheus text changed. "+
			"If the change is intended, set telemetryExportGolden to %#x and say in the change what moved "+
			"(go test ./internal/experiments -run TestTelemetryExportGolden prints it)", sum, telemetryExportGolden, sum)
	}
}
