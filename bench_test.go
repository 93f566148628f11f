// Benchmarks regenerating every figure and quantitative claim of the
// paper (one per experiment; see docs/EXPERIMENTS.md), plus
// microbenchmarks of the substrate. Each experiment benchmark runs its
// full workload in virtual time and reports headline results as custom
// metrics, so `go test -bench=.` reproduces the paper end to end.
package necro

import (
	"testing"

	"repro/internal/experiments"
	"repro/internal/sim"
)

// benchExperiment runs one experiment per iteration, reporting virtual
// results through b.Log on the first iteration.
func benchExperiment(b *testing.B, run func(experiments.Scale) (*experiments.Result, error)) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		res, err := run(experiments.Quick)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + res.String())
		}
	}
}

// BenchmarkE1Figure1 regenerates Figure 1 (channel-bound reads vs
// chip-bound writes).
func BenchmarkE1Figure1(b *testing.B) { benchExperiment(b, experiments.E1Figure1) }

// BenchmarkE2GCInterference regenerates the Figure 2 claim: GC traffic
// interferes with host I/O.
func BenchmarkE2GCInterference(b *testing.B) { benchExperiment(b, experiments.E2GCInterference) }

// BenchmarkE3ChipVsSSD regenerates Myth 1 (SSD ≠ chip).
func BenchmarkE3ChipVsSSD(b *testing.B) { benchExperiment(b, experiments.E3ChipVsSSD) }

// BenchmarkE4BimodalMistake regenerates Myth 1b (host-pinned placement
// forfeits scheduling freedom).
func BenchmarkE4BimodalMistake(b *testing.B) { benchExperiment(b, experiments.E4Bimodal) }

// BenchmarkE5RandVsSeqWrites regenerates Myth 2 (random vs sequential
// writes across device generations).
func BenchmarkE5RandVsSeqWrites(b *testing.B) { benchExperiment(b, experiments.E5RandVsSeqWrites) }

// BenchmarkE6WriteAmplification regenerates Myth 2b (random writes raise
// GC write amplification).
func BenchmarkE6WriteAmplification(b *testing.B) {
	benchExperiment(b, experiments.E6WriteAmplification)
}

// BenchmarkE7ReadTailLatency regenerates Myth 3 (reads stall behind
// erases; writes hide in the cache).
func BenchmarkE7ReadTailLatency(b *testing.B) { benchExperiment(b, experiments.E7ReadTailLatency) }

// BenchmarkE8ReadVsWriteParallelism regenerates Myth 3b (reads inherit
// placement, writes choose it).
func BenchmarkE8ReadVsWriteParallelism(b *testing.B) {
	benchExperiment(b, experiments.E8ReadVsWriteParallelism)
}

// BenchmarkE9ChannelChipScaling regenerates Myth 3c (reads scale with
// channels, writes with chips).
func BenchmarkE9ChannelChipScaling(b *testing.B) {
	benchExperiment(b, experiments.E9ChannelChipScaling)
}

// BenchmarkE10CommitLatency regenerates §3.1 (sync to PCM, async to
// flash).
func BenchmarkE10CommitLatency(b *testing.B) { benchExperiment(b, experiments.E10CommitLatency) }

// BenchmarkE11Codesign regenerates §3.2 (nameless writes, trim, atomic
// writes).
func BenchmarkE11Codesign(b *testing.B) { benchExperiment(b, experiments.E11Codesign) }

// BenchmarkE12StackOverhead regenerates §3.3 (the stack binds at SSD
// latencies).
func BenchmarkE12StackOverhead(b *testing.B) { benchExperiment(b, experiments.E12StackOverhead) }

// BenchmarkE13PCMSSD regenerates §2.4 (PCM doesn't dissolve the device
// problem).
func BenchmarkE13PCMSSD(b *testing.B) { benchExperiment(b, experiments.E13PCMSSD) }

// BenchmarkE14UFLIP regenerates the uFLIP characterization matrix.
func BenchmarkE14UFLIP(b *testing.B) { benchExperiment(b, experiments.E14UFLIP) }

// BenchmarkE15TenantIsolation measures multi-tenant isolation under the
// sched arbiter versus FIFO across the three stacks.
func BenchmarkE15TenantIsolation(b *testing.B) {
	benchExperiment(b, experiments.E15TenantIsolation)
}

// BenchmarkE16ServingFabric measures the sharded KV serving fabric with
// and without shard-boundary admission control under overload.
func BenchmarkE16ServingFabric(b *testing.B) {
	benchExperiment(b, experiments.E16ServingFabric)
}

// BenchmarkE17GCCoordination measures host→device GC coordination (the
// fabric leasing GC deferrals from its devices) off versus on.
func BenchmarkE17GCCoordination(b *testing.B) {
	benchExperiment(b, experiments.E17GCCoordination)
}

// BenchmarkE18AdaptiveControlPlane measures the adaptive control plane
// (observed-service-time feedback: cost calibration, adaptive deadlines
// with early drop, urgency-sized GC leases) against the static
// constants on devices that age mid-run.
func BenchmarkE18AdaptiveControlPlane(b *testing.B) {
	benchExperiment(b, experiments.E18AdaptiveControlPlane)
}

// BenchmarkE19ReplicatedPlacement measures replica placement: GC-steered
// replicated reads against single placement on aged devices, plus a
// drift-triggered live shard migration under load.
func BenchmarkE19ReplicatedPlacement(b *testing.B) {
	benchExperiment(b, experiments.E19ReplicatedPlacement)
}

// BenchmarkE20Observability measures the tracing spine: per-request
// spans threaded through every layer, span-vs-client closure, stage
// attribution of the p99 and the tracing-overhead check.
func BenchmarkE20Observability(b *testing.B) {
	benchExperiment(b, experiments.E20Observability)
}

// BenchmarkE21ContinuousMonitoring measures the continuous-telemetry
// layer: drift detection latency from sampled series, false-alert
// immunity on unaged baselines, and the zero-serving-cost check.
func BenchmarkE21ContinuousMonitoring(b *testing.B) {
	benchExperiment(b, experiments.E21ContinuousMonitoring)
}

// BenchmarkE22DeviceDeath measures the failure domain: a device killed
// at half-window under full load, groups degrading to their survivors,
// and the rebuild onto the spare — scored on lost acked writes (zero),
// time to re-replication and degraded-window p99.
func BenchmarkE22DeviceDeath(b *testing.B) {
	benchExperiment(b, experiments.E22DeviceDeath)
}

// BenchmarkE23Throughput measures what batching the submission path
// buys: worker drains of 8 (group commit, batched device submission)
// against drains of 1, scored on saturated ops/sec and CPU ns per op.
func BenchmarkE23Throughput(b *testing.B) {
	benchExperiment(b, experiments.E23Throughput)
}

// BenchmarkE24ResourceProfile measures the resource profiler over the
// saturation sweep: exact per-resource busy-time attribution at zero
// virtual-time overhead, scored on closure and the bottleneck shift.
func BenchmarkE24ResourceProfile(b *testing.B) {
	benchExperiment(b, experiments.E24ResourceProfile)
}

// ---- substrate microbenchmarks (real wall-clock cost of the simulator) ----

// BenchmarkSimulatedPageWrite measures simulator throughput for the full
// write path (host link -> FTL -> channel -> chip).
func BenchmarkSimulatedPageWrite(b *testing.B) {
	eng := NewEngine()
	dev, err := BuildDevice(eng, Enterprise2012, DeviceOptions{Channels: 2, ChipsPerChannel: 2, BlocksPerPlane: 64})
	if err != nil {
		b.Fatal(err)
	}
	span := dev.Capacity()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dev.Write(int64(i)%span, nil, func(error) {})
		if i%256 == 255 {
			eng.Run()
		}
	}
	eng.Run()
}

// BenchmarkSimulatedPageRead measures the read path.
func BenchmarkSimulatedPageRead(b *testing.B) {
	eng := NewEngine()
	dev, err := BuildDevice(eng, Enterprise2012, DeviceOptions{Channels: 2, ChipsPerChannel: 2, BlocksPerPlane: 64})
	if err != nil {
		b.Fatal(err)
	}
	span := dev.Capacity()
	for l := int64(0); l < span; l++ {
		dev.Write(l, nil, func(error) {})
	}
	eng.Run()
	rng := sim.NewRNG(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dev.Read(rng.Int63n(span), func([]byte, error) {})
		if i%256 == 255 {
			eng.Run()
		}
	}
	eng.Run()
}

// BenchmarkKVCommitProgressive measures engine commit cost over the
// progressive stack (PCM log).
func BenchmarkKVCommitProgressive(b *testing.B) {
	benchKVCommit(b, true)
}

// BenchmarkKVCommitConservative measures engine commit cost over the
// conservative stack (block-device log).
func BenchmarkKVCommitConservative(b *testing.B) {
	benchKVCommit(b, false)
}

func benchKVCommit(b *testing.B, progressive bool) {
	eng := NewEngine()
	var sys *KVSystem
	eng.Go(func(p *Proc) {
		d, err := BuildDevice(eng, Enterprise2012, DeviceOptions{Channels: 2, ChipsPerChannel: 2, BlocksPerPlane: 128})
		if err != nil {
			b.Error(err)
			return
		}
		flash := d.(*FlashDevice)
		if progressive {
			mb, err := NewMemBus(eng, "pcm", DefaultPCMConfig())
			if err != nil {
				b.Error(err)
				return
			}
			sys, err = BuildProgressiveKV(p, eng, flash, mb, 1<<22, 2, KVConfig{CheckpointBytes: 1 << 20})
			if err != nil {
				b.Error(err)
			}
		} else {
			var err error
			sys, err = BuildConservativeKV(p, eng, flash, 256, 2, KVConfig{CheckpointBytes: 1 << 20})
			if err != nil {
				b.Error(err)
			}
		}
	})
	eng.Run()
	if sys == nil {
		b.Fatal("setup failed")
	}
	b.ResetTimer()
	eng.Go(func(p *Proc) {
		for i := 0; i < b.N; i++ {
			tx := sys.Store.Begin()
			tx.Put([]byte("bench-key"), []byte("bench-value"))
			if err := tx.Commit(p); err != nil {
				b.Error(err)
				return
			}
		}
	})
	eng.Run()
}
