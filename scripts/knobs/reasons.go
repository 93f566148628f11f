package main

// gated names the structs whose every exported field must have a setter:
// the serving stack's, and the storage engine's, where an assembly
// choice set only by the package's own builders must not come back as a
// field.
var gated = map[string]bool{
	"sched.Config": true, "blockdev.Config": true, "serve.Config": true,
	"serve.AdmissionConfig": true, "serve.BatchConfig": true,
	"place.MoverConfig": true, "ftl.Config": true, "kvstore.Config": true,
}

// kept excuses gated fields that stay exported without an outside
// setter, each with its reason.
var kept = map[string]string{
	"blockdev.Config.Mode":     "callers choose it through blockdev.DefaultConfig(mode)",
	"serve.Config.Progressive": "the paper's progressive assembly as a fabric; only tests build one today (serve's crash/reopen, place's allocation gate)",
}

// The reasons several unrun functions share.
const (
	wearOut      = "program failure and block retirement: ftl's TestFailedProgramKeepsNoPayload and ssd's TestReadBackUnderWear drive it; no run fails a program until ROADMAP items 12 and 18"
	chipFaults   = "a chip-scoped fault: RandomPlan draws them only when PlanConfig.Chips > 0, which no soak sets, and faults' tests fire them at a recorder; they join the soaks with ROADMAP item 12"
	deviceFaults = "place's TestFaultSoak fires the device stalls and slowdowns RandomPlan draws through faults.Target"
	stalls       = "ssd's TestFlashTimingGolden stalls a device and a chip; no run stalls media (E22 kills a device)"
	fabricCrash  = "the fabric crash and re-serve harness: serve's TestCrashWhileServingResumes, place's TestCrashDeviceKeepsQuorumAckedWrites, experiments' TestLedgeredFabricSurvivesCrashes"
	waitGroup    = "joins concurrent simulated clients in tests: kvstore's TestConcurrentCheckpointsOnTwoStores, place's TestGroupAdmissionNeverHalfApplies, serve's"
	legacyFlush  = "the FTL interface on a legacy FTL, which no run flushes or trims: ssd's TestPresetsBuildAndWork flushes one"
	pcmDev       = "the ssd.Dev interface on the PCM SSD, which E14 drives by page writes and reads only: ssd's TestPCMSSDBasics and TestPresetsBuildAndWork drive it"
)

// reasons excuses the functions the product's runs never execute, each
// with the test that drives it or the ROADMAP item that will run it.
var reasons = map[string]string{
	"ftl.PageFTL.handleProgramFailure": wearOut, "ftl.PageFTL.pickChipExcept": wearOut, "ftl.PageFTL.retireBlock": wearOut,
	"nand.Chip.Fail": wearOut, "nand.Chip.MarkBad": wearOut, "nand.Chip.poisson": wearOut,
	"ftl.arrayOp.fail": "ends an array op on a chip read error; nothing fails a chip read until a killed chip's reads do (ROADMAP item 18)",

	"faults.Injector.Fired": "faults' TestInjectorFiresOnSchedule and place's TestFaultSoakDeterministic compare fired schedules",
	"faults.RandomPlan":     "place's TestFaultSoak draws its seeded plans from it; E22 kills a device by a fixed plan",
	"faults.Kind.String":    "names a kind in Validate's errors; faults' TestValidateRejects drives it",
	"serve.Fabric.Chips":    chipFaults, "serve.Fabric.KillChip": chipFaults, "serve.Fabric.SlowChip": chipFaults,
	"serve.Fabric.StallChip": chipFaults, "ssd.Device.Chips": chipFaults, "ssd.Device.KillChip": chipFaults,
	"ssd.Device.SlowChip":      chipFaults,
	"serve.Fabric.StallDevice": deviceFaults, "serve.Fabric.SlowDevice": deviceFaults,
	"ssd.Device.Stall": stalls, "ssd.Device.StallChip": stalls, "nand.Chip.Stall": stalls,

	"serve.Fabric.Crash": fabricCrash, "serve.Fabric.CrashDevice": fabricCrash, "serve.Fabric.crashReopen": fabricCrash,
	"place.Placement.CrashDevice": fabricCrash, "place.Group.dropReplica": fabricCrash,
	"ftl.writeBuffer.dropVolatile": "a crash with a volatile buffer: ftl's TestPageFTLVolatileBufferLosesData and place's TestCrashLosesVolatileAcksAtDevice; E10 crashes safe-buffered devices (ROADMAP item 3)",
	"serve.Shard.Retired":          "place's TestLiveMigrationLosesNoAcknowledgedWrite checks that no group still routes to a retired shard",
	"serve.Shard.Slot":             "place's fault soak audits that no region slot has two live owners",
	"serve.Shard.Name":             "names a shard in place's errors; place's tests name shards by it",

	"obs.Sampler.Ticks":       "experiments' TestTelemetryChargesNoVirtualTime checks that a telemetry-on fabric's sampler ticked",
	"obs.Span.NoteGCDeferred": "obs's TestSpanClosure; nothing defers a request for GC by class until ROADMAP item 13",

	"kvstore.BuildShardProgressive": "the progressive fabric (serve.Config.Progressive), which only tests build: kvstore's TestBuildRejectsBadRegions; ROADMAP item 9",
	"metrics.Table.Cell":            "the acceptance bars in experiments_test.go read experiment table cells",
	"sim.Engine.RunUntil":           "bounded runs in sched's and ftl's tests (ftl's TestFlushPendingAcrossCrash)",
	"sim.NewWaitGroup":              waitGroup, "sim.WaitGroup.Add": waitGroup, "sim.WaitGroup.Done": waitGroup, "sim.WaitGroup.Wait": waitGroup,
	"ftl.PageFTL.frontierPage": "hands a parked write a GC-frontier page when nothing is reclaimable, which no run's device gets near: ftl's TestGCDeferralStopsAtFloorUnderPressure and TestParkedWriteBackYieldsToNewerWrite; ROADMAP items 12 and 20 rework the path",
	"ftl.writeBuffer.lpns":     "lists the entries a volatile buffer loses at a crash (writeBuffer.dropVolatile): ftl's TestPageFTLVolatileBufferLosesData",
	"ftl.DFTL.Inner":           "a DFTL device's GC control and nameless writes reach its PageFTL through it: ssd's TestGCControlReachesPageFTLBehindDFTL",
	"ftl.DFTL.Flush":           legacyFlush, "ftl.HybridFTL.Flush": legacyFlush,
	"ftl.DFTL.Trim":       "the FTL interface on a legacy FTL, which no run trims: ftl's TestDFTLErrorsPropagate",
	"ftl.HybridFTL.Trim":  "the FTL interface on a legacy FTL, which no run trims: ftl's TestHybridFTLTrim",
	"ftl.DFTL.Stats":      "the FTL interface on a legacy FTL, whose counters no run reads: ftl's TestDFTLChargesMapTraffic",
	"ftl.HybridFTL.Stats": "the FTL interface on a legacy FTL, whose counters no run reads: ftl's TestHybridFTLRoundTripAndLog",
	"ssd.PCMSSD.Flush":    pcmDev, "ssd.PCMSSD.Trim": pcmDev, "ssd.PCMSSD.PageSize": pcmDev,
	"ssd.PCMSSD.Name":       "the ssd.Dev interface on the PCM SSD, which nothing asks its name; no test or run drives it",
	"nand.Addr.String":      "formats an address in nand's errors; nand's tests reach those errors",
	"nand.BlockAddr.String": "formats a block in nand's errors; nand's tests reach those errors",
}
