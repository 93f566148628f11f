package experiments

// Runner is one experiment entry point.
type Runner struct {
	ID  string
	Run func(Scale) (*Result, error)
}

// All lists every experiment in docs/EXPERIMENTS.md order.
var All = []Runner{
	{"E1", E1Figure1},
	{"E2", E2GCInterference},
	{"E3", E3ChipVsSSD},
	{"E4", E4Bimodal},
	{"E5", E5RandVsSeqWrites},
	{"E6", E6WriteAmplification},
	{"E7", E7ReadTailLatency},
	{"E8", E8ReadVsWriteParallelism},
	{"E9", E9ChannelChipScaling},
	{"E10", E10CommitLatency},
	{"E11", E11Codesign},
	{"E12", E12StackOverhead},
	{"E13", E13PCMSSD},
	{"E14", E14UFLIP},
	{"E15", E15TenantIsolation},
	{"E16", E16ServingFabric},
	{"E17", E17GCCoordination},
	{"E18", E18AdaptiveControlPlane},
	{"E19", E19ReplicatedPlacement},
	{"E20", E20Observability},
	{"E21", E21ContinuousMonitoring},
	{"E22", E22DeviceDeath},
	{"E23", E23Throughput},
	{"E24", E24ResourceProfile},
}
