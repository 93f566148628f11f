package faults

import (
	"reflect"
	"testing"

	"repro/internal/sim"
)

// recorder is a Target that logs calls instead of failing hardware.
type recorder struct {
	devices int
	calls   []Injection
}

func (r *recorder) Devices() int { return r.devices }
func (r *recorder) KillDevice(d int) {
	r.calls = append(r.calls, Injection{Kind: KillDevice, Device: d})
}
func (r *recorder) StallDevice(d int, dur sim.Time) {
	r.calls = append(r.calls, Injection{Kind: StallDevice, Device: d, Duration: dur})
}
func (r *recorder) SlowDevice(d int, read, program, erase float64) {
	r.calls = append(r.calls, Injection{Kind: SlowDevice, Device: d, Read: read, Program: program, Erase: erase})
}

func TestRandomPlanDeterministic(t *testing.T) {
	cfg := PlanConfig{Devices: 4, Injections: 12, MaxKills: 2}
	for seed := uint64(1); seed < 20; seed++ {
		a := RandomPlan(seed, cfg)
		b := RandomPlan(seed, cfg)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d: two draws differ:\n%v\n%v", seed, a, b)
		}
		if len(a) != cfg.Injections {
			t.Fatalf("seed %d: %d injections, want %d", seed, len(a), cfg.Injections)
		}
		kills := 0
		for _, inj := range a {
			if inj.Kind == KillDevice {
				kills++
				if inj.Frac > 0.6 {
					t.Fatalf("seed %d: kill at fraction %v, want <= 0.6 so repair has runway", seed, inj.Frac)
				}
			}
		}
		if kills > cfg.MaxKills {
			t.Fatalf("seed %d: %d kills, cap %d", seed, kills, cfg.MaxKills)
		}
	}
	if !reflect.DeepEqual(RandomPlan(7, cfg), RandomPlan(7, cfg)) {
		t.Fatal("same seed must draw the same plan")
	}
	if reflect.DeepEqual(RandomPlan(7, cfg), RandomPlan(8, cfg)) {
		t.Fatal("different seeds should draw different plans")
	}
}

func TestRandomPlanValidates(t *testing.T) {
	rec := &recorder{devices: 4}
	cfg := PlanConfig{Devices: rec.devices, Injections: 16, MaxKills: 3}
	for seed := uint64(0); seed < 50; seed++ {
		if err := RandomPlan(seed, cfg).Validate(rec); err != nil {
			t.Fatalf("seed %d: generated plan invalid: %v", seed, err)
		}
	}
}

func TestValidateRejects(t *testing.T) {
	rec := &recorder{devices: 2}
	bad := []struct {
		name string
		pl   Plan
	}{
		{"device out of range", Plan{{Kind: KillDevice, Device: 2}}},
		{"negative device", Plan{{Kind: KillDevice, Device: -1}}},
		{"fraction above one", Plan{{Kind: KillDevice, Device: 0, Frac: 1.5}}},
		{"stall without duration", Plan{{Kind: StallDevice, Device: 0}}},
		{"slow without factors", Plan{{Kind: SlowDevice, Device: 0, Frac: 0.5}}},
	}
	for _, tc := range bad {
		if err := tc.pl.Validate(rec); err == nil {
			t.Errorf("%s: Validate accepted %v", tc.name, tc.pl)
		}
	}
	if err := (Plan{}).Validate(rec); err != nil {
		t.Errorf("empty plan must validate: %v", err)
	}
}

func TestInjectorFiresOnSchedule(t *testing.T) {
	eng := sim.NewEngine()
	rec := &recorder{devices: 2}
	in := NewInjector(eng, rec)
	horizon := 10 * sim.Millisecond
	pl := Plan{
		{Kind: StallDevice, Device: 0, Frac: 0.25, Duration: sim.Millisecond},
		{Kind: KillDevice, Device: 1, Frac: 0.5},
		{Kind: SlowDevice, Device: 0, Frac: 0.9, Read: 2, Program: 2, Erase: 2},
	}
	if err := in.Arm(pl, 0, horizon); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if len(rec.calls) != 3 {
		t.Fatalf("%d target calls, want 3: %v", len(rec.calls), rec.calls)
	}
	if rec.calls[0].Kind != StallDevice || rec.calls[1].Kind != KillDevice || rec.calls[2].Kind != SlowDevice {
		t.Fatalf("firing order wrong: %v", rec.calls)
	}
	if got := in.Fired(); len(got) != 3 {
		t.Fatalf("Fired logged %d, want 3", len(got))
	}
	// Arming an invalid plan must refuse before anything schedules.
	if err := in.Arm(Plan{{Kind: KillDevice, Device: 9}}, 0, horizon); err == nil {
		t.Fatal("Arm accepted an out-of-range device")
	}
}

// TestSoakPlansArePinned pins the schedules RandomPlan draws for place's
// fault soak (two devices, five injections, one kill) at seeds 1–3, so
// a change to the draw cannot move the soak's faults unseen.
func TestSoakPlansArePinned(t *testing.T) {
	want := map[uint64]Plan{
		1: {
			{Kind: StallDevice, Device: 1, Frac: 0.45548737364461767, Duration: 1982527},
			{Kind: SlowDevice, Device: 0, Frac: 0.3284069475175733, Read: 2.587993211324611, Program: 1.8082843381004514, Erase: 2.210840737950658},
			{Kind: StallDevice, Device: 0, Frac: 0.23362799131244083, Duration: 825556},
			{Kind: StallDevice, Device: 1, Frac: 0.15276815451646117, Duration: 547322},
			{Kind: KillDevice, Device: 1, Frac: 0.24345567741186955},
		},
		2: {
			{Kind: SlowDevice, Device: 0, Frac: 0.7123353233560236, Read: 1.6231773743622282, Program: 1.693244540823398, Erase: 2.4527072290334955},
			{Kind: StallDevice, Device: 1, Frac: 0.37158530222418695, Duration: 248379},
			{Kind: SlowDevice, Device: 1, Frac: 0.26271278413394783, Read: 1.4002691361194683, Program: 1.7284631639148453, Erase: 1.7556511361210265},
			{Kind: KillDevice, Device: 1, Frac: 0.3637060165884317},
			{Kind: StallDevice, Device: 1, Frac: 0.6921961209145582, Duration: 1546252},
		},
		3: {
			{Kind: SlowDevice, Device: 1, Frac: 0.1582933894174283, Read: 1.4328782175629697, Program: 2.2724446314552953, Erase: 1.2702917171623012},
			{Kind: StallDevice, Device: 0, Frac: 0.6587489163210776, Duration: 1764666},
			{Kind: StallDevice, Device: 0, Frac: 0.7391122062468712, Duration: 1625590},
			{Kind: KillDevice, Device: 1, Frac: 0.3939966058951363},
			{Kind: SlowDevice, Device: 0, Frac: 0.25288313388902284, Read: 2.2448704703972506, Program: 2.7802779905578126, Erase: 1.431577299962796},
		},
	}
	for seed := uint64(1); seed <= 3; seed++ {
		got := RandomPlan(seed, PlanConfig{Devices: 2, Injections: 5, MaxKills: 1})
		if !reflect.DeepEqual(got, want[seed]) {
			t.Errorf("seed %d: RandomPlan drew\n%#v\nwant\n%#v", seed, got, want[seed])
		}
	}
}
