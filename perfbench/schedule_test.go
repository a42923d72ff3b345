package main

import (
	"bytes"
	"context"
	"testing"

	"offnetrisk/internal/capacity"
	"offnetrisk/internal/hypergiant"
	"offnetrisk/internal/inet"
	"offnetrisk/internal/scenario"
	"offnetrisk/internal/temporal"
)

// tinyFacts deploys the tiny world and returns it with its schedule facts.
func tinyFacts(t *testing.T) (*hypergiant.Deployment, scheduleFacts) {
	t.Helper()
	w := inet.Generate(inet.TinyConfig(42))
	d, err := hypergiant.Deploy(w, hypergiant.Epoch2023, hypergiant.DefaultDeployConfig(42))
	if err != nil {
		t.Fatal(err)
	}
	f := factsOf(d)
	if len(f.hosts) == 0 || len(f.facilities) == 0 {
		t.Fatalf("tiny deployment has %d hosts and %d shared facilities", len(f.hosts), len(f.facilities))
	}
	return d, f
}

func TestScheduleSameSeedSameBytes(t *testing.T) {
	_, f := tinyFacts(t)
	a, err := genSchedule(42, f)
	if err != nil {
		t.Fatal(err)
	}
	b, err := genSchedule(42, f)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("two schedules of seed 42 differ")
	}
	c, err := genSchedule(43, f)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(a, c) {
		t.Fatal("seeds 42 and 43 gave the same schedule")
	}
}

// Every seed's schedule passes the strict parser, stays inside the replay
// horizon and targets only the deployment's own facilities and ISPs.
func TestScheduleParsesForManySeeds(t *testing.T) {
	_, f := tinyFacts(t)
	facs := map[int]bool{}
	for _, id := range f.facilities {
		facs[int(id)] = true
	}
	hosts := map[uint32]bool{}
	for _, as := range f.hosts {
		hosts[uint32(as)] = true
	}
	for seed := int64(0); seed < 100; seed++ {
		raw, err := genSchedule(seed, f)
		if err != nil {
			t.Fatal(err)
		}
		s, err := scenario.ParseSchedule(raw)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if len(s.Events) < 3*scheduleDays {
			t.Fatalf("seed %d: %d events, want at least %d", seed, len(s.Events), 3*scheduleDays)
		}
		for i, ev := range s.Events {
			if end := ev.AtHours + ev.DurationHours; end > 24*scheduleDays {
				t.Fatalf("seed %d event %d ends at %g h, past the %d-day horizon", seed, i, end, scheduleDays)
			}
			if ff := ev.FacilityFailure; ff != nil && !facs[ff.Facility] {
				t.Fatalf("seed %d event %d fails facility %d, not a shared top facility", seed, i, ff.Facility)
			}
			if cc := ev.CapacityCut; cc != nil && cc.ISP != 0 && !hosts[cc.ISP] {
				t.Fatalf("seed %d event %d cuts ISP %d, not a hosting ISP", seed, i, cc.ISP)
			}
		}
	}
}

// The generated schedule replays: disturbed steps and half-hour instants
// both appear, and the trajectory digest repeats.
func TestScheduleReplays(t *testing.T) {
	d, f := tinyFacts(t)
	raw, err := genSchedule(42, f)
	if err != nil {
		t.Fatal(err)
	}
	s, err := scenario.ParseSchedule(raw)
	if err != nil {
		t.Fatal(err)
	}
	m := capacity.Build(d, capacity.DefaultConfig(42))
	var digests []string
	for i := 0; i < 2; i++ {
		eng, err := temporal.New(m, d, s, temporal.Config{Hours: 24 * scheduleDays})
		if err != nil {
			t.Fatal(err)
		}
		traj, err := eng.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if len(traj.Steps) <= 24*scheduleDays {
			t.Fatalf("%d steps: the half-hour instants added none between the hourly ticks", len(traj.Steps))
		}
		disturbed := 0
		for _, st := range traj.Steps {
			if st.Burst {
				disturbed++
			}
		}
		if disturbed == 0 {
			t.Fatal("no step evaluated a disturbance")
		}
		digests = append(digests, traj.Digest())
	}
	if digests[0] != digests[1] {
		t.Fatal("replaying one schedule twice gave different trajectory digests")
	}
}
