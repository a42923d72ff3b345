package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"offnetrisk/internal/cascade"
	"offnetrisk/internal/hypergiant"
	"offnetrisk/internal/inet"
	"offnetrisk/internal/rngutil"
	"offnetrisk/internal/scenario"
)

// scheduleDays is the what-if replay horizon in simulated days.
const scheduleDays = 30

// scheduleFacts are the public facts of a deployment the schedule generator
// may use.
type scheduleFacts struct {
	hosts      []inet.ASN        // HostingISPs, ascending
	facilities []inet.FacilityID // distinct TopFacility of hosts shared by ≥2 hypergiants, ascending
}

func factsOf(d *hypergiant.Deployment) scheduleFacts {
	f := scheduleFacts{hosts: d.HostingISPs()}
	seen := map[inet.FacilityID]bool{}
	for _, as := range f.hosts {
		if fid, n := cascade.TopFacility(d, as); n >= 2 && !seen[fid] {
			seen[fid] = true
			f.facilities = append(f.facilities, fid)
		}
	}
	sort.Slice(f.facilities, func(i, j int) bool { return f.facilities[i] < f.facilities[j] })
	return f
}

// scheduleHGs are the demand-step and cut targets; "" means all four.
var scheduleHGs = []string{"google", "netflix", "meta", "akamai", ""}

// genSchedule builds the what-if replay's event schedule from the seed and
// the deployment's facts alone. Every simulated day gets one demand step,
// one failure of a shared top facility, one capacity cut on a random layer,
// and on about half the days an isolation toggle pair. All of a day's
// windows open and close inside that day, so no two same-target windows can
// overlap; half-hour offsets add clock steps between the hourly ticks.
func genSchedule(seed int64, f scheduleFacts) ([]byte, error) {
	r := rand.New(rand.NewSource(rngutil.Derive(seed, rngutil.Label("perfbench/schedule"))))
	half := func() float64 { return 0.5 * float64(r.Intn(2)) }
	round2 := func(x float64) float64 { return math.Round(x*100) / 100 }

	s := scenario.Schedule{
		Version:     scenario.ScheduleVersion,
		Name:        fmt.Sprintf("perfbench-whatif-seed-%d", seed),
		Description: "generated what-if schedule: daily demand steps, shared-facility failures, capacity cuts and isolation toggles",
	}
	for day := 0; day < scheduleDays; day++ {
		base := float64(24 * day)
		s.Events = append(s.Events, scenario.TimedEvent{
			AtHours:       base + float64(7+r.Intn(6)) + half(),
			DurationHours: float64(3 + r.Intn(7)),
			DemandStep: &scenario.DemandStep{
				HG:         scheduleHGs[r.Intn(len(scheduleHGs))],
				Multiplier: round2(1.2 + 1.6*r.Float64()),
			},
		})
		if len(f.facilities) > 0 {
			s.Events = append(s.Events, scenario.TimedEvent{
				AtHours:         base + float64(10+r.Intn(8)) + half(),
				DurationHours:   float64(1 + r.Intn(5)),
				FacilityFailure: &scenario.FacilityFailure{Facility: int(f.facilities[r.Intn(len(f.facilities))])},
			})
		}
		cut := &scenario.CapacityCut{
			Layer:       scenario.ScheduleLayers[r.Intn(len(scenario.ScheduleLayers))],
			HG:          scheduleHGs[r.Intn(len(scheduleHGs))],
			CutFraction: round2(0.2 + 0.6*r.Float64()),
		}
		if len(f.hosts) > 0 && r.Intn(2) == 0 {
			cut.ISP = uint32(f.hosts[r.Intn(len(f.hosts))])
		}
		s.Events = append(s.Events, scenario.TimedEvent{
			AtHours:       base + float64(12+r.Intn(8)) + half(),
			DurationHours: float64(1 + r.Intn(4)),
			CapacityCut:   cut,
		})
		if r.Intn(2) == 0 {
			s.Events = append(s.Events,
				scenario.TimedEvent{AtHours: base + float64(15+r.Intn(3)) + 0.25, Isolation: &scenario.IsolationToggle{Enabled: true}},
				scenario.TimedEvent{AtHours: base + 21.75, Isolation: &scenario.IsolationToggle{Enabled: false}},
			)
		}
	}
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("marshal schedule: %w", err)
	}
	return append(data, '\n'), nil
}
