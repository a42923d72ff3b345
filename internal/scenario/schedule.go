package scenario

import (
	"fmt"
	"math"
	"os"

	"offnetrisk/internal/traffic"
)

// Event schedules are the declarative "what happens over the day" companion
// to scenario specs: a versioned, strictly-parsed list of timed disturbances
// (demand steps, facility failures, capacity cuts, isolation toggles) that
// the discrete-event engine in internal/temporal replays against the diurnal
// demand curve. PR 7 deferred this section to the temporal engine; it lives
// here so schedules share the spec layer's parsing discipline — unknown
// keys, wrong versions, out-of-range values, and overlapping windows are all
// errors, never silent reinterpretations.

// ScheduleVersion is the schedule schema version this build reads.
const ScheduleVersion = 1

// maxScheduleHours bounds event timestamps and durations to one simulated
// year; anything later is almost certainly a units mistake.
const maxScheduleHours = 8760

// maxScheduleEvents bounds a schedule document's event count.
const maxScheduleEvents = 4096

// Schedule is one parsed, validated event schedule.
type Schedule struct {
	Version     int          `json:"version"`
	Name        string       `json:"name"`
	Description string       `json:"description,omitempty"`
	Events      []TimedEvent `json:"events"`
}

// TimedEvent is one scheduled disturbance: a window [at, at+duration) and
// exactly one action. A zero (or omitted) duration means "until the end of
// the run" for window actions; isolation toggles are instants and reject a
// duration outright.
type TimedEvent struct {
	AtHours       float64 `json:"at_hours"`
	DurationHours float64 `json:"duration_hours,omitempty"`

	DemandStep      *DemandStep      `json:"demand_step,omitempty"`
	FacilityFailure *FacilityFailure `json:"facility_failure,omitempty"`
	CapacityCut     *CapacityCut     `json:"capacity_cut,omitempty"`
	Isolation       *IsolationToggle `json:"isolation,omitempty"`
}

// DemandStep multiplies demand during the window — the flash-crowd /
// bad-software-update shape of §4.1.
type DemandStep struct {
	// HG is the lowercase hypergiant the step applies to; "" means all four.
	HG string `json:"hg,omitempty"`
	// Multiplier scales the hypergiant's demand for the window's duration.
	Multiplier float64 `json:"multiplier"`
}

// FacilityFailure darkens one colocation facility for the window — the
// §3.3/§4.3 correlated-failure scenario.
type FacilityFailure struct {
	Facility int `json:"facility"`
}

// CapacityCut removes a fraction of one serving layer's capacity for the
// window (a PNI port dies, an offnet rack is drained, an IXP LAG degrades).
type CapacityCut struct {
	// Layer is "offnet", "pni" or "ixp".
	Layer string `json:"layer"`
	// HG is the lowercase hypergiant the cut applies to; "" means all four.
	HG string `json:"hg,omitempty"`
	// ISP restricts the cut to one access network; 0 means every ISP.
	ISP uint32 `json:"isp,omitempty"`
	// CutFraction is the share of capacity removed, in (0, 1].
	CutFraction float64 `json:"cut_fraction"`
}

// IsolationToggle switches the §6 per-hypergiant capacity-slice mitigation
// on or off from this instant onward.
type IsolationToggle struct {
	Enabled bool `json:"enabled"`
}

// ScheduleLayers lists the capacity layers a cut may target.
var ScheduleLayers = []string{"offnet", "pni", "ixp"}

func validLayer(l string) bool {
	for _, v := range ScheduleLayers {
		if l == v {
			return true
		}
	}
	return false
}

// ParseSchedule reads a schedule file's bytes and validates the result.
// Unknown keys anywhere in the document, versions other than the one this
// build reads, out-of-range values, and overlapping same-target windows are
// errors.
func ParseSchedule(data []byte) (*Schedule, error) {
	var s Schedule
	if err := decodeStrict(data, &s); err != nil {
		return nil, fmt.Errorf("scenario: parse schedule: %w", err)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// LoadSchedule reads and parses the schedule file at path.
func LoadSchedule(path string) (*Schedule, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("scenario: read schedule file: %w", err)
	}
	return ParseSchedule(data)
}

// kind names the event's single action, or errors when the action count is
// not exactly one.
func (e *TimedEvent) kind() (string, error) {
	var kinds []string
	if e.DemandStep != nil {
		kinds = append(kinds, "demand_step")
	}
	if e.FacilityFailure != nil {
		kinds = append(kinds, "facility_failure")
	}
	if e.CapacityCut != nil {
		kinds = append(kinds, "capacity_cut")
	}
	if e.Isolation != nil {
		kinds = append(kinds, "isolation")
	}
	switch len(kinds) {
	case 0:
		return "", fmt.Errorf("no action (want exactly one of demand_step, facility_failure, capacity_cut, isolation)")
	case 1:
		return kinds[0], nil
	default:
		return "", fmt.Errorf("%d actions %v (want exactly one)", len(kinds), kinds)
	}
}

// window returns the half-open active window [at, end); end is +Inf for the
// open-ended zero-duration form.
func (e *TimedEvent) window() (start, end float64) {
	start = e.AtHours
	if e.DurationHours <= 0 {
		return start, math.Inf(1)
	}
	return start, start + e.DurationHours
}

// Validate checks schema version, per-event ranges, the one-action rule, and
// rejects overlapping windows that target the same object (two failures of
// one facility, two steps on one hypergiant, two cuts of one link, two
// isolation toggles at one instant). Adjacent half-open windows ([2,4) then
// [4,6)) are fine.
func (s *Schedule) Validate() error {
	bad := func(format string, args ...any) error {
		return fmt.Errorf("schedule %q: %s", s.Name, fmt.Sprintf(format, args...))
	}
	if s.Version != ScheduleVersion {
		return bad("unsupported schedule version %d (this build reads version %d)", s.Version, ScheduleVersion)
	}
	if s.Name == "" {
		return bad("missing name")
	}
	if len(s.Events) > maxScheduleEvents {
		return bad("%d events exceeds the %d-event cap", len(s.Events), maxScheduleEvents)
	}
	for i := range s.Events {
		e := &s.Events[i]
		kind, err := e.kind()
		if err != nil {
			return bad("event %d: %v", i, err)
		}
		if math.IsNaN(e.AtHours) || e.AtHours < 0 || e.AtHours > maxScheduleHours {
			return bad("event %d: at_hours %g out of range [0, %d]", i, e.AtHours, maxScheduleHours)
		}
		if math.IsNaN(e.DurationHours) || e.DurationHours < 0 || e.DurationHours > maxScheduleHours {
			return bad("event %d: duration_hours %g out of range [0, %d]", i, e.DurationHours, maxScheduleHours)
		}
		switch kind {
		case "demand_step":
			d := e.DemandStep
			if d.HG != "" {
				if _, ok := traffic.ParseHG(d.HG); !ok {
					return bad("event %d: unknown hypergiant %q in demand_step", i, d.HG)
				}
			}
			if math.IsNaN(d.Multiplier) || d.Multiplier <= 0 || d.Multiplier > 100 {
				return bad("event %d: demand_step.multiplier %g out of range (0, 100]", i, d.Multiplier)
			}
		case "facility_failure":
			if e.FacilityFailure.Facility <= 0 {
				return bad("event %d: facility_failure.facility must be > 0, got %d", i, e.FacilityFailure.Facility)
			}
		case "capacity_cut":
			c := e.CapacityCut
			if !validLayer(c.Layer) {
				return bad("event %d: capacity_cut.layer %q (want one of %v)", i, c.Layer, ScheduleLayers)
			}
			if c.HG != "" {
				if _, ok := traffic.ParseHG(c.HG); !ok {
					return bad("event %d: unknown hypergiant %q in capacity_cut", i, c.HG)
				}
			}
			if math.IsNaN(c.CutFraction) || c.CutFraction <= 0 || c.CutFraction > 1 {
				return bad("event %d: capacity_cut.cut_fraction %g out of range (0, 1]", i, c.CutFraction)
			}
		case "isolation":
			if e.DurationHours != 0 {
				return bad("event %d: isolation is an instant toggle; duration_hours must be omitted", i)
			}
		}
	}
	for i := range s.Events {
		for j := i + 1; j < len(s.Events); j++ {
			if eventsCollide(&s.Events[i], &s.Events[j]) {
				return bad("events %d and %d overlap on the same target", i, j)
			}
		}
	}
	return nil
}

// eventsCollide reports whether two (individually valid) events target the
// same object with intersecting windows. Wildcards ("" hypergiant, 0 ISP)
// collide with everything they cover.
func eventsCollide(a, b *TimedEvent) bool {
	switch {
	case a.DemandStep != nil && b.DemandStep != nil:
		if !hgCollide(a.DemandStep.HG, b.DemandStep.HG) {
			return false
		}
	case a.FacilityFailure != nil && b.FacilityFailure != nil:
		if a.FacilityFailure.Facility != b.FacilityFailure.Facility {
			return false
		}
	case a.CapacityCut != nil && b.CapacityCut != nil:
		ac, bc := a.CapacityCut, b.CapacityCut
		if ac.Layer != bc.Layer || !hgCollide(ac.HG, bc.HG) {
			return false
		}
		if ac.ISP != 0 && bc.ISP != 0 && ac.ISP != bc.ISP {
			return false
		}
	case a.Isolation != nil && b.Isolation != nil:
		// Toggles are instants: only the same instant is ambiguous.
		return a.AtHours == b.AtHours
	default:
		return false
	}
	aStart, aEnd := a.window()
	bStart, bEnd := b.window()
	return aStart < bEnd && bStart < aEnd
}

func hgCollide(a, b string) bool {
	return a == "" || b == "" || a == b
}
