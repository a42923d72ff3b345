package scenario

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const validScheduleDoc = `{
  "version": 1,
  "name": "unit",
  "description": "one of each action",
  "events": [
    {"at_hours": 9, "duration_hours": 8, "demand_step": {"hg": "akamai", "multiplier": 2.4}},
    {"at_hours": 12, "duration_hours": 5, "facility_failure": {"facility": 22}},
    {"at_hours": 13.5, "duration_hours": 3, "capacity_cut": {"layer": "pni", "hg": "akamai", "cut_fraction": 0.5}},
    {"at_hours": 16, "isolation": {"enabled": true}}
  ]
}`

func TestParseScheduleValid(t *testing.T) {
	s, err := ParseSchedule([]byte(validScheduleDoc))
	if err != nil {
		t.Fatal(err)
	}
	if s.Name != "unit" || len(s.Events) != 4 {
		t.Fatalf("parsed %q with %d events", s.Name, len(s.Events))
	}
	if s.Events[0].DemandStep == nil || s.Events[0].DemandStep.Multiplier != 2.4 {
		t.Fatal("demand step did not round-trip")
	}
	if s.Events[3].Isolation == nil || !s.Events[3].Isolation.Enabled {
		t.Fatal("isolation toggle did not round-trip")
	}
}

func TestLoadSchedule(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sched.json")
	if err := os.WriteFile(path, []byte(validScheduleDoc), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadSchedule(path); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadSchedule(filepath.Join(t.TempDir(), "absent.json")); err == nil {
		t.Fatal("missing file accepted")
	}
}

// TestParseScheduleRejects walks every strictness rule: unknown keys, wrong
// versions, trailing data, range violations, the one-action rule, and
// overlapping same-target windows.
func TestParseScheduleRejects(t *testing.T) {
	cases := []struct {
		name string
		doc  string
		want string // substring of the error
	}{
		{"unknown top-level key", `{"version": 1, "name": "x", "bogus": 1, "events": []}`, "bogus"},
		{"unknown event key", `{"version": 1, "name": "x", "events": [{"at_hours": 1, "when": 2, "isolation": {"enabled": true}}]}`, "when"},
		{"unknown action key", `{"version": 1, "name": "x", "events": [{"at_hours": 1, "demand_step": {"hg": "akamai", "multiplier": 2, "extra": 1}}]}`, "extra"},
		{"wrong version", `{"version": 2, "name": "x", "events": []}`, "version 2"},
		{"missing version", `{"name": "x", "events": []}`, "version 0"},
		{"missing name", `{"version": 1, "events": []}`, "missing name"},
		{"trailing data", `{"version": 1, "name": "x", "events": []}{"more": true}`, "trailing data"},
		{"stray closing brace", `{"version": 1, "name": "x", "events": []}}`, "trailing data"},
		{"no action", `{"version": 1, "name": "x", "events": [{"at_hours": 1}]}`, "no action"},
		{"two actions", `{"version": 1, "name": "x", "events": [{"at_hours": 1, "demand_step": {"multiplier": 2}, "facility_failure": {"facility": 3}}]}`, "2 actions"},
		{"negative timestamp", `{"version": 1, "name": "x", "events": [{"at_hours": -1, "isolation": {"enabled": true}}]}`, "at_hours"},
		{"timestamp beyond a year", `{"version": 1, "name": "x", "events": [{"at_hours": 9000, "isolation": {"enabled": true}}]}`, "at_hours"},
		{"negative duration", `{"version": 1, "name": "x", "events": [{"at_hours": 1, "duration_hours": -2, "facility_failure": {"facility": 3}}]}`, "duration_hours"},
		{"zero multiplier", `{"version": 1, "name": "x", "events": [{"at_hours": 1, "demand_step": {"multiplier": 0}}]}`, "multiplier"},
		{"huge multiplier", `{"version": 1, "name": "x", "events": [{"at_hours": 1, "demand_step": {"multiplier": 101}}]}`, "multiplier"},
		{"unknown hypergiant", `{"version": 1, "name": "x", "events": [{"at_hours": 1, "demand_step": {"hg": "cloudflare", "multiplier": 2}}]}`, "cloudflare"},
		{"zero facility", `{"version": 1, "name": "x", "events": [{"at_hours": 1, "facility_failure": {"facility": 0}}]}`, "facility"},
		{"unknown layer", `{"version": 1, "name": "x", "events": [{"at_hours": 1, "capacity_cut": {"layer": "satellite", "cut_fraction": 0.5}}]}`, "satellite"},
		{"zero cut fraction", `{"version": 1, "name": "x", "events": [{"at_hours": 1, "capacity_cut": {"layer": "pni", "cut_fraction": 0}}]}`, "cut_fraction"},
		{"cut fraction above one", `{"version": 1, "name": "x", "events": [{"at_hours": 1, "capacity_cut": {"layer": "pni", "cut_fraction": 1.5}}]}`, "cut_fraction"},
		{"isolation with duration", `{"version": 1, "name": "x", "events": [{"at_hours": 1, "duration_hours": 2, "isolation": {"enabled": true}}]}`, "instant"},
		{"overlapping failures of one facility", `{"version": 1, "name": "x", "events": [
			{"at_hours": 1, "duration_hours": 4, "facility_failure": {"facility": 7}},
			{"at_hours": 3, "duration_hours": 4, "facility_failure": {"facility": 7}}]}`, "overlap"},
		{"open-ended failure overlaps later one", `{"version": 1, "name": "x", "events": [
			{"at_hours": 1, "facility_failure": {"facility": 7}},
			{"at_hours": 100, "duration_hours": 1, "facility_failure": {"facility": 7}}]}`, "overlap"},
		{"wildcard demand step overlaps named one", `{"version": 1, "name": "x", "events": [
			{"at_hours": 1, "duration_hours": 4, "demand_step": {"multiplier": 2}},
			{"at_hours": 2, "duration_hours": 4, "demand_step": {"hg": "netflix", "multiplier": 3}}]}`, "overlap"},
		{"wildcard-ISP cut overlaps named-ISP cut", `{"version": 1, "name": "x", "events": [
			{"at_hours": 1, "duration_hours": 4, "capacity_cut": {"layer": "ixp", "cut_fraction": 0.5}},
			{"at_hours": 2, "duration_hours": 4, "capacity_cut": {"layer": "ixp", "isp": 64512, "cut_fraction": 0.5}}]}`, "overlap"},
		{"duplicate isolation instant", `{"version": 1, "name": "x", "events": [
			{"at_hours": 5, "isolation": {"enabled": true}},
			{"at_hours": 5, "isolation": {"enabled": false}}]}`, "overlap"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseSchedule([]byte(tc.doc))
			if err == nil {
				t.Fatalf("accepted: %s", tc.doc)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// Disjoint or adjacent windows on the same target, same-window events on
// different targets, and differing-layer cuts are all fine.
func TestScheduleAllowsNonColliding(t *testing.T) {
	cases := []struct {
		name string
		doc  string
	}{
		{"adjacent half-open failure windows", `{"version": 1, "name": "x", "events": [
			{"at_hours": 2, "duration_hours": 2, "facility_failure": {"facility": 7}},
			{"at_hours": 4, "duration_hours": 2, "facility_failure": {"facility": 7}}]}`},
		{"same window, different facilities", `{"version": 1, "name": "x", "events": [
			{"at_hours": 2, "duration_hours": 2, "facility_failure": {"facility": 7}},
			{"at_hours": 2, "duration_hours": 2, "facility_failure": {"facility": 8}}]}`},
		{"same window, different hypergiants", `{"version": 1, "name": "x", "events": [
			{"at_hours": 2, "duration_hours": 2, "demand_step": {"hg": "google", "multiplier": 2}},
			{"at_hours": 2, "duration_hours": 2, "demand_step": {"hg": "meta", "multiplier": 3}}]}`},
		{"same window, different layers", `{"version": 1, "name": "x", "events": [
			{"at_hours": 2, "duration_hours": 2, "capacity_cut": {"layer": "pni", "cut_fraction": 0.5}},
			{"at_hours": 2, "duration_hours": 2, "capacity_cut": {"layer": "ixp", "cut_fraction": 0.5}}]}`},
		{"same layer, different ISPs", `{"version": 1, "name": "x", "events": [
			{"at_hours": 2, "duration_hours": 2, "capacity_cut": {"layer": "pni", "isp": 64512, "cut_fraction": 0.5}},
			{"at_hours": 2, "duration_hours": 2, "capacity_cut": {"layer": "pni", "isp": 64513, "cut_fraction": 0.5}}]}`},
		{"isolation toggles at distinct instants", `{"version": 1, "name": "x", "events": [
			{"at_hours": 5, "isolation": {"enabled": true}},
			{"at_hours": 9, "isolation": {"enabled": false}}]}`},
		{"failure during a demand step", `{"version": 1, "name": "x", "events": [
			{"at_hours": 2, "duration_hours": 8, "demand_step": {"multiplier": 2}},
			{"at_hours": 4, "duration_hours": 2, "facility_failure": {"facility": 7}}]}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := ParseSchedule([]byte(tc.doc)); err != nil {
				t.Fatalf("rejected: %v", err)
			}
		})
	}
}

// The committed acceptance schedule must always parse against the current
// schema — this pins the repo artifact to the code.
func TestCommittedFlashCrowdScheduleParses(t *testing.T) {
	s, err := LoadSchedule("../../schedules/ios-flash-crowd.json")
	if err != nil {
		t.Fatal(err)
	}
	if s.Name != "ios-flash-crowd" || len(s.Events) != 4 {
		t.Fatalf("committed schedule drifted: name %q, %d events", s.Name, len(s.Events))
	}
}
