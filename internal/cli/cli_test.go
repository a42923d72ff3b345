package cli

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"offnetrisk/internal/scenario"
)

// parse registers the shared flags on a fresh FlagSet and parses args,
// mirroring what every cmd/ main does.
func parse(t *testing.T, args ...string) *Common {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	c := Register(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatalf("parse %v: %v", args, err)
	}
	return c
}

func TestTinyLargeConflict(t *testing.T) {
	c := parse(t, "-tiny", "-large")
	if _, err := c.ScenarioSpec(); err == nil {
		t.Fatal("-tiny -large accepted; want a conflict error")
	} else if !strings.Contains(err.Error(), "mutually exclusive") {
		t.Fatalf("conflict error %q does not name the conflict", err)
	}
	// The same conflict must surface through Pipeline too.
	if _, err := c.Pipeline(); err == nil {
		t.Fatal("Pipeline accepted -tiny -large")
	}
}

// TestScaleAliases pins the one resolution of -scenario/-tiny/-large:
// -tiny and -large put the named scenario (default when absent) at the
// registry's tiny or large scale, so a plain -tiny run resolves to exactly
// the spec `-scenario default -tiny` does.
func TestScaleAliases(t *testing.T) {
	cases := []struct {
		args []string
		want *scenario.Spec
	}{
		{nil, scenario.Default()},
		{[]string{"-tiny"}, scenario.Default().AtScale("tiny")},
		{[]string{"-scenario", "default", "-tiny"}, scenario.Default().AtScale("tiny")},
		{[]string{"-large"}, scenario.Default().AtScale("large")},
		{[]string{"-scenario", "tiny"}, scenario.MustLookup("tiny")},
		// An explicit -scenario keeps its own spec; the scale flag only
		// brings the topology and the scale-bound campaign sizes.
		{[]string{"-scenario", "ios-flash-crowd", "-tiny"}, scenario.MustLookup("ios-flash-crowd").AtScale("tiny")},
	}
	for _, tc := range cases {
		sp, err := parse(t, tc.args...).ScenarioSpec()
		if err != nil {
			t.Fatalf("%v: %v", tc.args, err)
		}
		if sp.Hash() != tc.want.Hash() {
			t.Errorf("%v: resolved %q (%s), want %q (%s)", tc.args, sp.Name, sp.Hash(), tc.want.Name, tc.want.Hash())
		}
	}
}

func TestScenarioSpecUnknownName(t *testing.T) {
	c := parse(t, "-scenario", "no-such-world")
	if _, err := c.ScenarioSpec(); err == nil {
		t.Fatal("unknown scenario name accepted")
	}
}

func TestChaosSettingsFallback(t *testing.T) {
	chaotic := scenario.MustLookup("ios-flash-crowd") // chaos {light, 7}
	if chaotic.Chaos.Profile != "light" {
		t.Fatalf("fixture drift: ios-flash-crowd chaos profile %q", chaotic.Chaos.Profile)
	}

	// Unset flags inherit the scenario's chaos section.
	c := parse(t)
	if prof, seed := c.ChaosSettings(chaotic); prof != "light" || seed != chaotic.Chaos.Seed {
		t.Errorf("fallback = (%q, %d), want (light, %d)", prof, seed, chaotic.Chaos.Seed)
	}

	// Explicit flags win over the scenario.
	c = parse(t, "-chaos", "off", "-chaos-seed", "99")
	if prof, seed := c.ChaosSettings(chaotic); prof != "off" || seed != 99 {
		t.Errorf("explicit flags = (%q, %d), want (off, 99)", prof, seed)
	}

	// Default scenario leaves the flag defaults untouched, so plain runs are
	// byte-identical to the pre-scenario CLI.
	c = parse(t)
	if prof, seed := c.ChaosSettings(scenario.Default()); prof != "off" || seed != 7 {
		t.Errorf("default scenario = (%q, %d), want (off, 7)", prof, seed)
	}
}

func TestChaosInjectorRejectsBadProfile(t *testing.T) {
	c := parse(t, "-chaos", "apocalyptic")
	if _, err := c.ChaosInjector(scenario.Default()); err == nil {
		t.Fatal("unknown chaos profile accepted")
	}
}

func TestPipelineCarriesScenario(t *testing.T) {
	c := parse(t, "-scenario", "meta-cdn", "-tiny", "-workers", "3")
	p, err := c.Pipeline()
	if err != nil {
		t.Fatal(err)
	}
	if p.Spec.Name != "meta-cdn" {
		t.Errorf("pipeline scenario %q, want meta-cdn", p.Spec.Name)
	}
	if got, want := p.Spec.Topology, scenario.MustLookup("tiny").Topology; got != want {
		t.Errorf("pipeline topology %+v, want tiny's %+v", got, want)
	}
	if p.Workers != 3 {
		t.Errorf("pipeline workers %d, want 3", p.Workers)
	}
}

// TestTemporalResolution pins the -hours/-schedule contract: off by default,
// -hours alone replays the steady state, -schedule implies a 24-hour horizon,
// negative hours and unreadable schedule files are flag errors.
func TestTemporalResolution(t *testing.T) {
	if hours, sched, err := parse(t).Temporal(); err != nil || hours != 0 || sched != nil {
		t.Fatalf("default Temporal() = (%d, %v, %v), want (0, nil, nil)", hours, sched, err)
	}
	if hours, sched, err := parse(t, "-hours", "48").Temporal(); err != nil || hours != 48 || sched != nil {
		t.Fatalf("-hours 48: got (%d, %v, %v)", hours, sched, err)
	}

	path := filepath.Join(t.TempDir(), "sched.json")
	doc := `{"version": 1, "name": "cli-test", "events": [{"at_hours": 2, "isolation": {"enabled": true}}]}`
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	hours, sched, err := parse(t, "-schedule", path).Temporal()
	if err != nil || sched == nil || sched.Name != "cli-test" {
		t.Fatalf("-schedule: got (%d, %v, %v)", hours, sched, err)
	}
	if hours != 24 {
		t.Fatalf("-schedule alone implies 24 hours, got %d", hours)
	}
	if hours, _, err := parse(t, "-hours", "6", "-schedule", path).Temporal(); err != nil || hours != 6 {
		t.Fatalf("-hours 6 -schedule: got (%d, %v); explicit hours must win", hours, err)
	}

	if _, _, err := parse(t, "-hours", "-1").Temporal(); err == nil {
		t.Fatal("-hours -1 accepted")
	}
	if _, _, err := parse(t, "-schedule", filepath.Join(t.TempDir(), "absent.json")).Temporal(); err == nil {
		t.Fatal("missing schedule file accepted")
	}
	badPath := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(badPath, []byte(`{"version": 9, "name": "x", "events": []}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := parse(t, "-schedule", badPath).Temporal(); err == nil {
		t.Fatal("invalid schedule file accepted")
	}
}
