package inet

import (
	"testing"

	"offnetrisk/internal/scenario"
)

// TestConfigFromScenario: every registry scenario's topology section reaches
// the generation config field for field, and TinyConfig is the tiny
// scenario's world.
func TestConfigFromScenario(t *testing.T) {
	for _, name := range scenario.Names() {
		sp := scenario.MustLookup(name)
		tp := sp.Topology
		want := Config{
			Seed: 42, AccessISPs: tp.AccessISPs, TransitISPs: tp.TransitISPs,
			Backbones: tp.Backbones, IXPs: tp.IXPs, TotalUsers: tp.TotalUsers,
			ZipfExponent: tp.ZipfExponent, UsersPerSlash24: tp.UsersPerSlash24,
			Sharded: tp.Sharded,
		}
		if got := ConfigFromScenario(sp, 42); got != want {
			t.Errorf("ConfigFromScenario(%s) = %+v, want %+v", name, got, want)
		}
	}
	if got, want := TinyConfig(7), ConfigFromScenario(scenario.MustLookup("tiny"), 7); got != want {
		t.Errorf("TinyConfig = %+v, want the tiny scenario's %+v", got, want)
	}
	if !ConfigFromScenario(scenario.MustLookup("huge"), 1).Sharded {
		t.Error("the huge scenario must select the sharded builder")
	}
}

// scenarioConfig is the named registry scenario's world config.
func scenarioConfig(name string, seed int64) Config {
	return ConfigFromScenario(scenario.MustLookup(name), seed)
}
