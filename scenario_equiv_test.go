package offnetrisk

import (
	"runtime"
	"testing"

	"offnetrisk/internal/scenario"
	"offnetrisk/internal/tracert"
)

// TestTinyIsDefaultAtTinyScale: the registry's tiny scenario and the
// default scenario at tiny scale (what a plain -tiny run builds) render
// every experiment byte-identically — the spec alone selects the world and
// the campaign sizes, so there is one tiny run, not two.
func TestTinyIsDefaultAtTinyScale(t *testing.T) {
	named := runAll(t, NewPipeline(scenario.MustLookup("tiny"), 42))
	if got := runAll(t, NewPipeline(scenario.Default().AtScale("tiny"), 42)); got != named {
		t.Fatal("default-at-tiny pipeline diverged from the tiny scenario")
	}
}

// TestLargeIsDefaultAtLargeScale is the config-level twin for the large
// tier (too big to build in a unit test): the large scenario and the
// default scenario at large scale resolve to the same world and the same
// traceroute and mapping campaign sizes.
func TestLargeIsDefaultAtLargeScale(t *testing.T) {
	named, scaled := scenario.MustLookup("large"), scenario.Default().AtScale("large")
	if named.Topology != scaled.Topology {
		t.Errorf("topology %+v, want %+v", scaled.Topology, named.Topology)
	}
	if got, want := tracert.ConfigFromScenario(scaled, 42), tracert.ConfigFromScenario(named, 42); got != want {
		t.Errorf("traceroute config %+v, want %+v", got, want)
	}
	if got, want := scaled.Measurement.MappingSample, named.Measurement.MappingSample; got != want {
		t.Errorf("mapping sample %d, want %d", got, want)
	}
}

// TestScenarioWorkerDeterminism: each named scenario is byte-identical at
// any worker count — the spec layer introduces no ordering hazards.
func TestScenarioWorkerDeterminism(t *testing.T) {
	for _, name := range scenario.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			sp := scenario.MustLookup(name)
			render := func(workers int) string {
				p := NewPipeline(sp.AtScale("tiny"), 42)
				p.Workers = workers
				return runAll(t, p)
			}
			serial := render(1)
			for _, workers := range []int{4, runtime.GOMAXPROCS(0)} {
				if got := render(workers); got != serial {
					t.Fatalf("scenario %s diverged at Workers=%d", name, workers)
				}
			}
		})
	}
}
