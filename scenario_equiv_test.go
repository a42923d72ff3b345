package offnetrisk

import (
	"runtime"
	"testing"

	"offnetrisk/internal/scenario"
)

// TestDefaultScenarioPipelineByteIdentical: a pipeline explicitly running
// the default scenario renders every experiment byte-identically to a plain
// NewPipeline — spec plumbing adds no drift.
func TestDefaultScenarioPipelineByteIdentical(t *testing.T) {
	plain := runAll(t, NewPipeline(42, ScaleTiny))

	spec := NewPipelineFromSpec(scenario.Default(), 42)
	spec.Scale = ScaleTiny
	if got := runAll(t, spec); got != plain {
		t.Fatal("default-scenario pipeline diverged from plain pipeline")
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
				p := NewPipelineFromSpec(sp, 42)
				p.Scale = ScaleTiny
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
