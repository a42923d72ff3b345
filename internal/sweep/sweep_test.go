package sweep

import (
	"context"
	"errors"
	"strings"
	"testing"

	"offnetrisk/internal/scenario"
)

func TestColocationPropensitySweep(t *testing.T) {
	res, err := ColocationPropensity(context.Background(), scenario.Default(), 1, []float64{0.3, 0.9})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 2 {
		t.Fatalf("points = %d", len(res.Points))
	}
	lo, hi := res.Points[0], res.Points[1]
	// Higher propensity must yield more ground-truth colocation and more
	// correlated failures.
	if hi.Metrics["all-at-top-frac"] <= lo.Metrics["all-at-top-frac"] {
		t.Errorf("full concentration did not rise with propensity: %.2f → %.2f",
			lo.Metrics["all-at-top-frac"], hi.Metrics["all-at-top-frac"])
	}
	if hi.Metrics["hg-per-failure"] <= lo.Metrics["hg-per-failure"] {
		t.Errorf("correlated failures did not rise with propensity: %.2f → %.2f",
			lo.Metrics["hg-per-failure"], hi.Metrics["hg-per-failure"])
	}
	if !strings.Contains(res.String(), "propensity") {
		t.Error("table missing header")
	}
}

func TestSharedHeadroomSweep(t *testing.T) {
	res, err := SharedHeadroom(context.Background(), scenario.Default(), 1, []float64{1.02, 1.25, 2.0})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 3 {
		t.Fatalf("points = %d", len(res.Points))
	}
	// Congestion fraction must fall (weakly) as headroom grows, and the
	// tight-headroom end must actually congest.
	for i := 1; i < len(res.Points); i++ {
		if res.Points[i].Metrics["congesting-frac"] > res.Points[i-1].Metrics["congesting-frac"]+1e-9 {
			t.Errorf("congestion rose with headroom: %+v", res.Points)
		}
	}
	if res.Points[0].Metrics["congesting-frac"] <= 0 {
		t.Error("no congestion even at 2% headroom")
	}
}

func TestDemandSpikeSweep(t *testing.T) {
	res, err := DemandSpike(context.Background(), scenario.Default(), 1, []float64{1.0, 1.3, 1.58, 2.0})
	if err != nil {
		t.Fatal(err)
	}
	// Interdomain growth must be monotone in the spike and dominate offnet
	// growth at every point past 1.0 (the §4.1 asymmetry).
	prev := -1.0
	for _, p := range res.Points {
		ig := p.Metrics["interdomain-growth"]
		if ig < prev-1e-9 {
			t.Errorf("interdomain growth not monotone: %+v", res.Points)
		}
		prev = ig
		if p.Param > 1.2 && ig <= p.Metrics["offnet-growth"] {
			t.Errorf("spike %v: interdomain (%v) should exceed offnet growth (%v)",
				p.Param, ig, p.Metrics["offnet-growth"])
		}
	}
	// At multiplier 1.0 the only change is the burst regime absorbing the
	// steady-state spill: offnet growth is the small burst margin and
	// interdomain traffic falls.
	if g := res.Points[0].Metrics["offnet-growth"]; g < 0 || g > 0.15 {
		t.Errorf("no-spike offnet growth = %v, want small burst margin", g)
	}
	if ig := res.Points[0].Metrics["interdomain-growth"]; ig > 0 {
		t.Errorf("no-spike interdomain growth = %v, want ≤0", ig)
	}
}

func TestResultStringEmpty(t *testing.T) {
	r := Result{Name: "x", Param: "p"}
	if !strings.Contains(r.String(), "sweep x") {
		t.Error("empty sweep renders header")
	}
}

// sweepFuncs are the three sweeps under one signature.
var sweepFuncs = map[string]func(context.Context, *scenario.Spec, int64, []float64) (Result, error){
	"colocation-propensity": ColocationPropensity,
	"shared-headroom":       SharedHeadroom,
	"demand-spike":          DemandSpike,
}

// TestSweepsHonorCancellation: a cancelled ctx stops every sweep with
// context.Canceled instead of a partial or empty table.
func TestSweepsHonorCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for name, run := range sweepFuncs {
		if _, err := run(ctx, scenario.Default(), 1, []float64{1.0, 2.0}); !errors.Is(err, context.Canceled) {
			t.Errorf("%s: err = %v, want context.Canceled", name, err)
		}
	}
}

// TestSweepsRunTheScenario: a sweep measures the scenario it is handed, so
// a world with different deployments and traffic yields a different table.
func TestSweepsRunTheScenario(t *testing.T) {
	oca := scenario.MustLookup("open-connect-everywhere")
	for name, run := range sweepFuncs {
		values := []float64{0.6, 1.58}
		def, err := run(context.Background(), scenario.Default(), 1, values)
		if err != nil {
			t.Fatalf("%s default: %v", name, err)
		}
		got, err := run(context.Background(), oca, 1, values)
		if err != nil {
			t.Fatalf("%s open-connect-everywhere: %v", name, err)
		}
		if got.String() == def.String() {
			t.Errorf("%s: open-connect-everywhere sweep equals the default's:\n%s", name, got)
		}
	}
}
